"""Record semantics the engine relies on: equal records hash equal (they
are ``functools.cache`` keys), intervals compare by their endpoints only,
the arithmetic value types are not tuples, and an ``ArithmeticDatum``
checks its rank at construction (a field record is checked once, when its
table loads: ``tests/test_field_tables.py``)."""

from fractions import Fraction as F

import pytest

from hypeuler.euler_char import ArithmeticDatum, EulerCharError
from hypeuler.exact_arith import RationalInterval
from hypeuler.field_path import Zeta3Number, character_from_generator, kronecker_character
from hypeuler.field_tables import NumberFieldRecord
from hypeuler.local_factors import Kind, ParahoricType

QSQRT5 = dict(label="2.2.5.1", degree=2, disc=5, h=1, totally_real=True, abelian=True, conductor=5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: NumberFieldRecord(**QSQRT5),  # zeta_k_special
        lambda: ParahoricType("split", Kind.CHAIN_D, 2),  # compared by membership in enumerate_maximal_types(r)
        lambda: kronecker_character(5),  # _l_factor_enclosure
        lambda: character_from_generator(7, 3, 2, 3),
    ],
)
def test_equal_cache_keys_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_unequal_characters():
    assert kronecker_character(5) != kronecker_character(8)
    chi, chibar = character_from_generator(7, 3, 1, 3), character_from_generator(7, 3, 2, 3)
    # 5 = 3^-1 mod 7, so chi(5) = zeta3^2: the same character from either generator
    assert chi != chibar and chi == character_from_generator(7, 5, 2, 3)


def test_interval_equality_ignores_precision():
    a, b = F(1, 3), F(1, 2)
    assert RationalInterval(a, b, 64) == RationalInterval(a, b)
    assert hash(RationalInterval(a, b, 64)) == hash(RationalInterval(a, b))
    assert RationalInterval(a, b) != RationalInterval(a, F(1))


def test_value_types_are_not_tuples():
    with pytest.raises(TypeError):
        2 * Zeta3Number(F(1))
    with pytest.raises(TypeError):
        len(RationalInterval(F(0), F(1)))
    with pytest.raises(TypeError):
        RationalInterval(F(0), F(1)) < RationalInterval(F(2), F(3))


def test_invalid_arithmetic_datum_raises():
    with pytest.raises(EulerCharError, match="^rank must be at least 2$"):
        ArithmeticDatum(field=NumberFieldRecord(**QSQRT5), r=1)
