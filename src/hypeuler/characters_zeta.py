"""Dirichlet characters and exact Dedekind zeta special values for
totally real abelian fields, plus a rigorous numeric evaluator at even
positive integers used as an independent cross-check.

Exact path: decompose zeta_k as a product of Dirichlet L-functions over
the field's character group and evaluate L(1-n, chi) = -B_{n,chi}/n with
generalized Bernoulli numbers.  The fields are real quadratic or cyclic
cubic, so zeta_k has two factors: zeta(s) for the trivial character, and
either L(s, chi) for the real character or L(s, chi) L(s, chibar) for a
cubic character chi and chibar = chi^2.  The latter at 1-n is the norm
from Q(zeta3) of L(1-n, chi), as B_{n,chibar} is the image of B_{n,chi}
under zeta3 -> zeta3^2: each factor is a rational, from one character.

Numeric path: ``zeta_k_numeric`` and ``hurwitz_zeta_enclosure`` are
entry points to ``numeric_path``, which they import when first called, so
a process that encloses no value never compiles it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .exact_arith import (
    RationalInterval,
    Value,
    Zeta3Number,
    as_rational,
    bernoulli_number,
    root_of_unity,
)
from .field_tables import NumberFieldRecord, is_fundamental_discriminant


class CharacterError(Exception):
    pass


class NonFundamentalDiscriminantError(CharacterError):
    pass


class UnsupportedFieldError(CharacterError):
    """The field is not abelian, or its character data is missing."""


class InternalConsistencyError(Exception):
    """A zeta special value that cannot vanish came out zero."""


class PrecisionError(Exception):
    """Requested enclosure width was not reached within the term budget."""


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------


class DirichletCharacter(Value):
    """Character mod f with values chi(a) = zeta_order^{exponents[a mod f]}
    on residues coprime to f, and 0 elsewhere, where the exponent is None."""

    __slots__ = ("modulus", "order", "exponents")
    _compared = __slots__

    def __init__(self, modulus: int, order: int, exponents: tuple[int | None, ...]) -> None:
        self.modulus, self.order, self.exponents = modulus, order, exponents

    def exponent_of(self, a: int) -> int | None:
        """Exponent e with chi(a) = zeta_order^e, or None when gcd(a, f) > 1."""
        return self.exponents[a % self.modulus]

    def is_even(self) -> bool:
        return self.exponent_of(-1) == 0


def trivial_character() -> DirichletCharacter:
    return DirichletCharacter(modulus=1, order=1, exponents=(0,))


def _kronecker_at_two(D: int) -> int:
    if D % 2 == 0:
        return 0
    return 1 if D % 8 in (1, 7) else -1


def _jacobi_symbol(m: int, n: int) -> int:
    """Jacobi symbol (m/n) for odd n >= 1, by quadratic reciprocity and
    the (2/n) rule."""
    m %= n
    value = 1
    while m:
        while m % 2 == 0:
            m //= 2
            if n % 8 in (3, 5):
                value = -value
        m, n = n, m
        if m % 4 == 3 and n % 4 == 3:
            value = -value
        m %= n
    return value if n == 1 else 0


def kronecker_symbol(D: int, a: int) -> int:
    """Kronecker symbol (D/a) for a >= 1."""
    if a == 0:
        return 0
    if math.gcd(D, a) > 1:
        return 0
    value = 1
    while a % 2 == 0:
        a //= 2
        value *= _kronecker_at_two(D)
    if a == 1:
        return value
    return value * _jacobi_symbol(D, a)


def kronecker_character(D: int) -> DirichletCharacter:
    """The primitive real character mod D for a fundamental discriminant
    D > 1 of a real quadratic field."""
    if not is_fundamental_discriminant(D):
        raise NonFundamentalDiscriminantError(f"{D} is not a fundamental discriminant > 1")
    exps = tuple(None if math.gcd(a, D) > 1 else (0 if kronecker_symbol(D, a) == 1 else 1) for a in range(D))
    return DirichletCharacter(modulus=D, order=2, exponents=exps)


def character_from_generator(modulus: int, generator: int, image_exponent: int, order: int) -> DirichletCharacter:
    """Character on a cyclic (Z/f)^* determined by chi(generator) =
    zeta_order^image_exponent."""
    # the generator's first phi(f) powers must be phi(f) distinct units,
    # the next one 1 again
    units = sum(math.gcd(a, modulus) == 1 for a in range(modulus))
    exps: list[int | None] = [None] * modulus
    cur = 1
    for t in range(units):
        exps[cur] = t * image_exponent % order
        cur = cur * generator % modulus
    if cur != 1 or exps.count(None) != modulus - units:
        raise UnsupportedFieldError(
            f"{generator} does not generate the units mod {modulus}; character data invalid"
        )
    return DirichletCharacter(modulus=modulus, order=order, exponents=tuple(exps))


def characters_for_field(rec: NumberFieldRecord) -> list[DirichletCharacter]:
    """One character per factor of zeta_k for an abelian totally real
    field: the trivial character first, then the real character of a
    quadratic field or one cubic character chi of a cyclic cubic field,
    which stands for the pair chi, chibar."""
    if not rec.abelian:
        raise UnsupportedFieldError(f"{rec.label}: field is not abelian, no character decomposition")
    if rec.degree == 2:
        return [trivial_character(), kronecker_character(rec.disc)]
    if rec.degree == 3:
        if rec.conductor is None or rec.char_gen is None:
            raise UnsupportedFieldError(f"{rec.label}: missing character generator data")
        g, e, order = rec.char_gen
        chi = character_from_generator(rec.conductor, g, e, order)
        if not chi.is_even():
            raise UnsupportedFieldError(f"{rec.label}: character is odd, field cannot be totally real")
        return [trivial_character(), chi]
    raise UnsupportedFieldError(f"{rec.label}: abelian fields of degree {rec.degree} are not supported")


# ---------------------------------------------------------------------------
# Generalized Bernoulli numbers and exact special values
# ---------------------------------------------------------------------------


def generalized_bernoulli(n: int, chi: DirichletCharacter) -> Zeta3Number:
    """B_{n,chi} = f^{n-1} sum_{a=1}^{f} chi(a) B_n(a/f), as an element of
    Q(zeta3).

    Expanding B_n(x) = sum_k C(n, k) B_k x^(n-k) and grouping the residues
    a by their exponent e gives
    B_{n,chi} = sum_e zeta^e sum_k C(n, k) B_k f^(k-1) P_e(n-k)
    with the integer power sums P_e(m) = sum of a^m over the class of e,
    so only one root of unity is built per class.  Each class sum is an
    integer over the common denominator L f of the weights, so the classes
    are added as integers and divided by L f once.
    """
    if n < 1:
        raise CharacterError("generalized Bernoulli index must be positive")
    f = chi.modulus
    power_sums: dict[int, list[int]] = {}
    for a in range(1, f + 1):
        e = chi.exponent_of(a)
        if e is None:
            continue
        sums = power_sums.setdefault(e, [0] * (n + 1))
        power = 1
        for m in range(n + 1):
            sums[m] += power
            power *= a
    weights, den = _bernoulli_weights(n)
    total = Zeta3Number(0, 0)  # integer parts until the one division by den f
    for e, sums in sorted(power_sums.items()):
        total = total + root_of_unity(chi.order, e).scale(sum(w * f**k * sums[n - k] for k, w in weights))
    return total.scale(Fraction(1, den * f))


@cache
def _bernoulli_weights(n: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The nonzero C(n, k) B_k over one common denominator L, as the pairs
    (k, C(n, k) B_k L) and L."""
    den = math.lcm(*(bernoulli_number(k).denominator for k in range(n + 1)))
    weights = tuple(
        (k, math.comb(n, k) * bernoulli_number(k).numerator * (den // bernoulli_number(k).denominator))
        for k in range(n + 1)
        if bernoulli_number(k)
    )
    return weights, den


def _l_value_at_negative(n: int, chi: DirichletCharacter) -> Zeta3Number:
    """L(1-n, chi) = -B_{n,chi}/n."""
    return generalized_bernoulli(n, chi).scale(Fraction(-1, n))


@cache
def zeta_k_special(rec: NumberFieldRecord, j: int) -> Fraction:
    """The signed rational zeta_k(1-2j) for a totally real abelian field.

    Product over ``characters_for_field`` of L(1-2j, chi), a rational for
    the trivial and a real character, and of its norm N(L(1-2j, chi)) =
    L(1-2j, chi) L(1-2j, chibar) for a cubic one; a zero product aborts.
    Memoized: a field's row is needed by its obstruction verdict, its
    Euler characteristic and every higher rank, and is computed once.
    """
    if j < 1:
        raise CharacterError("j must be a positive integer")
    value = Fraction(1)
    for chi in characters_for_field(rec):
        L = _l_value_at_negative(2 * j, chi)
        value *= L.norm() if chi.order == 3 else L.as_rational()
    if not value:
        raise InternalConsistencyError(f"{rec.label}, j={j}: zeta special value vanished")
    return value


def zeta_row(rec: NumberFieldRecord, r: int) -> list[Fraction]:
    """zeta_k(1-2j) for j = 1..r."""
    return [zeta_k_special(rec, j) for j in range(1, r + 1)]


# ---------------------------------------------------------------------------
# Rigorous numeric evaluation at even s >= 2
# ---------------------------------------------------------------------------


def hurwitz_zeta_enclosure(s: int, q: Fraction, terms: int, corrections: int, precision_bits: int) -> RationalInterval:
    """Enclosure of zeta_H(s, q) for rational q in (0, 1]: ``_hurwitz_units``
    at P = ``precision_bits`` + bit length of its rounding count terms + 2, so
    rounding costs below 2^-precision_bits; the result carries that working
    precision."""
    if s < 2:
        raise CharacterError("Hurwitz enclosure requires s >= 2")
    q = as_rational(q)
    if not 0 < q <= 1:
        raise CharacterError("Hurwitz parameter must lie in (0, 1]")
    from .numeric_path import _hurwitz_units

    P = precision_bits + (terms + 2).bit_length()
    lo, hi = _hurwitz_units(s, q.numerator, q.denominator, terms, corrections, P)
    return RationalInterval(lo, hi, P, -P).outward_round(precision_bits)


def zeta_k_numeric(rec: NumberFieldRecord, s: int, precision_bits: int) -> RationalInterval:
    """Rigorous enclosure of zeta_k(s) for even s >= 2, with target width
    2^-precision_bits (relative to magnitude ~1), by the ladder of
    ``numeric_path.zeta_k_enclosure``.

    Raises PrecisionError if the target width is not reached within
    ``numeric_path.MAX_TERMS`` series terms (about 800 bits).
    """
    if s < 2 or s % 2 != 0:
        raise CharacterError("numeric evaluation is defined for even s >= 2")
    from .numeric_path import zeta_k_enclosure

    return zeta_k_enclosure(rec, s, precision_bits)
