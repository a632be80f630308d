"""Exact Dedekind zeta special values for totally real abelian fields,
plus a rigorous numeric evaluator at even positive integers used as an
independent cross-check.

Exact path: decompose zeta_k as a product of Dirichlet L-functions over
the field's character group and evaluate L(1-n, chi) = -B_{n,chi}/n with
generalized Bernoulli numbers.  The fields are real quadratic or cyclic
cubic, so zeta_k has two factors: zeta(s) for the trivial character, and
either L(s, chi) for the real character or L(s, chi) L(s, chibar) for a
cubic character chi and chibar = chi^2.  The latter at 1-n is the norm
from Q(zeta3) of L(1-n, chi), as B_{n,chibar} is the image of B_{n,chi}
under zeta3 -> zeta3^2: each factor is a rational, from one character.
The characters, Bernoulli numbers and Q(zeta3) are in ``field_path``, which
``generalized_bernoulli`` and ``zeta_k_special`` import when first called.

Numeric path: ``zeta_k_numeric`` and ``hurwitz_zeta_enclosure`` are
entry points to ``numeric_path``, which they import when first called, so
a process that encloses no value never compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING

from .exact_arith import RationalInterval, as_rational, field_path_getattr
from .field_tables import NumberFieldRecord

if TYPE_CHECKING:
    from .field_path import DirichletCharacter, Zeta3Number

__getattr__ = field_path_getattr(__name__, {"kronecker_character": "field_path", "trivial_character": "field_path"})


class CharacterError(Exception):
    pass


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
    from .field_path import Zeta3Number, _bernoulli_weights, root_of_unity

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
    from .field_path import characters_for_field

    if j < 1:
        raise CharacterError("j must be a positive integer")
    value = Fraction(1)
    for chi in characters_for_field(rec):
        L = _l_value_at_negative(2 * j, chi)
        value *= L.norm() if chi.order == 3 else L.as_rational()
    if not value:
        raise CharacterError(f"{rec.label}, j={j}: zeta special value vanished")
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

    Raises CharacterError if the target width is not reached within
    ``numeric_path.MAX_TERMS`` series terms (about 800 bits).
    """
    if s < 2 or s % 2 != 0:
        raise CharacterError("numeric evaluation is defined for even s >= 2")
    from .numeric_path import zeta_k_enclosure

    return zeta_k_enclosure(rec, s, precision_bits)
