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

Numeric path: L(s, chi) = f^{-s} sum_a chi(a) zeta_H(s, a/f) with the
Hurwitz zeta enclosed by an Euler-Maclaurin tail whose remainder is
rigorously bracketed by the first omitted correction term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache

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

    def __init__(self, message: str, best: RationalInterval | None):
        super().__init__(message)
        self.best = best


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

    def value(self, a: int) -> Zeta3Number:
        e = self.exponent_of(a)
        if e is None:
            return Zeta3Number(Fraction(0))
        return root_of_unity(self.order, e)

    def is_trivial(self) -> bool:
        return self.order == 1

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
    so only one root of unity is built per class.
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
    total = Zeta3Number(Fraction(0))
    for e, sums in sorted(power_sums.items()):
        class_sum = Fraction(sum(w * f**k * sums[n - k] for k, w in weights), den * f)
        total = total + root_of_unity(chi.order, e).scale(class_sum)
    return total


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


def _pochhammer(s: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= s + i
    return out


@cache
def _euler_maclaurin_coefficient(s: int, i: int) -> Fraction:
    """B_2i / (2i)! * s(s+1)...(s+2i-2), shared by every Hurwitz call at s."""
    return bernoulli_number(2 * i) / math.factorial(2 * i) * _pochhammer(s, 2 * i - 1)


def hurwitz_zeta_enclosure(s: int, q: Fraction, terms: int, corrections: int, precision_bits: int) -> RationalInterval:
    """Enclosure of zeta_H(s, q) = sum_{k>=0} (k+q)^{-s} for integer s >= 2
    and rational q in (0, 1].

    The tail past ``terms`` is summed by Euler-Maclaurin.  For
    f(x) = (x+q)^{-s} every even-order derivative is positive, so the
    remainder after m correction terms lies between 0 and the first
    omitted term; that term supplies the enclosure width.

    Every term is a rational num/den, summed as integers in units of 2^-P:
    floor(num 2^P / den) into the lower end and the ceiling into the upper
    end, e.g. floor and ceil of qd^s 2^P / (k qd + qn)^s for the partial
    sum.  P exceeds ``precision_bits`` by the bit length of the term count,
    so the rounding costs below 2^-precision_bits in all; the result (at
    least 1) carries working precision ``precision_bits``.
    """
    if s < 2:
        raise CharacterError("Hurwitz enclosure requires s >= 2")
    q = as_rational(q)
    if not 0 < q <= 1:
        raise CharacterError("Hurwitz parameter must lie in (0, 1]")
    qn, qd = q.numerator, q.denominator
    M = terms * qd + qn  # N = terms + q = M / qd
    P = precision_bits + (terms + corrections + 3).bit_length()

    def bracket(num: int, den: int) -> tuple[int, int]:
        """floor and ceiling of num/den in units of 2^-P."""
        quot, rem = divmod(num << P, den)
        return quot, quot + (rem > 0)

    # the i-th correction c_i N^(1-s-2i) as num/den: running powers of
    # qd^2 and M^2 from i = 1 through the omitted term i = corrections + 1
    num_power, den_power = qd ** (s + 1), M ** (s + 1)
    square_qd, square_M = qd * qd, M * M
    tail = []
    for i in range(1, corrections + 2):
        c = _euler_maclaurin_coefficient(s, i)
        tail.append((c.numerator * num_power, c.denominator * den_power))
        num_power *= square_qd
        den_power *= square_M
    *kept, omitted = tail

    summed = [(qd**s, (k * qd + qn) ** s) for k in range(terms)]
    summed += [(qd ** (s - 1), (s - 1) * M ** (s - 1)), (qd**s, 2 * M**s)]
    summed += kept
    brackets = [bracket(num, den) for num, den in summed]
    omitted_lo, omitted_hi = bracket(*omitted)
    lo = sum(b[0] for b in brackets) + min(0, omitted_lo)
    hi = sum(b[1] for b in brackets) + max(0, omitted_hi)
    return RationalInterval(Fraction(lo, 1 << P), Fraction(hi, 1 << P)).outward_round(precision_bits)


@lru_cache(maxsize=64)
def _sqrt3_enclosure(bits: int) -> RationalInterval:
    return RationalInterval.exact(3).sqrt(bits)


@cache
def _l_factor_enclosure(chi: DirichletCharacter, s: int, terms: int, corrections: int, bits: int) -> RationalInterval:
    """Enclosure of chi's factor of zeta_k(s): L(s, chi) for a character of
    order 1 or 2, and L(s, chi) L(s, chibar) = |L(s, chi)|^2 = A^2 + B^2
    for a cubic one.

    Memoized: zeta(s) is a factor of every field's zeta_k(s), and a field's
    L(s, chi) is needed again at every higher rank, so each is computed
    once per run.
    """
    f = chi.modulus
    hz: dict[int, RationalInterval] = {
        a: hurwitz_zeta_enclosure(s, Fraction(a, f), terms, corrections, bits)
        for a in range(1, f + 1)
        if chi.exponent_of(a) is not None
    }
    scale = Fraction(1, f) ** s
    if chi.order <= 2:
        acc = RationalInterval.exact(0)
        for a, enc in hz.items():
            e = chi.exponent_of(a)
            acc = acc + (enc if e == 0 else -enc)
        return acc.scale(scale)
    # a cubic character with chibar: the real part uses Re zeta_3^e
    # in {1, -1/2}; the imaginary part is (sqrt(3)/2) * (S1 - S2) over the
    # exponent-1 and exponent-2 classes
    re_acc = RationalInterval.exact(0)
    s1 = RationalInterval.exact(0)
    s2 = RationalInterval.exact(0)
    for a, enc in hz.items():
        e = chi.exponent_of(a)
        if e == 0:
            re_acc = re_acc + enc
        elif e == 1:
            re_acc = re_acc - enc.scale(Fraction(1, 2))
            s1 = s1 + enc
        else:
            re_acc = re_acc - enc.scale(Fraction(1, 2))
            s2 = s2 + enc
    half_sqrt3 = _sqrt3_enclosure(bits).scale(Fraction(1, 2))
    im_acc = half_sqrt3 * (s1 - s2)
    mod_sq = re_acc.pow_int(2) + im_acc.pow_int(2)
    return mod_sq.scale(scale * scale)


def _round_width_floor(s: int, terms: int, corrections: int, degree: int) -> Fraction:
    """B = |c_(m+1)| / (terms+1)^(s+2m+1) * 2^-(degree-1) for m corrections:
    a lower bound on the width of zeta_k_numeric's enclosure in the round
    (terms, m) of a field of that degree (see ``zeta_k_numeric``)."""
    c = _euler_maclaurin_coefficient(s, corrections + 1)
    return abs(c) / ((terms + 1) ** (s + 2 * corrections + 1) * 2 ** (degree - 1))


MAX_TERMS = 4096  # series terms of the last round of ``zeta_k_numeric``'s ladder


def zeta_k_numeric(rec: NumberFieldRecord, s: int, precision_bits: int) -> RationalInterval:
    """Rigorous enclosure of zeta_k(s) for even s >= 2, with target width
    2^-precision_bits (relative to magnitude ~1).

    The enclosure is the product of the L-factor enclosures of
    ``characters_for_field``.  They are computed on a ladder of rounds
    (terms, m): 32 series terms and m = 14 Euler-Maclaurin corrections,
    then the terms doubled and m raised by 6 (at most 40) per round, until
    the width is at most 2^-precision_bits.

    A round whose floor B = ``_round_width_floor`` is above the target is
    skipped without being computed, since it must fail.  Proof: the
    zeta(s) factor is one Hurwitz enclosure at q = 1, whose width is at
    least its omitted correction |c_(m+1)| / (terms+1)^(s+2m+1), since
    rounding only widens it.  An interval product has width at least
    width(X) * max|Y|, and max|Y| is at least the true |value| that Y
    encloses.  By the Euler product, |L(s, chi)| >= zeta(2s)/zeta(s)
    > 6/pi^2 > 1/2 for every character at even s >= 2, so a real
    character's factor is above 1/2 and a cubic one's |L(s, chi)|^2
    above 1/4.  The factors other than zeta(s) thus multiply to more than
    2^-(degree-1), and the round's width is at least B.  The round at
    ``MAX_TERMS`` is skipped by the same test, so a precision past the
    ladder's reach (at s = 2, any above 805 bits) fails before any
    enclosure is built at it.

    Each L-factor enclosure is memoized per (character, s, round,
    precision), so zeta(s) is shared across fields and L(s, chi) across
    ranks.

    Raises PrecisionError if the target width is not reached within
    ``MAX_TERMS`` series terms (about 800 bits), carrying that round's
    enclosure as ``best``, or None when its floor already ruled it out.
    """
    if s < 2 or s % 2 != 0:
        raise CharacterError("numeric evaluation is defined for even s >= 2")
    chars = characters_for_field(rec)
    target = Fraction(1, 2**precision_bits)
    terms, corrections = 32, 14
    while True:
        floor = _round_width_floor(s, terms, corrections, rec.degree)
        acc = None
        if floor <= target:
            acc = RationalInterval.exact(1)
            for chi in chars:
                acc = acc * _l_factor_enclosure(chi, s, terms, corrections, precision_bits + 16)
            if acc.width <= target:
                return acc
        if terms >= MAX_TERMS:
            width = f"width floor {float(floor):.3e}" if acc is None else f"width {float(acc.width):.3e}"
            raise PrecisionError(f"{width} above target 2^-{precision_bits} after {terms} terms", acc)
        terms *= 2
        corrections = min(corrections + 6, 40)
