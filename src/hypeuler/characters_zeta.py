"""Dirichlet characters and exact Dedekind zeta special values for
totally real abelian fields, plus a rigorous numeric evaluator at even
positive integers used as an independent cross-check.

Exact path: decompose zeta_k as a product of Dirichlet L-functions over
the field's character group and evaluate L(1-n, chi) = -B_{n,chi}/n with
generalized Bernoulli numbers.  Values of non-quadratic characters live
in a cyclotomic field; the conjugate-paired product always collapses to
a rational, and the code raises if it ever fails to.

Numeric path: L(s, chi) = f^{-s} sum_a chi(a) zeta_H(s, a/f) with the
Hurwitz zeta enclosed by an Euler-Maclaurin tail whose remainder is
rigorously bracketed by the first omitted correction term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache

from .exact_arith import (
    CyclotomicNumber,
    RationalInterval,
    as_rational,
    bernoulli_number,
)
from .field_tables import NumberFieldRecord, is_fundamental_discriminant


class CharacterError(Exception):
    pass


class NonFundamentalDiscriminantError(CharacterError):
    pass


class UnsupportedFieldError(CharacterError):
    """The field is not abelian, or its character data is missing."""


class InternalConsistencyError(Exception):
    """A value that must be rational failed to collapse to one."""


class PrecisionError(Exception):
    """Requested enclosure width was not reached within the term budget."""

    def __init__(self, message: str, best: RationalInterval):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod f with values chi(a) = zeta_order^{exponents[a]} on
    residues coprime to f, and 0 elsewhere."""

    modulus: int
    order: int
    exponents: tuple[tuple[int, int], ...]  # sorted (residue, exponent) pairs
    primitive: bool

    @cached_property
    def _map(self) -> dict[int, int]:
        return dict(self.exponents)

    def exponent_of(self, a: int) -> int | None:
        """Exponent e with chi(a) = zeta_order^e, or None when gcd(a, f) > 1."""
        if self.modulus == 1:
            return 0
        a %= self.modulus
        return self._map.get(a)

    def value(self, a: int) -> CyclotomicNumber:
        e = self.exponent_of(a)
        if e is None:
            return CyclotomicNumber.from_rational(self.order, 0)
        return CyclotomicNumber.root_of_unity(self.order, e)

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_even(self) -> bool:
        e = self.exponent_of(self.modulus - 1 if self.modulus > 1 else 1)
        return e is not None and e % self.order == 0

    def conjugate(self) -> "DirichletCharacter":
        m = self.order
        return DirichletCharacter(
            modulus=self.modulus,
            order=m,
            exponents=tuple(sorted((a, (-e) % m) for a, e in self.exponents)),
            primitive=self.primitive,
        )


def trivial_character() -> DirichletCharacter:
    return DirichletCharacter(modulus=1, order=1, exponents=((0, 0),), primitive=True)


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
    exps = []
    for a in range(1, D + 1):
        if math.gcd(a, D) != 1:
            continue
        s = kronecker_symbol(D, a)
        exps.append((a % D, 0 if s == 1 else 1))
    return DirichletCharacter(modulus=D, order=2, exponents=tuple(sorted(exps)), primitive=True)


def character_from_generator(modulus: int, generator: int, image_exponent: int, order: int) -> DirichletCharacter:
    """Character on a cyclic (Z/f)^* determined by chi(generator) =
    zeta_order^image_exponent."""
    coprime = [a for a in range(1, modulus) if math.gcd(a, modulus) == 1]
    exps: dict[int, int] = {}
    cur, t = 1, 0
    while True:
        exps[cur] = (t * image_exponent) % order
        cur = (cur * generator) % modulus
        t += 1
        if cur == 1:
            break
    if len(exps) != len(coprime):
        raise UnsupportedFieldError(
            f"{generator} does not generate the units mod {modulus}; character data invalid"
        )
    return DirichletCharacter(modulus=modulus, order=order, exponents=tuple(sorted(exps.items())), primitive=True)


def characters_for_field(rec: NumberFieldRecord) -> list[DirichletCharacter]:
    """The full character group of an abelian totally real field (size =
    degree), trivial character first, conjugates adjacent."""
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
        return [trivial_character(), chi, chi.conjugate()]
    raise UnsupportedFieldError(f"{rec.label}: abelian fields of degree {rec.degree} are not supported")


# ---------------------------------------------------------------------------
# Generalized Bernoulli numbers and exact special values
# ---------------------------------------------------------------------------


def generalized_bernoulli(n: int, chi: DirichletCharacter) -> CyclotomicNumber:
    """B_{n,chi} = f^{n-1} sum_{a=1}^{f} chi(a) B_n(a/f), as an element of
    Q(zeta_order).

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
    total = CyclotomicNumber.from_rational(chi.order, 0)
    for e, sums in sorted(power_sums.items()):
        class_sum = Fraction(sum(w * f**k * sums[n - k] for k, w in weights), den * f)
        total = total + CyclotomicNumber.root_of_unity(chi.order, e).scale(class_sum)
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


def _l_value_at_negative(n: int, chi: DirichletCharacter) -> CyclotomicNumber:
    """L(1-n, chi) = -B_{n,chi}/n."""
    return generalized_bernoulli(n, chi).scale(Fraction(-1, n))


@cache
def zeta_k_special(rec: NumberFieldRecord, j: int) -> Fraction:
    """The signed rational zeta_k(1-2j) for a totally real abelian field.

    Product of L(1-2j, chi) over the character group; cyclotomic
    intermediates must collapse to a rational or the computation aborts.
    Memoized: a field's row is needed by its obstruction verdict, its
    Euler characteristic and every higher rank, and is computed once.
    """
    if j < 1:
        raise CharacterError("j must be a positive integer")
    n = 2 * j
    chars = characters_for_field(rec)
    rational_part = Fraction(1)
    by_order: dict[int, CyclotomicNumber] = {}
    for chi in chars:
        val = _l_value_at_negative(n, chi)
        if val.is_rational():
            rational_part *= val.as_rational()
        else:
            acc = by_order.get(chi.order)
            by_order[chi.order] = val if acc is None else acc * val
    for order, acc in sorted(by_order.items()):
        if not acc.is_rational():
            raise InternalConsistencyError(
                f"{rec.label}, j={j}: conjugate product in Q(zeta_{order}) did not collapse to Q"
            )
        rational_part *= acc.as_rational()
    if rational_part == 0:
        raise InternalConsistencyError(f"{rec.label}, j={j}: zeta special value vanished")
    return rational_part


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


def hurwitz_zeta_enclosure(
    s: int, q: Fraction, terms: int, corrections: int, precision_bits: int = 192
) -> RationalInterval:
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

    def correction(i: int) -> tuple[int, int]:
        """The i-th Euler-Maclaurin correction c N^(1-s-2i) as num, den."""
        c = _euler_maclaurin_coefficient(s, i)
        m = s + 2 * i - 1
        return c.numerator * qd**m, c.denominator * M**m

    summed = [(qd**s, (k * qd + qn) ** s) for k in range(terms)]
    summed += [(qd ** (s - 1), (s - 1) * M ** (s - 1)), (qd**s, 2 * M**s)]
    summed += [correction(i) for i in range(1, corrections + 1)]
    brackets = [bracket(num, den) for num, den in summed]
    omitted_lo, omitted_hi = bracket(*correction(corrections + 1))
    lo = sum(b[0] for b in brackets) + min(0, omitted_lo)
    hi = sum(b[1] for b in brackets) + max(0, omitted_hi)
    return RationalInterval(Fraction(lo, 1 << P), Fraction(hi, 1 << P)).outward_round(precision_bits)


@lru_cache(maxsize=64)
def _sqrt3_enclosure(bits: int) -> RationalInterval:
    return RationalInterval.exact(3).sqrt(bits)


def _l_factor_enclosure(
    chars: list[DirichletCharacter], s: int, terms: int, corrections: int, bits: int
) -> RationalInterval:
    """Enclosure of the product of L(s, chi) over ``chars``, where chars is
    either [chi] with chi real or a conjugate pair [chi, chibar] of cubic
    characters (handled jointly through |L|^2 = A^2 + B^2)."""
    chi = chars[0]
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
    if chi.order == 3 and len(chars) == 2:
        # real part uses Re zeta_3^e in {1, -1/2}; imaginary part is
        # (sqrt(3)/2) * (S1 - S2) over the exponent-1 and exponent-2 classes
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
    raise UnsupportedFieldError(f"cannot evaluate L numerically for character order {chi.order}")


def zeta_k_numeric(
    rec: NumberFieldRecord,
    s: int,
    precision_bits: int = 192,
    max_terms: int = 4096,
) -> RationalInterval:
    """Rigorous enclosure of zeta_k(s) for even s >= 2, with target width
    2^-precision_bits (relative to magnitude ~1).

    Raises PrecisionError carrying the best enclosure if the target width
    is not reached within ``max_terms`` series terms.
    """
    if s < 2 or s % 2 != 0:
        raise CharacterError("numeric evaluation is defined for even s >= 2")
    chars = characters_for_field(rec)
    groups: list[list[DirichletCharacter]] = []
    used: set[int] = set()
    for i, chi in enumerate(chars):
        if i in used:
            continue
        if chi.order <= 2:
            groups.append([chi])
            used.add(i)
            continue
        conj = chi.conjugate()
        for k in range(i + 1, len(chars)):
            if k not in used and chars[k] == conj:
                groups.append([chi, chars[k]])
                used.update((i, k))
                break
        else:
            raise UnsupportedFieldError(f"{rec.label}: character group is not conjugation-closed")
    target = Fraction(1, 2**precision_bits)
    terms, corrections = 32, 14
    best: RationalInterval | None = None
    while True:
        acc = RationalInterval.exact(1)
        for group in groups:
            acc = acc * _l_factor_enclosure(group, s, terms, corrections, precision_bits + 16)
        best = acc
        if acc.width <= target:
            return acc
        if terms >= max_terms:
            raise PrecisionError(
                f"width {float(acc.width):.3e} above target 2^-{precision_bits} "
                f"after {terms} terms",
                best,
            )
        terms *= 2
        corrections = min(corrections + 6, 40)
