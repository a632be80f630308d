"""The field path: the code that only a rank with a field to decide runs.

A rank whose every degree 2..4 field is excluded by the discriminant bounds
(every rank from 7 on, on the bundled table) is certified by the bounds
alone.  Only a rank with a surviving field needs the rest of the proof: the
field's Dirichlet characters, the Bernoulli numbers and Q(zeta3) behind its
exact zeta values, the odd-prime obstruction and its Euler data, and the
local-factor integrality and calibration proofs.  That code is here, and
the spanned entry points that run it (``characters_zeta.zeta_k_special``
and ``.generalized_bernoulli``, ``euler_char.reciprocal_integer_obstruction``
and ``.build_euler_char``, ``local_factors.minimum_proof`` and
``.calibrate_oracle``, and ``search_bounds.certify_section`` at rank 2)
import it when first called, so a bound-only process never compiles it.
The code that no certify or verify run calls is here too: the polynomial
class, the exact |chi(Lambda)| and the table validation, which the tests
and ``tools/build_field_table.py`` use.

Calls from here to a function the benchmark's tracer spans go through that
function's module (``search_bounds.field_verdict``), never a name bound
here, so a traced or patched function is the one called.  The acceptance
suite reads some of these names from their old modules, which serve them
from here (see ``exact_arith.field_path_getattr``).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Sequence

from . import field_tables, search_bounds
from .characters_zeta import CharacterError, zeta_row
from .euler_char import ArithmeticDatum, EulerCharError
from .exact_arith import ExactArithError, Value, as_rational
from .field_tables import (
    FieldTable,
    NumberFieldRecord,
    TableError,
    _check_record_invariants,
    is_fundamental_discriminant,
)
from .local_factors import (
    Kind,
    LocalFactorError,
    ParahoricType,
    _check_type,
    _quotient_factors,
)
from .search_bounds import SEARCH_DEGREES, VERDICT_INCONCLUSIVE, BoundsMode, CertificateSection, FieldVerdict


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
        raise CharacterError(f"{D} is not a fundamental discriminant > 1")
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
        raise CharacterError(
            f"{generator} does not generate the units mod {modulus}; character data invalid"
        )
    return DirichletCharacter(modulus=modulus, order=order, exponents=tuple(exps))


def characters_for_field(rec: NumberFieldRecord) -> list[DirichletCharacter]:
    """One character per factor of zeta_k for an abelian totally real
    field: the trivial character first, then the real character of a
    quadratic field or one cubic character chi of a cyclic cubic field,
    which stands for the pair chi, chibar."""
    if not rec.abelian:
        raise CharacterError(f"{rec.label}: field is not abelian, no character decomposition")
    if rec.degree == 2:
        return [trivial_character(), kronecker_character(rec.disc)]
    if rec.degree == 3:
        g, e, order = rec.char_gen
        chi = character_from_generator(rec.conductor, g, e, order)
        if not chi.is_even():
            raise CharacterError(f"{rec.label}: character is odd, field cannot be totally real")
        return [trivial_character(), chi]
    raise CharacterError(f"{rec.label}: abelian fields of degree {rec.degree} are not supported")


# ---------------------------------------------------------------------------
# Bernoulli numbers and the field Q(zeta3)
# ---------------------------------------------------------------------------

# B_0 .. B_(2k+1) with the tangent column of T_k (see ``bernoulli_number``),
# replaced as one tuple as the memo grows, so the two always agree.  The memo
# only ever grows and is guarded by the GIL.
_BERNOULLI: tuple[tuple[Fraction, ...], tuple[int, ...]] = ((Fraction(1), Fraction(-1, 2)), ())


def bernoulli_number(n: int) -> Fraction:
    """B_n with the convention B_1 = -1/2, memoized.

    B_k vanishes at every odd k >= 3, and the even ones come from the
    integer tangent numbers T_k (tan x = sum_k T_k x^(2k-1) / (2k-1)!) as
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) (Brent and Harvey,
    arXiv:1108.0286).  T_k is the last entry of the column
    t_k^(1), ..., t_k^(k) of their in-place algorithm: t_k^(1) = (k-1)! and
    t_k^(i) = (k-i) t_(k-1)^(i) + (k-i+2) t_k^(i-1), so each column is built
    from the one before it with k integer multiply-adds, and the memo keeps
    the last column to grow from.
    """
    global _BERNOULLI
    if n < 0:
        raise ExactArithError("Bernoulli index must be nonnegative")
    numbers, column = _BERNOULLI
    while len(numbers) <= n:
        k = len(numbers) // 2
        t, prev = [(k - 1) * column[0] if column else 1], column + (0,)  # the i = k term has weight k - i = 0
        for i in range(2, k + 1):
            t.append((k - i) * prev[i - 1] + (k - i + 2) * t[-1])
        column = tuple(t)
        numbers += (Fraction((-1) ** (k - 1) * 2 * k * column[-1], 4**k * (4**k - 1)), Fraction(0))
        _BERNOULLI = numbers, column
    return numbers[n]


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


class Zeta3Number(Value):
    """The element a + b*zeta3 of Q(zeta3), where zeta3^2 = -1 - zeta3.

    Every Dirichlet character the engine meets has order 1, 2 or 3, so
    its values and every rational combination of them lie here.  Only
    sums, rational multiples and the norm to Q are ever needed."""

    __slots__ = ("a", "b")
    _compared = __slots__

    def __init__(self, a: Fraction, b: Fraction = Fraction(0)) -> None:
        self.a, self.b = a, b

    def __add__(self, other: "Zeta3Number") -> "Zeta3Number":
        return Zeta3Number(self.a + other.a, self.b + other.b)

    def scale(self, c: int | Fraction) -> "Zeta3Number":
        return Zeta3Number(self.a * c, self.b * c)

    def norm(self) -> Fraction:
        """(a + b z)(a + b z^2) = a^2 - ab + b^2: the product with the
        Galois image (a - b) - b z under z -> z^2 = -1 - z."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def as_rational(self) -> Fraction:
        if self.b:
            raise ExactArithError(f"{self.a} + {self.b}*zeta3 is not rational")
        return self.a


def root_of_unity(order: int, e: int) -> Zeta3Number:
    """zeta_order^e in Q(zeta3), for order 1, 2 or 3."""
    if order not in (1, 2, 3):
        raise ExactArithError(f"roots of unity of order {order} do not lie in Q(zeta3)")
    e %= order
    if order == 3 and e:
        return Zeta3Number(Fraction(0), Fraction(1)) if e == 1 else Zeta3Number(Fraction(-1), Fraction(-1))
    return Zeta3Number(Fraction(-1 if e else 1))


# ---------------------------------------------------------------------------
# The obstruction and the Euler data of a field
# ---------------------------------------------------------------------------


def two_adic_valuation(x: Fraction) -> int:
    """v_2 of a nonzero rational (negative when 2 divides the denominator)."""
    x = as_rational(x)
    if x == 0:
        raise ExactArithError("2-adic valuation of zero is undefined")

    def v2(n: int) -> int:
        n = abs(n)
        return (n & -n).bit_length() - 1

    return v2(x.numerator) - v2(x.denominator)


def odd_part_of_numerator(x: Fraction) -> int:
    """|numerator(x)| with every factor of 2 removed.  Requires x != 0."""
    x = as_rational(x)
    if x == 0:
        raise ExactArithError("odd part of numerator is undefined for zero")
    n = abs(x.numerator)
    return n >> ((n & -n).bit_length() - 1)


def smallest_prime_factor(n: int) -> int:
    """Smallest prime factor of an integer n >= 2, by trial division by 2
    and the odd d <= isqrt(n).

    These are the divisions the certificate verifier makes to check a
    witness, so finding a witness costs no more than checking it.
    """
    if n < 2:
        raise ExactArithError(f"smallest prime factor of {n} is undefined")
    if n % 2 == 0:
        return 2
    return next((d for d in range(3, math.isqrt(n) + 1, 2) if n % d == 0), n)


def smallest_odd_prime_factor(n: int) -> int | None:
    """Smallest prime factor of an odd n > 1; None for n = 1."""
    if n == 1:
        return None
    return smallest_prime_factor(n)


def chi_lambda_from_product(product: Fraction, r: int, degree: int) -> Fraction:
    """|chi(Lambda)| = P / 2^(r degree - 1) for the zeta product P.

    Structurally independent of the discriminant: its power in the
    covolume formula cancels against the functional equation.
    """
    return product / 2 ** (r * degree - 1)


def chi_principal_exact(datum: ArithmeticDatum) -> Fraction:
    """|chi(Lambda)| as an exact rational."""
    product = math.prod(map(abs, zeta_row(datum.field, datum.r)))
    return chi_lambda_from_product(product, datum.r, datum.degree)


def index_divisor(h: int, degree: int) -> int:
    """Upper bound h * 2^degree for the index of Lambda in its normalizer.

    With b bad places the bound is h * 2^degree * 4^b, a power of 2 when
    h = 1, so it moves no odd prime of a witness.
    """
    if h < 1 or degree < 1:
        raise EulerCharError("invalid index-divisor arguments")
    return h * 2**degree


# ---------------------------------------------------------------------------
# Polynomials over Q
# ---------------------------------------------------------------------------

# The three kernels below take coefficients lowest degree first and work on
# whatever exact numbers they are given: on integers they stay integers.


def horner(coeffs: Sequence, x):
    """p(x) by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def taylor_shift(coeffs: Sequence, a) -> list:
    """Coefficients of u -> p(u + a), by repeated synthetic division by
    u - a (Ruffini-Horner) in place on a copy: pass i leaves the i-th
    Taylor coefficient at a in position i."""
    cs = list(coeffs)
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += a * cs[j + 1]
    return cs


def long_division(num: Sequence, den: Sequence) -> tuple[list, list]:
    """Quotient and remainder of num by den (nonzero leading coefficient).

    A monic den keeps integer coefficients integral; any other leading
    coefficient divides as a ``Fraction``."""
    rem = list(num)
    lead, width = den[-1], len(den)
    quot = [0] * max(len(rem) - width + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + width - 1]
        if lead != 1:
            c = Fraction(c, lead)
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                rem[i + j] -= c * d
    return quot, rem


class RatPolynomial(Value):
    """Dense polynomial over Q.  Coefficients lowest degree first, no
    trailing zero; the zero polynomial has an empty coefficient tuple."""

    __slots__ = ("coeffs",)
    _compared = __slots__

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        self.coeffs = coeffs

    @classmethod
    def of(cls, *coeffs: int | Fraction) -> "RatPolynomial":
        return cls.from_seq(coeffs)

    @classmethod
    def from_seq(cls, coeffs: Iterable[int | Fraction]) -> "RatPolynomial":
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: "RatPolynomial") -> "RatPolynomial":
        if self.is_zero() or other.is_zero():
            return RatPolynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPolynomial.from_seq(out)

    def evaluate(self, x: int | Fraction) -> Fraction:
        return as_rational(horner(self.coeffs, as_rational(x)))

    def shift_argument(self, a: int | Fraction) -> "RatPolynomial":
        """The polynomial u -> p(u + a)."""
        return RatPolynomial(tuple(taylor_shift(self.coeffs, as_rational(a))))

    def divmod(self, den: "RatPolynomial") -> tuple["RatPolynomial", "RatPolynomial"]:
        if den.is_zero():
            raise ExactArithError("polynomial division by zero")
        quot, rem = long_division(self.coeffs, den.coeffs)
        return RatPolynomial.from_seq(quot), RatPolynomial.from_seq(rem)

    def has_integer_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)


def poly_exact_divide(num: RatPolynomial, den: RatPolynomial) -> RatPolynomial:
    """Quotient num/den in Q[q]; raises unless the division is exact."""
    q, r = num.divmod(den)
    if not r.is_zero():
        coeffs = ", ".join(map(str, r.coeffs))
        raise ExactArithError(f"nonzero remainder [{coeffs}] in exact polynomial division")
    return q


# ---------------------------------------------------------------------------
# Local factors: the closed forms, their integrality, and Prasad's order formula
# ---------------------------------------------------------------------------


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = smallest_prime_factor(q)
    while q % p == 0:
        q //= p
    return q == 1


def _check_q(q: int) -> None:
    if not is_prime_power(q):
        raise LocalFactorError(f"q must be a prime power >= 2, got {q}")


# Both statements of each factor share one form: q to a power times
# binomials q^e + s over binomials, each binomial an (e, s) pair with
# e >= 1 and s = +-1.  Every denominator is therefore monic.
Binomials = list[tuple[int, int]]


def _binomial_product(factors: Binomials) -> tuple[int, ...]:
    """Coefficients of the product of q^e + s over the (e, s) pairs."""
    out = [1]
    for e, s in factors:
        nxt = [s * c for c in out] + [0] * e
        for k, c in enumerate(out):
            nxt[k + e] += c
        out = nxt
    return tuple(out)


def _closed_form(t: ParahoricType, r: int) -> tuple[Binomials, Binomials]:
    """The factor's numerator and denominator binomials (its power of q is 0)."""
    _check_type(t, r)
    if t.kind is Kind.TORUS_SPLIT:
        return [(2 * r, -1)], [(1, -1)]
    if t.kind is Kind.TORUS_NONSPLIT:
        return [(2 * r, -1)], [(1, 1)]
    if t.kind is Kind.TOP_D:
        return [(r, 1)], []
    if t.kind is Kind.TOP_2D:
        return [(r, -1)], []
    if t.kind is Kind.CHAIN_D:
        return [(t.i, 1)] + [(2 * k, -1) for k in range(t.i + 1, r + 1)], [(2 * k, -1) for k in range(1, r - t.i + 1)]
    return [(t.i + 1, -1)] + [(2 * k, -1) for k in range(t.i + 2, r + 1)], [(2 * k, -1) for k in range(1, r - t.i)]


def integer_exact_divide(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient num/den in Z[q] by ``long_division``, for integer
    coefficient tuples lowest degree first with no trailing zero and a
    monic den, so every step stays in Z.

    Raises LocalFactorError when den is not monic or when the remainder is
    nonzero (the division is inexact).
    """
    if den[-1] != 1:
        raise LocalFactorError(f"leading coefficient {den[-1]} of the divisor is not 1")
    quot, rem = long_division(num, den)
    if any(rem):
        raise LocalFactorError(f"nonzero remainder [{', '.join(map(str, rem))}] in exact division")
    return tuple(quot)


def _quotient(t: ParahoricType, r: int) -> tuple[int, ...]:
    """The factor for type t at rank r as integer coefficients in q."""
    num, den = _closed_form(t, r)
    try:
        return integer_exact_divide(_binomial_product(num), _binomial_product(den))
    except LocalFactorError as exc:
        raise LocalFactorError(f"{t.slug()} at rank {r}: {exc}") from exc


def local_factor_polynomial(t: ParahoricType, r: int) -> RatPolynomial:
    """The factor as a polynomial in q with integer coefficients.

    Raises LocalFactorError when the division is inexact (which would
    break the divisibility argument the certificates rely on); the
    denominator is monic, so an exact quotient is integral.
    """
    return RatPolynomial.from_seq(_quotient(t, r))


class TypeMinimum(NamedTuple):
    type: ParahoricType
    polynomial: tuple[int, ...]  # integer coefficients, lowest degree first
    value_at_two: Fraction


class MinimumProof(NamedTuple):
    entries: tuple[TypeMinimum, ...]
    minimum: Fraction

    def minimum_type(self) -> ParahoricType:
        for e in self.entries:
            if e.value_at_two == self.minimum:
                return e.type
        raise LocalFactorError("empty minimum proof")


def _order(family: str, m: int) -> tuple[int, Binomials]:
    """|B_m|, |D_m| or |2D_m| over F_q (m >= 1) as a power of q and binomials."""
    if family == "B":
        return m * m, [(2 * k, -1) for k in range(1, m + 1)]
    return m * (m - 1), [(m, -1 if family == "D" else 1)] + [(2 * k, -1) for k in range(1, m)]


def _order_formula(t: ParahoricType, r: int) -> tuple[int, Binomials, Binomials]:
    """Prasad's factor |B_r| / (|M| q^((dim B_r - dim M)/2)) for the reductive
    quotient M of type t, as q to a power (possibly negative) times num / den.
    A group of rank m whose order has q to the power N (its number of
    positive roots) has dimension 2N + m."""
    _check_type(t, r)
    power, num = _order("B", r)
    den: Binomials = []
    gap = 2 * power + r
    for fam, m in _quotient_factors(t, r):
        a, binomials = _order(fam, m)
        power -= a
        den += binomials
        gap -= 2 * a + m
    if gap % 2 != 0:
        raise LocalFactorError(f"{t.slug()}: odd dimension gap {gap}")
    return power - gap // 2, num, den


def _cyclotomic(binomials: Binomials) -> Counter[int]:
    """The multiset of n with Phi_n(q) dividing the product of the binomials, by
    q^e - 1 = prod_{n | e} Phi_n(q) and q^e + 1 = prod_{n | 2e, n not | e} Phi_n(q)."""
    return Counter(n for e, s in binomials for n in range(1, 2 * e + 1) if 2 * e % n == 0 and (e % n == 0) == (s < 0))


# ---------------------------------------------------------------------------
# Field table validation: an independent class-number oracle for real
# quadratic fields
# ---------------------------------------------------------------------------


def quadratic_class_number(D: int) -> int:
    """Class number of the real quadratic field of fundamental
    discriminant D, by cycles of reduced forms (Cohen, GTM 138, 5.6).

    A form (a, b, c) with b^2 - 4ac = D is reduced when
    |sqrt(D) - 2|a|| < b < sqrt(D).  The reduction map rho permutes the
    finitely many reduced forms, and its cycles are the narrow classes.
    The narrow class number is h when the principal cycle holds a form
    with a = -1 (the fundamental unit has norm -1) and 2h otherwise.
    """
    if not is_fundamental_discriminant(D):
        raise TableError(f"{D} is not a fundamental discriminant")
    s = math.isqrt(D)
    remaining: set[tuple[int, int, int]] = set()
    for b in range(2 - D % 2, s + 1, 2):
        n = (D - b * b) // 4  # = -ac
        for a in range((s - b) // 2 + 1, (s + b) // 2 + 1):
            if n % a == 0:
                remaining |= {(a, b, -n // a), (-a, b, n // a)}
    b = s - (s - D) % 2
    form, cycles, norm_minus_one = (1, b, (b * b - D) // 4), 0, False  # the principal cycle first
    while remaining:
        cycles += 1
        while form in remaining:
            remaining.remove(form)
            norm_minus_one |= cycles == 1 and form[0] == -1
            _, b, c = form  # form = rho(form), with r = -b mod 2|c| and sqrt(D) - 2|c| < r < sqrt(D)
            r = s - (s + b) % (2 * abs(c))
            form = (c, r, (r * r - D) // (4 * c))
        form = min(remaining, default=None)
    return cycles if norm_minus_one else cycles // 2


class ValidationReport(NamedTuple):
    ok: bool
    issues: list[str]


def validate_table(table: FieldTable) -> ValidationReport:
    """Re-check all dataset invariants, recompute every quadratic class
    number with the independent oracle, and check that the quadratic
    records are exactly the fundamental discriminants up to the degree-2
    completeness bound."""
    issues: list[str] = []
    try:
        _check_record_invariants(table)
    except TableError as exc:
        issues.append(str(exc))
    quadratic = [rec for rec in table.records if rec.degree == 2]
    for rec in quadratic:
        try:
            h = quadratic_class_number(rec.disc)
        except TableError as exc:
            issues.append(f"{rec.label}: class number oracle failed: {exc}")
            continue
        if h != rec.h:
            issues.append(f"{rec.label}: recorded h={rec.h} but oracle computed h={h}")
    bound = table.completeness.get(2, 0)
    expected = {D for D in range(5, bound + 1) if is_fundamental_discriminant(D)}
    recorded = {rec.disc for rec in quadratic if rec.disc <= bound}
    if recorded != expected:
        issues.append(
            f"quadratic records up to the completeness bound {bound}: missing "
            f"{sorted(expected - recorded)}, unexpected {sorted(recorded - expected)}"
        )
    return ValidationReport(ok=not issues, issues=issues)


# ---------------------------------------------------------------------------
# Rank two
# ---------------------------------------------------------------------------


def _scan_rank_two(table: FieldTable) -> CertificateSection:
    """Rank 2 (n = 4) is always inconclusive: no local-factor integrality
    proof exists below rank 3 (``minimum_proof(2)`` raises).  The scan
    walks the h = 1 fields under the first-pass cutoffs, as far as the
    table is complete, and stops at the first field whose zeta product has
    trivial odd numerator, where the argument has no purchase at all.
    """

    def h_one_fields():
        for d in SEARCH_DEGREES:
            cutoff = search_bounds.compute_bounds_pass(2, d, BoundsMode.CLASS_NUMBER_BOUNDED).disc_upper
            reach = min(cutoff, table.completeness.get(d, 0))
            yield from (rec for rec in field_tables.query(table, d, reach) if rec.h == 1)

    verdicts: list[FieldVerdict] = []
    notes = ("no local-factor integrality proof exists below rank 3",)
    for rec in h_one_fields():
        v = search_bounds.field_verdict(rec, 2)
        verdicts.append(v)
        if not v.obstruction.obstructed:
            notes = (
                f"{rec.label}: zeta product {v.obstruction.product} has trivial odd "
                "numerator, no odd-prime witness exists",
            )
            break
    return CertificateSection(
        r=2, kind="failure-demo", verdict=VERDICT_INCONCLUSIVE, verdicts=tuple(verdicts), notes=notes
    )
