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
``.calibrate_oracle``) import it when first called, so a bound-only
process never compiles it.  The code that no rank >= 3 runs (the polynomial
class, the exact |chi(Lambda)|, the table validation and the rank-2 scan)
is in ``offline``, which imports this module.

The acceptance suite reads some of these names from their old modules,
which serve them from here (see ``exact_arith.field_path_getattr``).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cache

from .characters_zeta import CharacterError
from .euler_char import EulerCharError
from .exact_arith import ExactArithError, Value, as_rational
from .field_tables import NumberFieldRecord, is_fundamental_discriminant
from .local_factors import Kind, LocalFactorError, ParahoricType, _check_type, _quotient_factors


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


@cache
def characters_for_field(rec: NumberFieldRecord) -> tuple[DirichletCharacter, ...]:
    """One character per factor of zeta_k for an abelian totally real
    field: the trivial character first, then the real character of a
    quadratic field or one cubic character chi of a cyclic cubic field,
    which stands for the pair chi, chibar.  Memoized, as a tuple no caller can
    change: 7 builds for 25 and 24 calls on the sweep and the headline."""
    if not rec.abelian:
        raise CharacterError(f"{rec.label}: field is not abelian, no character decomposition")
    if rec.degree == 2:
        return trivial_character(), kronecker_character(rec.disc)
    if rec.degree == 3:
        g, e, order = rec.char_gen
        chi = character_from_generator(rec.conductor, g, e, order)
        if not chi.is_even():
            raise CharacterError(f"{rec.label}: character is odd, field cannot be totally real")
        return trivial_character(), chi
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

    def __init__(self, a: int | Fraction, b: int | Fraction = 0) -> None:
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
        return Zeta3Number(0, 1) if e == 1 else Zeta3Number(-1, -1)
    return Zeta3Number(-1 if e else 1)


# ---------------------------------------------------------------------------
# The obstruction and the Euler data of a field
# ---------------------------------------------------------------------------


def two_adic_valuation(x: Fraction) -> int:
    """v_2 of a nonzero rational (negative when 2 divides the denominator)."""
    x = as_rational(x)
    if x == 0:
        raise ExactArithError("2-adic valuation of zero is undefined")
    n, d = abs(x.numerator), x.denominator
    return (n & -n).bit_length() - (d & -d).bit_length()


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
    return None if n == 1 else smallest_prime_factor(n)


def chi_lambda_from_product(product: Fraction, r: int, degree: int) -> Fraction:
    """|chi(Lambda)| = P / 2^(r degree - 1) for the zeta product P.

    Structurally independent of the discriminant: its power in the
    covolume formula cancels against the functional equation.
    """
    return product / 2 ** (r * degree - 1)


def index_divisor(h: int, degree: int) -> int:
    """Upper bound h * 2^degree for the index of Lambda in its normalizer.

    With b bad places the bound is h * 2^degree * 4^b, a power of 2 when
    h = 1, so it moves no odd prime of a witness.
    """
    if h < 1 or degree < 1:
        raise EulerCharError("invalid index-divisor arguments")
    return h * 2**degree


# ---------------------------------------------------------------------------
# Polynomial kernels
# ---------------------------------------------------------------------------

# The two kernels below take coefficients lowest degree first and work on
# whatever exact numbers they are given: on integers they stay integers.


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


TypeMinimum = namedtuple("TypeMinimum", "type polynomial value_at_two")  # polynomial: integer coefficients, lowest first


class MinimumProof(namedtuple("MinimumProof", "entries minimum")):
    __slots__ = ()

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
