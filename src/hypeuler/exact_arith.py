"""Exact arithmetic foundations.

Scalar values are arbitrary-precision rationals (`fractions.Fraction`),
and polynomial and cyclotomic arithmetic is carried out over the
rationals with canonical reduction, all exactly.  Intervals are pairs of
rationals that provably enclose the real number they stand for; an
interval built from rationals stays exact, while the enclosures of
transcendental quantities carry a working precision and every result
computed from them is rounded outward to dyadic endpoints at that
precision (see `RationalInterval`).  No floating point enters any
computation.

All values are immutable after construction and all operations are pure,
so everything here is safe to use concurrently.  The Bernoulli cache only
ever grows and is guarded by the GIL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

Rational = Fraction


class ExactArithError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class ExactDivisionError(ExactArithError):
    """Polynomial division left a nonzero remainder."""


class CyclotomicOrderError(ExactArithError):
    """Operands live in cyclotomic fields of different orders."""


def as_rational(x: int | Fraction) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def format_rational(x: Fraction) -> str:
    """Serialize a rational as ``num/den`` (``den`` omitted when 1)."""
    x = as_rational(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


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


_TRIAL_DIVISION_LIMIT = 1 << 16


def smallest_prime_factor(n: int) -> int:
    """Smallest prime factor of an integer n >= 2.

    Trial division by the odd numbers below ``_TRIAL_DIVISION_LIMIT``
    settles every n with a prime factor there and every n below 65535^2;
    only the rest goes to sympy, imported here so that no other run pays
    for it.
    """
    if n < 2:
        raise ExactArithError(f"smallest prime factor of {n} is undefined")
    if n % 2 == 0:
        return 2
    for d in range(3, _TRIAL_DIVISION_LIMIT + 1, 2):
        if d * d > n:
            return n
        if n % d == 0:
            return d
    from sympy import factorint

    return min(factorint(n))


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials
# ---------------------------------------------------------------------------

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli_number(n: int) -> Fraction:
    """B_n with the convention B_1 = -1/2.

    Computed from the defining recurrence
    sum_{k=0}^{n} C(n+1, k) B_k = 0 (n >= 1), memoized.
    """
    if n < 0:
        raise ExactArithError("Bernoulli index must be nonnegative")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        s = sum(Fraction(math.comb(m + 1, k)) * _BERNOULLI[k] for k in range(m))
        _BERNOULLI.append(-s / (m + 1))
    return _BERNOULLI[n]


def bernoulli_polynomial_eval(n: int, x: int | Fraction) -> Fraction:
    """B_n(x) = sum_{k=0}^{n} C(n, k) B_k x^{n-k}, exact."""
    if n < 0:
        raise ExactArithError("Bernoulli index must be nonnegative")
    x = as_rational(x)
    return sum(
        (Fraction(math.comb(n, k)) * bernoulli_number(k) * x ** (n - k) for k in range(n + 1)),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# Polynomials over Q
# ---------------------------------------------------------------------------

# The two kernels below take coefficients lowest degree first and work on
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


@dataclass(frozen=True)
class RatPolynomial:
    """Dense polynomial over Q.  Coefficients lowest degree first, no
    trailing zero; the zero polynomial has an empty coefficient tuple."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, *coeffs: int | Fraction) -> "RatPolynomial":
        return cls.from_seq(coeffs)

    @classmethod
    def from_seq(cls, coeffs: Iterable[int | Fraction]) -> "RatPolynomial":
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def zero(cls) -> "RatPolynomial":
        return cls(())

    @classmethod
    def monomial(cls, degree: int, coeff: int | Fraction = 1) -> "RatPolynomial":
        return cls.from_seq([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "RatPolynomial") -> "RatPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return RatPolynomial.from_seq(a)

    def __neg__(self) -> "RatPolynomial":
        return RatPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPolynomial") -> "RatPolynomial":
        return self + (-other)

    def __mul__(self, other: "RatPolynomial") -> "RatPolynomial":
        if self.is_zero() or other.is_zero():
            return RatPolynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPolynomial.from_seq(out)

    def scale(self, c: int | Fraction) -> "RatPolynomial":
        c = as_rational(c)
        return RatPolynomial.from_seq(a * c for a in self.coeffs)

    def evaluate(self, x: int | Fraction) -> Fraction:
        return as_rational(horner(self.coeffs, as_rational(x)))

    def shift_argument(self, a: int | Fraction) -> "RatPolynomial":
        """The polynomial u -> p(u + a)."""
        return RatPolynomial(tuple(taylor_shift(self.coeffs, as_rational(a))))

    def divmod(self, den: "RatPolynomial") -> tuple["RatPolynomial", "RatPolynomial"]:
        if den.is_zero():
            raise ExactArithError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = den.coeffs
        lead = dn[-1]
        qdeg = len(rem) - len(dn)
        if qdeg < 0:
            return RatPolynomial.zero(), self
        quot = [Fraction(0)] * (qdeg + 1)
        for i in range(qdeg, -1, -1):
            c = rem[i + len(dn) - 1] / lead
            quot[i] = c
            if c != 0:
                for j, d in enumerate(dn):
                    rem[i + j] -= c * d
        return RatPolynomial.from_seq(quot), RatPolynomial.from_seq(rem)

    def has_integer_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "1" if i == 0 else ("q" if i == 1 else f"q^{i}")
            if i > 0 and abs(c) == 1:
                parts.append(mono if c > 0 else f"-{mono}")
            elif i == 0:
                parts.append(format_rational(c))
            else:
                parts.append(f"{format_rational(c)}*{mono}")
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


def poly_exact_divide(num: RatPolynomial, den: RatPolynomial) -> RatPolynomial:
    """Quotient num/den in Q[q]; raises unless the division is exact."""
    q, r = num.divmod(den)
    if not r.is_zero():
        raise ExactDivisionError(f"nonzero remainder {r} in exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> RatPolynomial:
    """The m-th cyclotomic polynomial, via (x^m - 1) / prod_{d|m, d<m} Phi_d."""
    if m < 1:
        raise ExactArithError("cyclotomic order must be positive")
    num = RatPolynomial.from_seq([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            num = poly_exact_divide(num, cyclotomic_polynomial(d))
    return num


def _totient(m: int) -> int:
    return sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)


# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------

MAX_CYCLOTOMIC_ORDER = 16


@dataclass(frozen=True)
class CyclotomicNumber:
    """Element of Q(zeta_m) in the power basis 1, z, ..., z^{phi(m)-1},
    canonically reduced modulo the m-th cyclotomic polynomial."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not (1 <= self.order <= MAX_CYCLOTOMIC_ORDER):
            raise CyclotomicOrderError(f"cyclotomic order {self.order} unsupported (max {MAX_CYCLOTOMIC_ORDER})")
        if len(self.coeffs) != _totient(self.order):
            raise ExactArithError("coefficient vector has wrong length for this order")

    @classmethod
    def _reduced(cls, m: int, raw: Sequence[Fraction]) -> "CyclotomicNumber":
        _, rem = RatPolynomial.from_seq(raw).divmod(cyclotomic_polynomial(m))
        phi = _totient(m)
        cs = list(rem.coeffs) + [Fraction(0)] * (phi - len(rem.coeffs))
        return cls(m, tuple(cs))

    @classmethod
    def from_rational(cls, m: int, x: int | Fraction) -> "CyclotomicNumber":
        phi = _totient(m)
        return cls(m, (as_rational(x),) + (Fraction(0),) * (phi - 1))

    @classmethod
    def root_of_unity(cls, m: int, power: int = 1) -> "CyclotomicNumber":
        """zeta_m^power."""
        power %= m
        return cls._reduced(m, [Fraction(0)] * power + [Fraction(1)])

    def _check_order(self, other: "CyclotomicNumber") -> None:
        if self.order != other.order:
            raise CyclotomicOrderError(f"incompatible cyclotomic orders {self.order} and {other.order}")

    def __add__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        self._check_order(other)
        return CyclotomicNumber(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        self._check_order(other)
        return CyclotomicNumber(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.order, tuple(-a for a in self.coeffs))

    def scale(self, c: int | Fraction) -> "CyclotomicNumber":
        c = as_rational(c)
        return CyclotomicNumber(self.order, tuple(a * c for a in self.coeffs))

    def __mul__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        self._check_order(other)
        prod = RatPolynomial(self.coeffs if any(self.coeffs) else ()) * RatPolynomial(
            other.coeffs if any(other.coeffs) else ()
        )
        return CyclotomicNumber._reduced(self.order, prod.coeffs)

    def galois_image(self, t: int) -> "CyclotomicNumber":
        """Image under zeta -> zeta^t (t coprime to the order)."""
        m = self.order
        if math.gcd(t, m) != 1:
            raise ExactArithError("Galois exponent must be coprime to the order")
        raw = [Fraction(0)] * m
        for i, c in enumerate(self.coeffs):
            raw[(i * t) % m] += c
        return CyclotomicNumber._reduced(m, raw)

    def conjugates(self) -> list["CyclotomicNumber"]:
        """The full Galois orbit (including the element itself)."""
        return [self.galois_image(t) for t in range(1, self.order + 1) if math.gcd(t, self.order) == 1]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ExactArithError(f"cyclotomic number {self.coeffs} is not rational")
        return self.coeffs[0]


# ---------------------------------------------------------------------------
# Rational intervals
# ---------------------------------------------------------------------------


def _int_nthroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, k >= 1, by Newton iteration on integers."""
    if n < 0:
        raise ExactArithError("integer root of a negative number")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def _scaled_root(x: Fraction, n: int, bits: int) -> int:
    """floor(x^(1/n) * 2^bits) for x >= 0."""
    return _int_nthroot((x.numerator << (bits * n)) // x.denominator, n)


def _join(p: int | None, q: int | None) -> int | None:
    """Working precision of a result: an exact operand (None) takes on the
    other's precision, two rounded operands the larger one."""
    if p is None:
        return q
    if q is None:
        return p
    return max(p, q)


def _rounded(lo: Fraction, hi: Fraction, prec: int | None) -> "RationalInterval":
    """[lo, hi] rounded outward to ``prec`` significant bits (kept exact when
    ``prec`` is None)."""
    if prec is None:
        return RationalInterval(lo, hi)
    return RationalInterval(dyadic_round_down(lo, prec), dyadic_round_up(hi, prec), prec)


def _pow_rounded(x: Fraction, k: int, prec: int | None, up: bool) -> Fraction:
    """A bound on x**k (k >= 1) from above (``up``) or below.

    Square-and-multiply on |x|: every intermediate product of nonnegative
    numbers is rounded in one direction to ``prec`` significant bits, which
    bounds |x|**k from that side; an odd power of a negative x flips it.
    """
    if prec is None:
        return x**k
    negative = x < 0 and k % 2 == 1
    rnd = dyadic_round_up if up != negative else dyadic_round_down
    base, acc = abs(x), Fraction(1)
    while True:
        if k & 1:
            acc = rnd(acc * base, prec)
        k >>= 1
        if not k:
            break
        base = rnd(base * base, prec)
    return -acc if negative else acc


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with rational endpoints that encloses the
    real number it stands for.

    An interval is either exact (``prec`` None: built from rationals, and
    its arithmetic is exact) or carries a working precision ``prec`` in
    significant bits.  Every result with a rounded operand is rounded
    outward to dyadic endpoints at the larger working precision of its
    operands, so endpoint sizes stay bounded while every result still
    encloses the exact one; an exact interval stays exact until it meets a
    rounded one.  Precision enters through ``outward_round``, ``nth_root``
    and the enclosures of transcendental quantities (pi, Hurwitz zeta),
    each at the precision its caller asks for.
    """

    lo: Fraction
    hi: Fraction
    prec: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ExactArithError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @classmethod
    def exact(cls, x: int | Fraction) -> "RationalInterval":
        x = as_rational(x)
        return cls(x, x)

    @classmethod
    def of(cls, lo: int | Fraction, hi: int | Fraction) -> "RationalInterval":
        return cls(as_rational(lo), as_rational(hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x: int | Fraction) -> bool:
        x = as_rational(x)
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "RationalInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_greater_than(self, c: int | Fraction) -> bool:
        return self.lo > as_rational(c)

    def strictly_less_than(self, c: int | Fraction) -> bool:
        return self.hi < as_rational(c)

    def __add__(self, other: "RationalInterval") -> "RationalInterval":
        return _rounded(self.lo + other.lo, self.hi + other.hi, _join(self.prec, other.prec))

    def __sub__(self, other: "RationalInterval") -> "RationalInterval":
        return _rounded(self.lo - other.hi, self.hi - other.lo, _join(self.prec, other.prec))

    def __neg__(self) -> "RationalInterval":
        return RationalInterval(-self.hi, -self.lo, self.prec)

    def __mul__(self, other: "RationalInterval") -> "RationalInterval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return _rounded(min(products), max(products), _join(self.prec, other.prec))

    def scale(self, c: int | Fraction) -> "RationalInterval":
        c = as_rational(c)
        if c >= 0:
            return _rounded(self.lo * c, self.hi * c, self.prec)
        return _rounded(self.hi * c, self.lo * c, self.prec)

    def reciprocal(self) -> "RationalInterval":
        if self.lo <= 0 <= self.hi:
            raise ExactArithError("reciprocal of an interval containing zero")
        return _rounded(1 / self.hi, 1 / self.lo, self.prec)

    def __truediv__(self, other: "RationalInterval") -> "RationalInterval":
        return self * other.reciprocal()

    def pow_int(self, k: int) -> "RationalInterval":
        if k < 0:
            return self.reciprocal().pow_int(-k)
        if k == 0:
            return RationalInterval.exact(1)
        lo, hi, p = self.lo, self.hi, self.prec
        if k % 2 == 1 or lo >= 0:
            return RationalInterval(_pow_rounded(lo, k, p, False), _pow_rounded(hi, k, p, True), p)
        if hi <= 0:
            return RationalInterval(_pow_rounded(hi, k, p, False), _pow_rounded(lo, k, p, True), p)
        # even power of an interval straddling zero
        return RationalInterval(Fraction(0), max(_pow_rounded(lo, k, p, True), _pow_rounded(hi, k, p, True)), p)

    def nth_root(self, n: int, bits: int = 64) -> "RationalInterval":
        """Enclosure of the n-th root (requires lo >= 0).

        Endpoints come from scaled integer roots: the returned bounds
        satisfy lo'^n <= lo and hi'^n >= hi, and are dyadic with
        denominator 2^bits, so |hi'-lo'| is controlled by ``bits`` binary
        digits.  The result carries working precision ``bits`` or the
        operand's, whichever is larger.
        """
        if self.lo < 0:
            raise ExactArithError("n-th root of an interval with negative lower end")
        scale = 1 << bits
        return RationalInterval(
            Fraction(_scaled_root(self.lo, n, bits), scale),
            Fraction(_scaled_root(self.hi, n, bits) + 1, scale),
            _join(self.prec, bits),
        )

    def sqrt(self, bits: int = 64) -> "RationalInterval":
        return self.nth_root(2, bits)

    def as_strings(self) -> tuple[str, str]:
        return format_rational(self.lo), format_rational(self.hi)

    def outward_round(self, sig_bits: int = 128) -> "RationalInterval":
        """Widen to dyadic endpoints with about ``sig_bits`` significant
        bits; the result still encloses the original interval and carries
        ``sig_bits`` as its working precision."""
        return _rounded(self.lo, self.hi, sig_bits)


def _dyadic_shift(x: Fraction, sig_bits: int) -> int:
    if x == 0:
        return 0
    magnitude = abs(x)
    exponent = magnitude.numerator.bit_length() - magnitude.denominator.bit_length()
    return sig_bits - exponent


def dyadic_round_down(x: Fraction, sig_bits: int = 128) -> Fraction:
    """Largest dyadic rational with ~sig_bits significant bits that is <= x."""
    x = as_rational(x)
    n, d = x.numerator, x.denominator
    shift = _dyadic_shift(x, sig_bits)
    if shift >= 0:
        return Fraction((n << shift) // d, 1 << shift)
    return Fraction((n // (d << -shift)) << -shift)


def dyadic_round_up(x: Fraction, sig_bits: int = 128) -> Fraction:
    """Smallest dyadic rational with ~sig_bits significant bits that is >= x."""
    x = as_rational(x)
    n, d = x.numerator, x.denominator
    shift = _dyadic_shift(x, sig_bits)
    if shift >= 0:
        return Fraction(-((-n << shift) // d), 1 << shift)
    return Fraction(-((-n) // (d << -shift)) << -shift)


def rational_power_half(x: int | Fraction, twice_exponent: int, bits: int = 96) -> RationalInterval:
    """Enclosure of x^(twice_exponent/2) for x > 0.

    Integer exponents stay exact; genuine half-integer powers go through a
    square-root enclosure of x^twice_exponent.
    """
    x = as_rational(x)
    if x <= 0:
        raise ExactArithError("half-integer power requires a positive base")
    if twice_exponent % 2 == 0:
        return RationalInterval.exact(x ** (twice_exponent // 2))
    return RationalInterval.exact(x**twice_exponent).sqrt(bits)


# ---------------------------------------------------------------------------
# Enclosure of pi
# ---------------------------------------------------------------------------


def _arctan_inv_enclosure(x: int, terms: int) -> RationalInterval:
    """Enclosure of arctan(1/x) from the alternating series; consecutive
    partial sums bracket the limit."""
    s = Fraction(0)
    prev = None
    sign = 1
    for k in range(terms + 1):
        prev = s
        s += Fraction(sign, (2 * k + 1) * x ** (2 * k + 1))
        sign = -sign
    return RationalInterval(min(prev, s), max(prev, s))


@lru_cache(maxsize=8)
def _pi_enclosure_bits(bits: int) -> RationalInterval:
    # Machin: pi = 16 arctan(1/5) - 4 arctan(1/239).
    # Each extra arctan(1/5) term gains log2(25) = 4.64 bits.
    terms = max(4, int(bits / 4.6) + 4)
    a5 = _arctan_inv_enclosure(5, terms)
    a239 = _arctan_inv_enclosure(239, max(4, terms // 2))
    # 32 guard bits: the rounding widens each end by under 2^-(bits+29).
    return (a5.scale(16) - a239.scale(4)).outward_round(bits + 32)


def pi_enclosure(bits: int = 160) -> RationalInterval:
    """Rigorous enclosure of pi of width below 2^-(bits-4), bits rounded
    up to a multiple of 32.  The enclosure is cached per precision tier
    and carries working precision bits + 32, so every interval computed
    from it is rounded at that precision.
    """
    bits = ((bits + 31) // 32) * 32  # quantize for cache reuse
    enc = _pi_enclosure_bits(bits)
    if enc.width >= Fraction(1, 2 ** (bits - 4)):
        raise ExactArithError(f"pi enclosure at {bits} bits is not narrower than 2^-{bits - 4}")
    return enc
