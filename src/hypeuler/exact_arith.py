"""Exact arithmetic foundations.

Scalar values are arbitrary-precision rationals (`fractions.Fraction`),
polynomials have rational coefficients, and the values of Dirichlet
characters of order at most 3 live in Q(zeta3) (`Zeta3Number`), all
exact.  Intervals are pairs of rationals that provably enclose the real
number they stand for; an interval built from rationals stays exact,
while the enclosures of transcendental quantities carry a working
precision and every result computed from them is rounded outward to
dyadic endpoints at that precision (see `RationalInterval`; one
`dyadic_round` takes either direction).  No floating point enters any
computation.

All values are immutable after construction and all operations are pure,
so everything here is safe to use concurrently.  The Bernoulli cache only
ever grows and is guarded by the GIL.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence


class ExactArithError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class ExactDivisionError(ExactArithError):
    """Polynomial division left a nonzero remainder."""


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


class Value:
    """Base of the immutable slotted value types: equality and hashing
    compare the attributes named in ``_compared``, and the repr lists the
    public slots."""

    __slots__ = ()
    _compared: tuple[str, ...]  # set by every subclass

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if not name.startswith("_"))
        return f"{type(self).__name__}({', '.join(fields)})"


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials
# ---------------------------------------------------------------------------

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli_number(n: int) -> Fraction:
    """B_n with the convention B_1 = -1/2.

    Computed from the defining recurrence
    sum_{k=0}^{n} C(n+1, k) B_k = 0 (n >= 1), memoized.  B_k vanishes at
    every odd k >= 3, so those entries are stored without a sum and the
    sum runs over k = 0, 1 and the even k only.
    """
    if n < 0:
        raise ExactArithError("Bernoulli index must be nonnegative")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        if m > 1 and m % 2:
            _BERNOULLI.append(Fraction(0))
            continue
        s = sum(math.comb(m + 1, k) * _BERNOULLI[k] for k in (0, 1, *range(2, m, 2)) if k < m)
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
        raise ExactDivisionError(f"nonzero remainder [{coeffs}] in exact polynomial division")
    return q


# ---------------------------------------------------------------------------
# The field Q(zeta3)
# ---------------------------------------------------------------------------


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
    return RationalInterval(dyadic_round(lo, prec, up=False), dyadic_round(hi, prec, up=True), prec)


def _pow_rounded(x: Fraction, k: int, prec: int | None, up: bool) -> Fraction:
    """A bound on x**k (k >= 0) from above (``up``) or below.

    Square-and-multiply on |x|: every intermediate product of nonnegative
    numbers is rounded in one direction to ``prec`` significant bits, which
    bounds |x|**k from that side; an odd power of a negative x flips it.
    """
    if prec is None:
        return x**k
    negative = x < 0 and k % 2 == 1
    up = up != negative
    base, acc = abs(x), Fraction(1)
    while True:
        if k & 1:
            acc = dyadic_round(acc * base, prec, up)
        k >>= 1
        if not k:
            break
        base = dyadic_round(base * base, prec, up)
    return -acc if negative else acc


class RationalInterval(Value):
    """Closed interval [lo, hi] with rational endpoints that encloses the
    real number it stands for.

    An interval is either exact (``prec`` None: built from rationals, and
    its arithmetic is exact) or carries a working precision ``prec`` in
    significant bits.  Every result with a rounded operand is rounded
    outward to dyadic endpoints at the larger working precision of its
    operands, so endpoint sizes stay bounded while every result still
    encloses the exact one; an exact interval stays exact until it meets a
    rounded one.  Precision enters through ``outward_round``, ``sqrt``
    and the enclosures of transcendental quantities (pi, Hurwitz zeta),
    each at the precision its caller asks for.  Equality and hashing
    compare the endpoints only, not ``prec``.
    """

    __slots__ = ("lo", "hi", "prec")
    _compared = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction, prec: int | None = None) -> None:
        if lo > hi:
            raise ExactArithError(f"interval endpoints out of order: {lo} > {hi}")
        self.lo, self.hi, self.prec = lo, hi, prec

    @classmethod
    def exact(cls, x: int | Fraction) -> "RationalInterval":
        x = as_rational(x)
        return cls(x, x)

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
        """Enclosure of the k-th power, k >= 0."""
        if k < 0:
            raise ExactArithError(f"negative interval exponent {k}")
        lo, hi, p = self.lo, self.hi, self.prec
        if k % 2 == 1 or lo >= 0:
            return RationalInterval(_pow_rounded(lo, k, p, False), _pow_rounded(hi, k, p, True), p)
        if hi <= 0:
            return RationalInterval(_pow_rounded(hi, k, p, False), _pow_rounded(lo, k, p, True), p)
        # even power of an interval straddling zero
        return RationalInterval(Fraction(0), max(_pow_rounded(lo, k, p, True), _pow_rounded(hi, k, p, True)), p)

    def sqrt(self, bits: int) -> "RationalInterval":
        """Enclosure of the square root (requires lo >= 0): dyadic ends
        isqrt(x 4^bits) / 2^bits at x = lo and one unit more at x = hi, at
        working precision ``bits`` or the operand's, whichever is larger."""
        if self.lo < 0:
            raise ExactArithError("square root of an interval with negative lower end")
        lo, hi = (math.isqrt((x.numerator << 2 * bits) // x.denominator) for x in (self.lo, self.hi))
        return RationalInterval(Fraction(lo, 1 << bits), Fraction(hi + 1, 1 << bits), _join(self.prec, bits))

    def outward_round(self, sig_bits: int) -> "RationalInterval":
        """Widen to dyadic endpoints with about ``sig_bits`` significant
        bits; the result still encloses the original interval and carries
        ``sig_bits`` as its working precision."""
        return _rounded(self.lo, self.hi, sig_bits)


def dyadic_round(x: Fraction, sig_bits: int, up: bool) -> Fraction:
    """The dyadic rational with ~sig_bits significant bits nearest to x
    from above (``up``) or below: the floor of x, or minus the floor of
    -x, at the dyadic scale that leaves sig_bits bits."""
    x = as_rational(x)
    n, d = (-x.numerator if up else x.numerator), x.denominator
    shift = sig_bits - (abs(n).bit_length() - d.bit_length())
    floor = Fraction((n << shift) // d, 1 << shift) if shift >= 0 else Fraction((n // (d << -shift)) << -shift)
    return -floor if up else floor


def rational_power_half(x: int | Fraction, twice_exponent: int, bits: int) -> RationalInterval:
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


def pi_enclosure(bits: int) -> RationalInterval:
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
