"""Exact arithmetic foundations.

Scalar values are arbitrary-precision rationals (`fractions.Fraction`).
Intervals are pairs of rationals that provably enclose the real
number they stand for; an interval built from rationals stays exact,
while the enclosures of transcendental quantities carry a working
precision and every result computed from them is rounded outward to
dyadic endpoints at that precision, integer mantissas at a power-of-two
scale (see `RationalInterval`; one `dyadic_round` takes either direction
and fixes the ends).  No floating point enters any computation.  The
exact kernels that only a field verdict needs (Bernoulli numbers, Q(zeta3),
the 2-adic and odd-prime helpers) are in ``field_path``, and the polynomials
over Q, which none needs, in ``offline``.

All values are immutable after construction and all operations are pure,
so everything here is safe to use concurrently.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache


class ExactArithError(Exception):
    """An error raised by the exact-arithmetic layer."""


def as_rational(x: int | Fraction) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def format_rational(x: Fraction) -> str:
    """Serialize a rational as ``num/den`` (``den`` omitted when 1)."""
    x = as_rational(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def field_path_getattr(module: str, homes: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) that serves each name of ``homes``,
    which moved out of ``module``, from the module it maps the name to
    (``field_path`` or ``offline``): reading one imports that module, and both
    modules then give the same object."""

    def __getattr__(name: str):
        if name in homes:
            from importlib import import_module

            return getattr(import_module(f"{__package__}.{homes[name]}"), name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return __getattr__


__getattr__ = field_path_getattr(
    __name__, {"RatPolynomial": "offline", "bernoulli_number": "field_path", "poly_exact_divide": "offline"}
)


class Value:
    """Base of the immutable slotted value types: equality and hashing
    compare the attributes named in ``_compared``, and the repr lists them
    and the other public slots."""

    __slots__ = ()
    _compared: tuple[str, ...]  # set by every subclass

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        names = dict.fromkeys((*self._compared, *self.__slots__))
        fields = (f"{name}={getattr(self, name)!r}" for name in names if not name.startswith("_"))
        return f"{type(self).__name__}({', '.join(fields)})"


# ---------------------------------------------------------------------------
# Rational intervals
# ---------------------------------------------------------------------------


def _int_nthroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, k >= 1, by Newton iteration on integers.

    The loop exits exactly at the floor root m = floor(n^(1/k)).  The start
    value 1 << ceil(bits/k) is at least n^(1/k), so it is >= m.  For
    x >= 1, the step y = floor(((k-1)x + floor(n/x^(k-1)))/k) equals
    floor(((k-1)x + n/x^(k-1))/k), and by AM-GM that mean of k - 1 copies
    of x and one of n/x^(k-1) is at least n^(1/k), so y >= m: no iterate
    falls below m.  For x > m, x^k > n, so n/x^(k-1) < x and y < x: the
    loop steps on.  Hence it stops at the first x with y >= x, which is m.
    """
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
    return x


def _round_mantissa(m: int, e: int, sig_bits: int, up: bool) -> tuple[int, int]:
    """``dyadic_round(m 2^e, sig_bits, up)`` as a mantissa and exponent: its
    grid 2^(E - sig_bits), E = bitlen(num) - bitlen(den) of the reduced m 2^e,
    is 2^(e + drop) with drop = bitlen(|m|) - sig_bits - 1, whatever power of
    2 divides m.  m 2^e is on it when drop <= 0; else m >> drop floors it (to
    at most m 2^e) and -(-m >> drop) ceils it (to at least m 2^e)."""
    drop = m.bit_length() - sig_bits - 1
    if drop <= 0:
        return m, e
    return (-(-m >> drop) if up else m >> drop), e + drop


def _pow_mantissa(m: int, e: int, k: int, prec: int, up: bool) -> tuple[int, int]:
    """A bound on (m 2^e)^k (k >= 0) from above (``up``) or below, as a
    mantissa and exponent: square-and-multiply on |m|, every intermediate
    product of nonnegative numbers rounded in that one direction to ``prec``
    bits, which bounds |m 2^e|^k from that side; an odd power of a negative
    m flips it."""
    negative = m < 0 and k % 2 == 1
    up = up != negative
    base, base_e, acc, acc_e = abs(m), e, 1, 0
    while True:
        if k & 1:
            acc, acc_e = _round_mantissa(acc * base, acc_e + base_e, prec, up)
        k >>= 1
        if not k:
            break
        base, base_e = _round_mantissa(base * base, 2 * base_e, prec, up)
    return (-acc if negative else acc), acc_e


def _outward(lo: int, lo_e: int, hi: int, hi_e: int, prec: int) -> "RationalInterval":
    """[lo 2^lo_e, hi 2^hi_e] rounded outward (lo down, hi up) to ``prec``
    bits, so it encloses, at the finer scale (a zero end takes the other's)."""
    (lo, lo_e), (hi, hi_e) = _round_mantissa(lo, lo_e, prec, False), _round_mantissa(hi, hi_e, prec, True)
    e = min(lo_e if lo else hi_e, hi_e if hi else lo_e)
    return RationalInterval(lo << lo_e - e if lo else 0, hi << hi_e - e if hi else 0, prec, e)


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
    each at the precision its caller asks for.

    Exact ends are ``Fraction``s.  Rounded ends are integer mantissas at one
    power-of-two scale, lo 2^e and hi 2^e (``e`` given, or from dyadic
    ``Fraction`` ends), so rounded arithmetic is integer multiplies, shifts
    and ``isqrt`` landing on exactly the ends ``dyadic_round`` gives; ``lo``,
    ``hi`` and ``width`` are ``Fraction``s built on demand.  Equality and
    hashing compare the endpoint values only.
    """

    __slots__ = ("_lo", "_hi", "prec", "_e")
    _compared = ("lo", "hi")

    def __init__(self, lo: int | Fraction, hi: int | Fraction, prec: int | None = None, e: int | None = None) -> None:
        if lo > hi:
            raise ExactArithError(f"interval endpoints out of order: {lo} > {hi}")
        self._lo, self._hi, self.prec, self._e = lo, hi, prec, e
        if e is None and prec is not None and (ends := self.dyadic_ends()) is not None:
            self._lo, self._hi, self._e = ends

    @classmethod
    def exact(cls, x: int | Fraction) -> "RationalInterval":
        x = as_rational(x)
        return cls(x, x)

    def dyadic_ends(self, prec: int | None = None) -> tuple[int, int, int] | None:
        """The ends as integer mantissas (lo, hi, e) at one scale 2^e.  An end
        that is not dyadic is first rounded outward to ``prec`` bits by
        ``dyadic_round``; with no ``prec``, such an interval gives None."""
        if self._e is not None:
            return self._lo, self._hi, self._e
        lo, hi = self._lo, self._hi
        if lo.denominator & (lo.denominator - 1) or hi.denominator & (hi.denominator - 1):
            if prec is None:
                return None
            lo, hi = dyadic_round(lo, prec, False), dyadic_round(hi, prec, True)
        k = max(lo.denominator, hi.denominator).bit_length() - 1
        return (lo.numerator << k) // lo.denominator, (hi.numerator << k) // hi.denominator, -k

    def _value(self, m: int | Fraction) -> Fraction:
        e = self._e
        return m if e is None else Fraction(m << max(e, 0), 1 << max(-e, 0))

    lo = property(lambda self: self._value(self._lo))
    hi = property(lambda self: self._value(self._hi))
    width = property(lambda self: self._value(self._hi - self._lo))

    def __contains__(self, x: int | Fraction) -> bool:
        return self.lo <= as_rational(x) <= self.hi

    def strictly_greater_than(self, c: int | Fraction) -> bool:
        return self.lo > as_rational(c)

    def _binary(self, other: "RationalInterval", ends, product: bool) -> "RationalInterval":
        """[ends(self.lo, self.hi, other.lo, other.hi)]: exact for exact
        operands, else taken on the mantissas at the product of the scales
        (for a sum, the finer one), rounded outward at the larger precision."""
        if self.prec is None and other.prec is None:
            return RationalInterval(*ends(self._lo, self._hi, other._lo, other._hi))
        prec = max(self.prec or 0, other.prec or 0)
        (a_lo, a_hi, a_e), (b_lo, b_hi, b_e) = self.dyadic_ends(prec), other.dyadic_ends(prec)
        e = a_e + b_e if product else min(a_e, b_e)
        if not product:
            a_lo, a_hi, b_lo, b_hi = a_lo << a_e - e, a_hi << a_e - e, b_lo << b_e - e, b_hi << b_e - e
        lo, hi = ends(a_lo, a_hi, b_lo, b_hi)
        return _outward(lo, e, hi, e, prec)

    def __add__(self, other: "RationalInterval") -> "RationalInterval":
        return self._binary(other, lambda a, b, c, d: (a + c, b + d), product=False)

    def __sub__(self, other: "RationalInterval") -> "RationalInterval":
        return self._binary(other, lambda a, b, c, d: (a - d, b - c), product=False)

    def __mul__(self, other: "RationalInterval") -> "RationalInterval":
        """Rounded: the least mantissa product floored, the largest ceiled."""
        return self._binary(other, lambda a, b, c, d: (min(ps := (a * c, a * d, b * c, b * d)), max(ps)), product=True)

    def scale(self, c: int | Fraction) -> "RationalInterval":
        return self * RationalInterval(c, c, self.prec)

    def reciprocal(self) -> "RationalInterval":
        """Rounded: with k = prec - 1 + bitlen(|m|), 1/(m 2^e) lies on
        ``dyadic_round``'s grid 2^(-e - k) (E = 1 - e - bitlen(|m|), as in
        ``_round_mantissa``), so floor(2^k / m) from the upper end and
        ceil(2^k / m) from the lower end enclose [1/hi, 1/lo]."""
        if self._lo <= 0 <= self._hi:
            raise ExactArithError("reciprocal of an interval containing zero")
        if self.prec is None:
            return RationalInterval(1 / self._hi, 1 / self._lo)
        p, (lo, hi, e) = self.prec, self.dyadic_ends(self.prec)
        k_lo, k_hi = p - 1 + hi.bit_length(), p - 1 + lo.bit_length()
        return _outward((1 << k_lo) // hi, -e - k_lo, -(-(1 << k_hi) // lo), -e - k_hi, p)

    def __truediv__(self, other: "RationalInterval") -> "RationalInterval":
        return self * other.reciprocal()

    def pow_int(self, k: int) -> "RationalInterval":
        """Enclosure of the k-th power, k >= 0: the powers of the ends, or of
        0 and the larger-sized end when an even power straddles zero; rounded,
        by ``_pow_mantissa``, down at the lower end and up at the upper."""
        if k < 0:
            raise ExactArithError(f"negative interval exponent {k}")
        lo, hi, e = (self._lo, self._hi, None) if (p := self.prec) is None else self.dyadic_ends(p)
        if k % 2 == 0 and lo < 0:
            lo, hi = (hi, lo) if hi <= 0 else (0 * lo, max(-lo, hi))
        if p is None:
            return RationalInterval(lo**k, hi**k)
        return _outward(*_pow_mantissa(lo, e, k, p, False), *_pow_mantissa(hi, e, k, p, True), p)

    def sqrt(self, bits: int) -> "RationalInterval":
        """Enclosure of the square root (requires lo >= 0): isqrt at the lower end, one
        unit more at the upper.  Exact ends x give isqrt(floor(x 4^bits)) / 2^bits; rounded
        ends m 2^e give p = max(prec, bits) significant bits, from isqrt(m 2^s) with s = 2p + 2
        + (e mod 2), so e - s is even, rounded outward at p: no end is rebuilt as a Fraction."""
        if self._lo < 0:
            raise ExactArithError("square root of an interval with negative lower end")
        if self.prec is None:
            lo, hi = (math.isqrt((x.numerator << 2 * bits) // x.denominator) for x in (self._lo, self._hi))
            return RationalInterval(lo, hi + 1, bits, -bits)
        p = max(self.prec, bits)
        lo, hi, e = self.dyadic_ends(p)
        shift = 2 * p + 2 + (e & 1)
        return _outward(math.isqrt(lo << shift), (e - shift) // 2, math.isqrt(hi << shift) + 1, (e - shift) // 2, p)

    def outward_round(self, sig_bits: int) -> "RationalInterval":
        """Widen to dyadic endpoints with about ``sig_bits`` significant bits,
        the lower end rounded down and the upper one up, so the result still
        encloses; it carries ``sig_bits`` as its working precision."""
        lo, hi, e = self.dyadic_ends(sig_bits)
        return _outward(lo, e, hi, e, sig_bits)


def dyadic_round(x: Fraction, sig_bits: int, up: bool) -> Fraction:
    """The dyadic rational with ~sig_bits significant bits nearest to x
    from above (``up``) or below: the floor of x, or minus the floor of
    -x, at the dyadic scale that leaves sig_bits bits."""
    x = as_rational(x)
    n, d = (-x.numerator if up else x.numerator), x.denominator
    shift = sig_bits - (abs(n).bit_length() - d.bit_length())
    floor = Fraction((n << shift) // d, 1 << shift) if shift >= 0 else Fraction((n // (d << -shift)) << -shift)
    return -floor if up else floor


# ---------------------------------------------------------------------------
# Enclosure of pi
# ---------------------------------------------------------------------------


def _arctan_inv_enclosure(x: int, terms: int) -> RationalInterval:
    """Enclosure of arctan(1/x) from the alternating series; consecutive
    partial sums bracket the limit.  The sum to K = ``terms`` is one integer
    numerator over x^(2K+1) lcm(1, 3, ..., 2K+1), by Horner's rule in x^2,
    and the one before it differs by its last term."""
    lcm = math.lcm(*range(1, 2 * terms + 2, 2))
    total = 0
    for k in range(terms + 1):
        total = total * x * x + (-1) ** k * (lcm // (2 * k + 1))
    den = lcm * x ** (2 * terms + 1)
    prev = total - (-1) ** terms * (lcm // (2 * terms + 1))
    return RationalInterval(*sorted((Fraction(prev, den), Fraction(total, den))))


@cache
def _pi_enclosure_bits(bits: int) -> RationalInterval:
    # Machin: pi = 16 arctan(1/5) - 4 arctan(1/239).
    # Each extra arctan(1/5) term gains log2(25) > 23/5 bits.
    terms = max(4, 5 * bits // 23 + 4)
    a5 = _arctan_inv_enclosure(5, terms)
    a239 = _arctan_inv_enclosure(239, max(4, terms // 2))
    # Rounding outward once at ``bits`` moves each end by under 2^(2 - bits), as pi < 4.
    return (a5.scale(16) - a239.scale(4)).outward_round(bits)


def pi_enclosure(bits: int) -> RationalInterval:
    """Rigorous enclosure of pi, memoized per precision, of width checked to be below 2^-(bits-4):
    it carries working precision ``bits``, at which every interval computed from it is rounded."""
    enc = _pi_enclosure_bits(bits)
    lo, hi, e = enc.dyadic_ends()
    if hi - lo >= 1 << max(0, 4 - bits - e):  # width (hi - lo) 2^e >= 2^(4 - bits)
        raise ExactArithError(f"pi enclosure at {bits} bits is not narrower than 2^-{bits - 4}")
    return enc
