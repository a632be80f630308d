"""The numeric path: rigorous enclosures of zeta_k(s) at even s >= 2 and of
|chi(Lambda)| along the transcendental covolume formula.

Only ``search_bounds.dual_path_check`` and the tests run this code, no
certify or verify does, so ``characters_zeta.zeta_k_numeric``,
``characters_zeta.hurwitz_zeta_enclosure`` and
``euler_char.chi_principal_numeric`` import it when first called: a
process that never encloses a value never compiles it.

L(s, chi) = f^{-s} sum_a chi(a) zeta_H(s, a/f) with the Hurwitz zeta
enclosed by an Euler-Maclaurin tail whose remainder is rigorously
bracketed by the first omitted correction term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .characters_zeta import CharacterError, zeta_k_numeric
from .euler_char import ArithmeticDatum, C_of_r
from .exact_arith import ExactArithError, RationalInterval, as_rational
from .field_path import DirichletCharacter, bernoulli_number, characters_for_field
from .field_tables import NumberFieldRecord


@cache
def _euler_maclaurin_coefficient(s: int, i: int) -> Fraction:
    """c_i = B_2i / (2i)! * s(s+1)...(s+2i-2) = B_2i C(s+2i-2, 2i-1) / (2i),
    shared by every Hurwitz call at s."""
    b = bernoulli_number(2 * i)
    return Fraction(b.numerator * math.comb(s + 2 * i - 2, 2 * i - 1), b.denominator * 2 * i)


@cache
def _tail_weights(s: int, corrections: int) -> tuple[tuple[int, ...], int, int]:
    """The kept Euler-Maclaurin coefficients 1/(s-1), c_1, ..., c_m over one
    common denominator L, as the integers L/(s-1), c_1 L, ..., c_m L, then
    L/2 (the weight of the 1/2 term) and L."""
    coefficients = [Fraction(1, s - 1)] + [_euler_maclaurin_coefficient(s, i) for i in range(1, corrections + 1)]
    L = math.lcm(2, *(c.denominator for c in coefficients))
    return tuple(c.numerator * (L // c.denominator) for c in coefficients), L // 2, L


def _hurwitz_units(s: int, qn: int, qd: int, terms: int, corrections: int, P: int) -> tuple[int, int]:
    """Enclosure [lo, hi], in units of 2^-P, of zeta_H(s, q) = sum_{k>=0}
    (k+q)^{-s} for integer s >= 2 and q = qn/qd in (0, 1].

    The tail past ``terms`` is summed by Euler-Maclaurin.  For
    f(x) = (x+q)^{-s} every even-order derivative is positive, so the
    remainder after the kept corrections lies between 0 and the first
    omitted one, which adds its negative part to ``lo`` and its positive
    part to ``hi``.  Each head term qd^s / (k qd + qn)^s is floored into
    ``lo``, and ``hi`` takes one unit more per term.  The kept tail
    N^(1-s) (1/(s-1) + 1/(2N) + sum_i c_i N^-2i) at N = M/qd is one exact
    rational, by Horner's rule over the integer ``_tail_weights``, floored
    into ``lo`` and ceiled into ``hi``, and so is the omitted term.  Each of
    these terms + 2 roundings moves an end outward by at most one unit, so
    together they cost less than 2^((terms + 2).bit_length() - P) per end.
    """
    M = terms * qd + qn  # N = terms + q = M / qd
    unit = qd**s << P
    lo = sum([unit // a**s for a in range(qn, M, qd)])
    weights, half, L = _tail_weights(s, corrections)
    # Horner: total = sum_i w_i qd^2i M^(2m-2i), and the kept tail is
    # qd^(s-1) (M total + half qd M^2m) / (L M^(s+2m))
    total, qd_power, square_M = 0, 1, M * M
    for w in weights:
        total = total * square_M + w * qd_power
        qd_power *= qd * qd
    head, M_2m = qd ** (s - 1) << P, square_M**corrections
    den = M**s * M_2m
    tail, tail_rem = divmod(head * (M * total + half * qd * M_2m), L * den)
    c = _euler_maclaurin_coefficient(s, corrections + 1)
    quot, rem = divmod(c.numerator * head * qd_power, c.denominator * den * M)
    return lo + tail + min(0, quot), lo + terms + tail + (tail_rem > 0) + max(0, quot + (rem > 0))


def _square(lo: int, hi: int) -> tuple[int, int]:
    """The range of x^2 over lo <= x <= hi."""
    return (0 if lo <= 0 <= hi else min(lo * lo, hi * hi)), max(lo * lo, hi * hi)


@cache
def _l_factor_enclosure(chi: DirichletCharacter, s: int, terms: int, corrections: int, bits: int) -> tuple[int, int, int]:
    """Enclosure [lo, hi] 2^-P of chi's factor of zeta_k(s), as (lo, hi, P):
    L(s, chi) for a character of order 1 or 2, and L(s, chi) L(s, chibar)
    = |L(s, chi)|^2 for a cubic one.

    Memoized: zeta(s) is a factor of every field's zeta_k(s), and a field's
    L(s, chi) is needed again at every higher rank, so each is computed
    once per run.

    Each zeta_H(s, a/f) is one ``_hurwitz_units`` series at the scale 2^-P,
    summed as integers per exponent class e into S_e = [lo_e, hi_e], so
    f^s L(s, chi) = sum_e zeta_3^e S_e.  The phi(f) < 2^(f.bit_length())
    series each round by under 2^((terms + 2).bit_length() - P) per end, so
    P's guard bits keep S0 - S1 and (2 S0 - S1 - S2) / 2 within 2^-(bits+1)
    of exact.  As Re zeta_3^e is 1 or -1/2 and Im zeta_3^e is 0 or
    +-sqrt(3)/2, a cubic factor is the exact norm
    ((2 S0 - S1 - S2)^2 + 3 (S1 - S2)^2) / (4 f^(2s)), with no square root.
    The one rounding after the series divides by f^s, or 4 f^(2s) 2^P for
    the norm: floored into lo, ceiled into hi.
    """
    f = chi.modulus
    P = bits + (terms + 2).bit_length() + f.bit_length() + 1
    lo, hi = [0, 0, 0], [0, 0, 0]
    for a in range(1, f + 1):
        e = chi.exponent_of(a)
        if e is not None:
            series_lo, series_hi = _hurwitz_units(s, a, f, terms, corrections, P)
            lo[e] += series_lo
            hi[e] += series_hi
    if chi.order <= 2:
        # S0 - S1 (S1 is empty for the trivial character)
        num_lo, num_hi, den = lo[0] - hi[1], hi[0] - lo[1], f**s
    else:
        re_lo, re_hi = _square(2 * lo[0] - hi[1] - hi[2], 2 * hi[0] - lo[1] - lo[2])
        im_lo, im_hi = _square(lo[1] - hi[2], hi[1] - lo[2])
        num_lo, num_hi, den = re_lo + 3 * im_lo, re_hi + 3 * im_hi, 4 * f ** (2 * s) << P
    return num_lo // den, -(-num_hi // den), P


@cache
def _round_width_floor(s: int, terms: int, corrections: int, degree: int) -> Fraction:
    """B = |c_(m+1)| / (terms+1)^(s+2m+1) * 2^-(degree-1) for m corrections:
    a lower bound on the width of zeta_k_numeric's enclosure in the round
    (terms, m) of a field of that degree (see ``zeta_k_enclosure``)."""
    c = _euler_maclaurin_coefficient(s, corrections + 1)
    return abs(c) / ((terms + 1) ** (s + 2 * corrections + 1) * 2 ** (degree - 1))


MAX_TERMS = 4096  # series terms of the last round of ``zeta_k_enclosure``'s ladder


def zeta_k_enclosure(rec: NumberFieldRecord, s: int, precision_bits: int) -> RationalInterval:
    """The body of ``characters_zeta.zeta_k_numeric``, for even s >= 2.

    The enclosure is the product of the L-factor enclosures of
    ``characters_for_field``, taken in integers and rounded outward once to
    units of 2^-(precision_bits+16).  They are computed on a ladder of
    rounds (terms, m): 32 series terms and m = 14 Euler-Maclaurin
    corrections, then the terms doubled and m raised by 6 (at most 40) per
    round, until the width is at most 2^-precision_bits.

    A round whose floor B = ``_round_width_floor`` is above the target is
    skipped without being computed, since it must fail.  Proof: the
    zeta(s) factor X (f = 1) is one ``_hurwitz_units`` series at q = 1,
    which adds its whole omitted correction |c_(m+1)| / (terms+1)^(s+2m+1)
    to one end, so its width is at least that.  Every factor encloses a
    positive value, so a negative lower end is clamped at 0, and lo(X) >= 1.
    The product with the other factor Y is [lo(X) lo(Y), hi(X) hi(Y)], of
    width at least width(X) hi(Y), which rounding outward only widens, and
    hi(Y) is at least the true value Y encloses.  By the Euler product,
    |L(s, chi)| >= zeta(2s)/zeta(s) > 6/pi^2 > 1/2 for every character at
    even s >= 2, so a real character's factor is above 1/2 and a cubic
    one's |L(s, chi)|^2 above 1/4: above 2^-(degree-1), and the round's
    width is at least B.  B is compared with 2^-precision_bits by bit
    lengths, so a huge precision costs no more than a small one.  The round
    at ``MAX_TERMS`` is skipped by the same test, so a precision past the
    ladder's reach (at s = 2, any above 805 bits) fails before any
    enclosure is built at it.

    Each L-factor enclosure is memoized per (character, s, round,
    precision), so zeta(s) is shared across fields and L(s, chi) across
    ranks.

    Raises CharacterError if the target width is not reached within
    ``MAX_TERMS`` series terms (about 800 bits), stating that round's width,
    or its floor when the floor already ruled it out.
    """
    chars = characters_for_field(rec)
    bits = precision_bits + 16  # the product's ends are in units of 2^-bits
    terms, corrections = 32, 14
    while True:
        floor = _round_width_floor(s, terms, corrections, rec.degree)
        acc = None
        # floor = a/b <= 2^-precision_bits, by bit lengths unless they are equal
        gap = floor.denominator.bit_length() - floor.numerator.bit_length() - precision_bits
        if gap > 0 or gap == 0 and floor.numerator << precision_bits <= floor.denominator:
            lo, hi, scale = 1, 1, 0
            for chi in chars:
                factor_lo, factor_hi, P = _l_factor_enclosure(chi, s, terms, corrections, bits)
                lo, hi, scale = lo * max(factor_lo, 0), hi * factor_hi, scale + P
            lo, hi = lo >> scale - bits, -(-hi >> scale - bits)
            acc = RationalInterval(lo, hi, bits, -bits)
            if hi - lo <= 1 << bits - precision_bits:
                return acc
        if terms >= MAX_TERMS:
            width = f"width floor {float(floor):.3e}" if acc is None else f"width {float(acc.width):.3e}"
            raise CharacterError(f"{width} above target 2^-{precision_bits} after {terms} terms")
        terms *= 2
        corrections = min(corrections + 6, 40)


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


def chi_principal_enclosure(datum: ArithmeticDatum, precision_bits: int) -> RationalInterval:
    """The body of ``euler_char.chi_principal_numeric``: 2 |D|^(r^2 + r/2)
    C(r)^d prod_j zeta_k(2j), enclosed.

    The zeta factors come first: past the reach of their ladder (about
    800 bits) ``zeta_k_numeric`` raises CharacterError before pi is
    enclosed at the precision asked for.

    Every factor is positive with dyadic ends, integer mantissas at a scale
    2^e, so the product is taken exactly in integers and rounded outward
    once, at the precision_bits + 16 bits that every rounded factor carries.
    """
    r, d, D = datum.r, datum.degree, datum.field.disc
    zetas = [zeta_k_numeric(datum.field, 2 * j, precision_bits) for j in range(1, r + 1)]
    prec = precision_bits + 16
    factors = [rational_power_half(D, 2 * r * r + r, bits=prec), *[C_of_r(r, prec)] * d, *zetas]
    lo, hi, scale = 2, 2, 0
    for x in factors:
        x_lo, x_hi, e = x.dyadic_ends()
        lo, hi, scale = lo * x_lo, hi * x_hi, scale - e
    shift = max(0, min(scale, hi.bit_length() - prec - 1))
    return RationalInterval(lo >> shift, -(-hi >> shift), prec, shift - scale)
