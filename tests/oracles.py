"""Reference definitions that only the tests evaluate: each states a
quantity the direct way, for the tests to hold the engine's kernels
against.  No certify or verify run computes any of them."""

import math
from fractions import Fraction

from hypeuler.exact_arith import RationalInterval
from hypeuler.field_path import (
    DirichletCharacter,
    Zeta3Number,
    _check_q,
    _order_formula,
    bernoulli_number,
    root_of_unity,
)
from hypeuler.local_factors import ParahoricType


def character_value(chi: DirichletCharacter, a: int) -> Zeta3Number:
    """chi(a) in Q(zeta3): zeta_order^e for a unit a, 0 when gcd(a, f) > 1."""
    e = chi.exponent_of(a)
    return Zeta3Number(Fraction(0)) if e is None else root_of_unity(chi.order, e)


def bernoulli_polynomial_eval(n: int, x: int | Fraction) -> Fraction:
    """B_n(x) = sum_{k=0}^{n} C(n, k) B_k x^{n-k}, exact."""
    x = Fraction(x)
    return sum((math.comb(n, k) * bernoulli_number(k) * x ** (n - k) for k in range(n + 1)), Fraction(0))


def contains_interval(outer: RationalInterval, inner: RationalInterval) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def negate(x: RationalInterval) -> RationalInterval:
    """-x, at x's working precision."""
    return RationalInterval(-x.hi, -x.lo, x.prec)


def order_formula_value(t: ParahoricType, r: int, q: int) -> Fraction:
    """Prasad's factor for type t at rank r, evaluated at the prime power q."""
    power, num, den = _order_formula(t, r)
    _check_q(q)
    return Fraction(q) ** power * math.prod(q**e + s for e, s in num) / math.prod(q**e + s for e, s in den)
