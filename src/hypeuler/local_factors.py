"""Local correction factors at places with non-hyperspecial maximal
parahoric subgroups, for groups of type B_r (r >= 3).

Each maximal type carries a closed-form factor, a rational function of
the residue-field size q.  This module enumerates the types, evaluates
the factors exactly, proves that each one is an integer-coefficient
polynomial in q that is nondecreasing for q >= 2 with value above 4, and
cross-checks every closed form against an independent reconstruction
from the order formulas of the finite reductive groups involved.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .exact_arith import RatPolynomial, horner, long_division, smallest_prime_factor, taylor_shift


class LocalFactorError(Exception):
    pass


class IntegralityError(LocalFactorError):
    """A factor failed to be an integer-coefficient polynomial in q."""


class MonotonicityError(LocalFactorError):
    """A factor failed the shifted-coefficient nonnegativity check."""


class CalibrationError(LocalFactorError):
    """Order-formula oracle disagrees with the closed form beyond a
    constant power of 2."""


class Kind(enum.Enum):
    """Isogeny type of the reductive quotient attached to a maximal type.

    The two torus kinds (split or nonsplit one-dimensional central torus
    next to a B_{r-1} factor) occur for both forms of the ambient group,
    so enumeration lists them in both the split and nonsplit blocks.
    """

    TORUS_SPLIT = "torus-split"  # B(r-1) x split torus
    TORUS_NONSPLIT = "torus-nonsplit"  # B(r-1) x nonsplit torus
    CHAIN_D = "chain-d"  # D(i) x B(r-i)
    TOP_D = "top-d"  # 1D(r)
    CHAIN_2D = "chain-2d"  # 2D(i+1) x B(r-i-1)
    TOP_2D = "top-2d"  # 2D(r)


class _ParahoricFields(NamedTuple):
    splitness: str  # "split" | "nonsplit"
    kind: Kind
    i: int | None = None


class ParahoricType(_ParahoricFields):  # checks in __new__, which a NamedTuple body cannot define
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ParahoricType":
        self = super().__new__(cls, *args, **kwargs)
        if self.splitness not in ("split", "nonsplit"):
            raise LocalFactorError(f"invalid splitness {self.splitness!r}")
        needs_i = self.kind in (Kind.CHAIN_D, Kind.CHAIN_2D)
        if needs_i != (self.i is not None):
            raise LocalFactorError(f"parameter i must be present exactly for chain kinds ({self.kind})")
        if self.kind in (Kind.CHAIN_D, Kind.TOP_D) and self.splitness != "split":
            raise LocalFactorError(f"{self.kind} occurs only in the split block")
        if self.kind in (Kind.CHAIN_2D, Kind.TOP_2D) and self.splitness != "nonsplit":
            raise LocalFactorError(f"{self.kind} occurs only in the nonsplit block")
        return self

    def validate_for_rank(self, r: int) -> None:
        if r < 3:
            raise LocalFactorError("rank must be at least 3")
        if self.kind is Kind.CHAIN_D and not 2 <= self.i <= r - 1:
            raise LocalFactorError(f"chain parameter i={self.i} outside 2..{r - 1}")
        if self.kind is Kind.CHAIN_2D and not 1 <= self.i <= r - 2:
            raise LocalFactorError(f"chain parameter i={self.i} outside 1..{r - 2}")

    def slug(self) -> str:
        base = f"{self.splitness}.{self.kind.value}"
        return base if self.i is None else f"{base}.i{self.i}"

    @classmethod
    def from_slug(cls, slug: str) -> "ParahoricType":
        parts = slug.split(".")
        splitness, kind_slug = parts[0], parts[1]
        i = int(parts[2][1:]) if len(parts) > 2 else None
        return cls(splitness, Kind(kind_slug), i)

    def describe(self, r: int) -> str:
        if self.kind is Kind.CHAIN_D:
            return f"D({self.i}) x B({r - self.i})"
        if self.kind is Kind.CHAIN_2D:
            return f"2D({self.i + 1}) x B({r - self.i - 1})"
        if self.kind is Kind.TOP_D:
            return f"1D({r})"
        if self.kind is Kind.TOP_2D:
            return f"2D({r})"
        torus = "split torus" if self.kind is Kind.TORUS_SPLIT else "nonsplit torus"
        return f"B({r - 1}) x {torus}"


def enumerate_maximal_types(r: int) -> list[ParahoricType]:
    """All 2(r+1) maximal types for rank r: per block, the two torus
    flavors, the chain family, and the top type."""
    if r < 3:
        raise LocalFactorError(f"rank must be at least 3, got {r}")
    out: list[ParahoricType] = []
    out.append(ParahoricType("split", Kind.TORUS_SPLIT))
    out.append(ParahoricType("split", Kind.TORUS_NONSPLIT))
    out.extend(ParahoricType("split", Kind.CHAIN_D, i) for i in range(2, r))
    out.append(ParahoricType("split", Kind.TOP_D))
    out.append(ParahoricType("nonsplit", Kind.TORUS_SPLIT))
    out.append(ParahoricType("nonsplit", Kind.TORUS_NONSPLIT))
    out.extend(ParahoricType("nonsplit", Kind.CHAIN_2D, i) for i in range(1, r - 1))
    out.append(ParahoricType("nonsplit", Kind.TOP_2D))
    return out


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


# Closed forms, as numerator/denominator pairs of integer coefficient
# tuples in q (lowest degree first).  Every factor of either side is a
# binomial q^e - 1 or q^e + 1, so every denominator is monic.


def _binomial_product(factors: list[tuple[int, int]]) -> tuple[int, ...]:
    """Coefficients of the product of q^e + s over the (e, s) pairs."""
    out = [1]
    for e, s in factors:
        nxt = [s * c for c in out] + [0] * e
        for k, c in enumerate(out):
            nxt[k + e] += c
        out = nxt
    return tuple(out)


def _closed_form(t: ParahoricType, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    t.validate_for_rank(r)
    if t.kind is Kind.TORUS_SPLIT:
        num, den = [(2 * r, -1)], [(1, -1)]
    elif t.kind is Kind.TORUS_NONSPLIT:
        num, den = [(2 * r, -1)], [(1, 1)]
    elif t.kind is Kind.TOP_D:
        num, den = [(r, 1)], []
    elif t.kind is Kind.TOP_2D:
        num, den = [(r, -1)], []
    elif t.kind is Kind.CHAIN_D:
        num = [(t.i, 1)] + [(2 * k, -1) for k in range(t.i + 1, r + 1)]
        den = [(2 * k, -1) for k in range(1, r - t.i + 1)]
    else:
        num = [(t.i + 1, -1)] + [(2 * k, -1) for k in range(t.i + 2, r + 1)]
        den = [(2 * k, -1) for k in range(1, r - t.i)]
    return _binomial_product(num), _binomial_product(den)


def integer_exact_divide(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient num/den in Z[q] by ``long_division``, for coefficient
    tuples lowest degree first with no trailing zero (den nonzero).

    Raises IntegralityError when the leading coefficient of den does not
    divide a step (the quotient would leave Z[q]) or when the remainder is
    nonzero (the division is inexact).
    """
    quot, rem = long_division(num, den)
    lead = den[-1]
    for c in reversed(quot):
        if c.denominator != 1:
            raise IntegralityError(f"leading coefficient {lead} does not divide {c * lead}")
    if any(rem):
        raise IntegralityError(f"nonzero remainder [{', '.join(map(str, rem))}] in exact division")
    return tuple(map(int, quot))


@cache
def _quotient(t: ParahoricType, r: int) -> tuple[int, ...]:
    """The factor for type t at rank r as integer coefficients in q, shared
    by every value, proof and fingerprint of that type."""
    num, den = _closed_form(t, r)
    try:
        return integer_exact_divide(num, den)
    except IntegralityError as exc:
        raise IntegralityError(f"{t.slug()} at rank {r}: {exc}") from exc


def local_factor_value(t: ParahoricType, r: int, q: int) -> Fraction:
    """Exact value of the factor for type t at residue size q."""
    _check_q(q)
    return Fraction(horner(_quotient(t, r), q))


def local_factor_polynomial(t: ParahoricType, r: int) -> RatPolynomial:
    """The factor as a polynomial in q with integer coefficients.

    Raises IntegralityError when the division is inexact or a coefficient
    is non-integral (either would break the divisibility argument the
    certificates rely on).
    """
    return RatPolynomial.from_seq(_quotient(t, r))


class TypeMinimum(NamedTuple):
    type: ParahoricType
    polynomial: tuple[int, ...]  # integer coefficients, lowest degree first
    value_at_two: Fraction
    shifted_nonnegative: bool


class MinimumProof(NamedTuple):
    r: int
    entries: tuple[TypeMinimum, ...]
    minimum: Fraction

    def minimum_type(self) -> ParahoricType:
        for e in self.entries:
            if e.value_at_two == self.minimum:
                return e.type
        raise LocalFactorError("empty minimum proof")


def minimum_proof(r: int) -> MinimumProof:
    """For every maximal type at rank r: certify that the factor is a
    polynomial with integer coefficients, that substituting q = 2 + u
    yields nonnegative coefficients (so the factor is nondecreasing for
    q >= 2), and that its value at q = 2 exceeds 4."""
    entries = []
    for t in enumerate_maximal_types(r):
        coeffs = _quotient(t, r)
        shifted = taylor_shift(coeffs, 2)
        nonneg = all(c >= 0 for c in shifted)
        if not nonneg:
            raise MonotonicityError(f"{t.slug()} at rank {r}: shifted coefficients go negative")
        at2 = Fraction(shifted[0] if shifted else 0)  # p(2 + u) at u = 0
        if at2 <= 4:
            raise MonotonicityError(f"{t.slug()} at rank {r}: value {at2} at q=2 does not exceed 4")
        entries.append(TypeMinimum(t, coeffs, at2, nonneg))
    return MinimumProof(r=r, entries=tuple(entries), minimum=min(e.value_at_two for e in entries))


# ---------------------------------------------------------------------------
# Independent reconstruction from finite-group order formulas
# ---------------------------------------------------------------------------


def _order_b(m: int, q: int) -> int:
    out = q ** (m * m)
    for k in range(1, m + 1):
        out *= q ** (2 * k) - 1
    return out


def _order_d(m: int, q: int) -> int:
    if m == 0:
        return 1
    out = q ** (m * (m - 1)) * (q**m - 1)
    for k in range(1, m):
        out *= q ** (2 * k) - 1
    return out


def _order_2d(m: int, q: int) -> int:
    if m == 0:
        return 1
    out = q ** (m * (m - 1)) * (q**m + 1)
    for k in range(1, m):
        out *= q ** (2 * k) - 1
    return out


def _dim_b(m: int) -> int:
    return m * (2 * m + 1)


def _dim_d(m: int) -> int:
    return m * (2 * m - 1)


def _quotient_factors(t: ParahoricType, r: int) -> list[tuple[str, int]]:
    if t.kind is Kind.TORUS_SPLIT:
        return [("B", r - 1), ("D", 1)]  # D_1 is the split 1-torus
    if t.kind is Kind.TORUS_NONSPLIT:
        return [("B", r - 1), ("2D", 1)]
    if t.kind is Kind.CHAIN_D:
        return [("D", t.i), ("B", r - t.i)]
    if t.kind is Kind.TOP_D:
        return [("D", r)]
    if t.kind is Kind.CHAIN_2D:
        return [("2D", t.i + 1), ("B", r - t.i - 1)]
    return [("2D", r)]


_ORDER = {"B": _order_b, "D": _order_d, "2D": _order_2d}
_DIM = {"B": _dim_b, "D": _dim_d, "2D": _dim_d}


def _order_formula_terms(t: ParahoricType, r: int, q: int) -> tuple[int, int]:
    """``order_formula_value`` as an integer numerator and denominator: the
    B_r group order, and the quotient-type order times q to half the
    dimension gap."""
    t.validate_for_rank(r)
    _check_q(q)
    factors = _quotient_factors(t, r)
    order_m = 1
    dim_m = 0
    for fam, m in factors:
        order_m *= _ORDER[fam](m, q)
        dim_m += _DIM[fam](m)
    gap = _dim_b(r) - dim_m
    if gap % 2 != 0:
        raise LocalFactorError(f"{t.slug()}: odd dimension gap {gap}")
    return _order_b(r, q), order_m * q ** (gap // 2)


def order_formula_value(t: ParahoricType, r: int, q: int) -> Fraction:
    """The factor reconstructed from first principles: the ratio of the
    ambient B_r group order to the quotient-type order, divided by q to
    half the dimension gap."""
    return Fraction(*_order_formula_terms(t, r, q))


def _is_power_of_two(x: Fraction) -> bool:
    if x <= 0:
        return False
    n, d = x.numerator, x.denominator
    return (n & (n - 1)) == 0 and (d & (d - 1)) == 0


def calibrate_oracle(r: int, qs: tuple[int, ...] = (2, 3, 4, 5, 7, 8, 9)) -> dict[str, Fraction]:
    """Per-type ratio closed-form / order-formula, required to be a single
    power of 2 independent of q.  Raises CalibrationError otherwise.

    At each q the ratio is v_q den_q / num_q, with v_q the integer
    closed-form value and num_q / den_q the order formula
    (``_order_formula_terms``).  The ratios are compared across q by
    integer cross-multiplication, and one ``Fraction`` is built per type."""
    constants: dict[str, Fraction] = {}
    for t in enumerate_maximal_types(r):
        ratios = []
        for q in qs:
            num, den = _order_formula_terms(t, r, q)
            ratios.append((horner(_quotient(t, r), q) * den, num))
        top, bottom = ratios[0]
        if any(n * bottom != top * d for n, d in ratios[1:]):
            distinct = sorted({Fraction(n, d) for n, d in ratios})
            raise CalibrationError(f"{t.slug()} at rank {r}: calibration varies with q: {distinct}")
        c = Fraction(top, bottom)
        if not _is_power_of_two(c):
            raise CalibrationError(f"{t.slug()} at rank {r}: calibration {c} is not a power of 2")
        constants[t.slug()] = c
    return constants


class LocalFactor(NamedTuple):
    """A maximal type instantiated at a residue size, with its verified
    integer value."""

    type: ParahoricType
    r: int
    q: int
    value: int

    @classmethod
    def at(cls, t: ParahoricType, r: int, q: int) -> "LocalFactor":
        v = local_factor_value(t, r, q)
        if v.denominator != 1:
            raise IntegralityError(f"{t.slug()} at q={q}: value {v} is not an integer")
        if v <= 4:
            raise LocalFactorError(f"{t.slug()} at q={q}: value {v} does not exceed 4")
        return cls(type=t, r=r, q=q, value=int(v))


def table_fingerprint(ranks: tuple[int, ...] = (3, 4, 5)) -> str:
    """SHA-256 fingerprint of the canonical polynomial presentation of the
    whole type table over the given ranks."""
    import hashlib

    lines = []
    for r in ranks:
        for t in enumerate_maximal_types(r):
            coeffs = ",".join(str(c) for c in _quotient(t, r))
            lines.append(f"r={r} {t.slug()} [{coeffs}]")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
