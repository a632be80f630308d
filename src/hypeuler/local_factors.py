"""Local correction factors at places with non-hyperspecial maximal
parahoric subgroups, for groups of type B_r (r >= 3).

Each maximal type carries a closed-form factor, a rational function of
the residue-field size q.  A type is valid at rank r exactly when
``enumerate_maximal_types(r)`` lists it, which every closed form and order
formula checks first.  This module enumerates the types, proves that
each factor is an integer-coefficient polynomial in q that is
nondecreasing for q >= 2 with value above 4, and checks that every
closed form equals an independent reconstruction from the order formulas
of the finite reductive groups involved.  The proof holds at
every q, so no factor is evaluated at a particular place: together with
the power-of-2 index bound (``euler_char.index_divisor``) it carries each
witness, found on the lattice with no bad places, to every maximal
lattice.
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
    """Order-formula oracle disagrees with the closed form."""


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


class ParahoricType(NamedTuple):
    """A maximal type, valid at rank r exactly when ``enumerate_maximal_types(r)`` lists it."""

    splitness: str  # "split" | "nonsplit"
    kind: Kind
    i: int | None = None

    def slug(self) -> str:
        base = f"{self.splitness}.{self.kind.value}"
        return base if self.i is None else f"{base}.i{self.i}"

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


@cache
def enumerate_maximal_types(r: int) -> tuple[ParahoricType, ...]:
    """All 2(r+1) maximal types for rank r: per block, the two torus
    flavors, the chain family, and the top type.  The D kinds occur only
    in the split block, the 2D kinds only in the nonsplit one, and only
    the chain kinds carry ``i``."""
    if r < 3:
        raise LocalFactorError(f"rank must be at least 3, got {r}")
    return (
        ParahoricType("split", Kind.TORUS_SPLIT),
        ParahoricType("split", Kind.TORUS_NONSPLIT),
        *(ParahoricType("split", Kind.CHAIN_D, i) for i in range(2, r)),
        ParahoricType("split", Kind.TOP_D),
        ParahoricType("nonsplit", Kind.TORUS_SPLIT),
        ParahoricType("nonsplit", Kind.TORUS_NONSPLIT),
        *(ParahoricType("nonsplit", Kind.CHAIN_2D, i) for i in range(1, r - 1)),
        ParahoricType("nonsplit", Kind.TOP_2D),
    )


def _check_type(t: ParahoricType, r: int) -> None:
    if t not in enumerate_maximal_types(r):
        raise LocalFactorError(f"{t} is not a maximal type at rank {r}")


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
    _check_type(t, r)
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


class MinimumProof(NamedTuple):
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
    q >= 2), and that its value at q = 2 exceeds 4; raises
    MonotonicityError when either check fails."""
    entries = []
    for t in enumerate_maximal_types(r):
        coeffs = _quotient(t, r)
        shifted = taylor_shift(coeffs, 2)
        if any(c < 0 for c in shifted):
            raise MonotonicityError(f"{t.slug()} at rank {r}: shifted coefficients go negative")
        at2 = Fraction(shifted[0] if shifted else 0)  # p(2 + u) at u = 0
        if at2 <= 4:
            raise MonotonicityError(f"{t.slug()} at rank {r}: value {at2} at q=2 does not exceed 4")
        entries.append(TypeMinimum(t, coeffs, at2))
    return MinimumProof(entries=tuple(entries), minimum=min(e.value_at_two for e in entries))


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
    _check_type(t, r)
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


def calibrate_oracle(r: int, qs: tuple[int, ...] = (2, 3, 4, 5, 7, 8, 9)) -> dict[str, Fraction]:
    """Per-type ratio closed-form / order-formula, required to be 1 at every
    q in ``qs``.  Raises CalibrationError naming the type, the rank and the
    first q where it is not.

    With v_q the integer closed-form value and num_q / den_q the order
    formula (``_order_formula_terms``), the check is v_q den_q == num_q in
    integers; every constant returned is 1."""
    for t in enumerate_maximal_types(r):
        for q in qs:
            num, den = _order_formula_terms(t, r, q)
            if horner(_quotient(t, r), q) * den != num:
                raise CalibrationError(
                    f"{t.slug()} at rank {r}: closed form differs from the order formula at q={q}"
                )
    return {t.slug(): Fraction(1) for t in enumerate_maximal_types(r)}


FINGERPRINT_RANKS = (3, 4, 5)  # the ranks whose type table the certificate's axiom fingerprints


def table_fingerprint() -> str:
    """SHA-256 fingerprint of the canonical polynomial presentation of the
    whole type table over ``FINGERPRINT_RANKS``."""
    import hashlib

    lines = []
    for r in FINGERPRINT_RANKS:
        for t in enumerate_maximal_types(r):
            coeffs = ",".join(str(c) for c in _quotient(t, r))
            lines.append(f"r={r} {t.slug()} [{coeffs}]")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
