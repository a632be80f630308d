"""Local correction factors at places with non-hyperspecial maximal
parahoric subgroups, for groups of type B_r (r >= 3).

Each maximal type carries a closed-form factor, a rational function of
the residue-field size q.  A type is valid at rank r exactly when
``enumerate_maximal_types(r)`` lists it, which every closed form and order
formula checks first.  This module enumerates the types, proves that
each factor is an integer-coefficient polynomial in q that is
nondecreasing for q >= 2 with value above 4, and proves that every
closed form is Prasad's order formula for the type's reductive quotient
as a rational function of q: both are powers of q times binomials
q^e +- 1, and they agree exactly when their powers of q and their
multisets of cyclotomic factors Phi_n(q) do.  The proofs hold at every
q, so no factor is evaluated at a particular place: together with the
power-of-2 index bound (``euler_char.index_divisor``) they carry each
witness, found on the lattice with no bad places, to every maximal
lattice.
"""

from __future__ import annotations

import enum
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .exact_arith import RatPolynomial, long_division, smallest_prime_factor, taylor_shift
from .field_tables import sha256


class LocalFactorError(Exception):
    pass


class IntegralityError(LocalFactorError):
    """A factor failed to be an integer-coefficient polynomial in q."""


class MonotonicityError(LocalFactorError):
    """A factor failed the shifted-coefficient nonnegativity check."""


class CalibrationError(LocalFactorError):
    """A closed form is not Prasad's order formula as a rational function of q."""


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

    Raises IntegralityError when den is not monic or when the remainder is
    nonzero (the division is inexact).
    """
    if den[-1] != 1:
        raise IntegralityError(f"leading coefficient {den[-1]} of the divisor is not 1")
    quot, rem = long_division(num, den)
    if any(rem):
        raise IntegralityError(f"nonzero remainder [{', '.join(map(str, rem))}] in exact division")
    return tuple(quot)


def _quotient(t: ParahoricType, r: int) -> tuple[int, ...]:
    """The factor for type t at rank r as integer coefficients in q."""
    num, den = _closed_form(t, r)
    try:
        return integer_exact_divide(_binomial_product(num), _binomial_product(den))
    except IntegralityError as exc:
        raise IntegralityError(f"{t.slug()} at rank {r}: {exc}") from exc


def local_factor_polynomial(t: ParahoricType, r: int) -> RatPolynomial:
    """The factor as a polynomial in q with integer coefficients.

    Raises IntegralityError when the division is inexact (which would
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
# Prasad's order formula, and its identity with the closed forms
# ---------------------------------------------------------------------------


def _order(family: str, m: int) -> tuple[int, Binomials]:
    """|B_m|, |D_m| or |2D_m| over F_q (m >= 1) as a power of q and binomials."""
    if family == "B":
        return m * m, [(2 * k, -1) for k in range(1, m + 1)]
    return m * (m - 1), [(m, -1 if family == "D" else 1)] + [(2 * k, -1) for k in range(1, m)]


def _dim_b(m: int) -> int:
    return m * (2 * m + 1)


def _dim_d(m: int) -> int:
    return m * (2 * m - 1)


def _quotient_factors(t: ParahoricType, r: int) -> list[tuple[str, int]]:
    """The reductive quotient of type t at rank r, as (family, rank) factors."""
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


_DIM = {"B": _dim_b, "D": _dim_d, "2D": _dim_d}


def _order_formula(t: ParahoricType, r: int) -> tuple[int, Binomials, Binomials]:
    """Prasad's factor |B_r| / (|M| q^((dim B_r - dim M)/2)) for the reductive
    quotient M of type t, as q to a power (possibly negative) times num / den."""
    _check_type(t, r)
    power, num = _order("B", r)
    den: Binomials = []
    gap = _dim_b(r)
    for fam, m in _quotient_factors(t, r):
        a, binomials = _order(fam, m)
        power -= a
        den += binomials
        gap -= _DIM[fam](m)
    if gap % 2 != 0:
        raise LocalFactorError(f"{t.slug()}: odd dimension gap {gap}")
    return power - gap // 2, num, den


def _cyclotomic(binomials: Binomials) -> Counter[int]:
    """The multiset of n with Phi_n(q) dividing the product of the binomials, by
    q^e - 1 = prod_{n | e} Phi_n(q) and q^e + 1 = prod_{n | 2e, n not | e} Phi_n(q)."""
    return Counter(n for e, s in binomials for n in range(1, 2 * e + 1) if 2 * e % n == 0 and (e % n == 0) == (s < 0))


def calibrate_oracle(r: int, qs: tuple[int, ...] = (2, 3, 4, 5, 7, 8, 9)) -> dict[str, Fraction]:
    """Prove that every closed form at rank r is Prasad's order formula as a
    rational function of q; returns the ratio, 1, per type.

    q and the Phi_n are distinct primes of Z[q], so the two agree at every q
    exactly when their powers of q agree and, cross-multiplied, their
    Phi_n multisets do.  Raises CalibrationError naming the type and the
    rank otherwise.  Each q in ``qs`` must be a prime power; none is
    evaluated at."""
    for q in qs:
        _check_q(q)
    for t in enumerate_maximal_types(r):
        power, num, den = _order_formula(t, r)
        closed_num, closed_den = _closed_form(t, r)
        if power != 0 or _cyclotomic(closed_num + den) != _cyclotomic(num + closed_den):
            raise CalibrationError(f"{t.slug()} at rank {r}: closed form differs from Prasad's order formula")
    return {t.slug(): Fraction(1) for t in enumerate_maximal_types(r)}


FINGERPRINT_RANKS = (3, 4, 5)  # the ranks whose type table the certificate's axiom fingerprints


def table_fingerprint() -> str:
    """SHA-256 fingerprint of the table of reductive quotients
    (``_quotient_factors``) over ``FINGERPRINT_RANKS``: with Prasad's order
    formula, that table is all the certificate assumes of the factors."""
    lines = []
    for r in FINGERPRINT_RANKS:
        for t in enumerate_maximal_types(r):
            quotient = " x ".join(f"{fam}({m})" for fam, m in _quotient_factors(t, r))
            lines.append(f"r={r} {t.slug()} {quotient}")
    return sha256("\n".join(lines).encode("utf-8")).hexdigest()
