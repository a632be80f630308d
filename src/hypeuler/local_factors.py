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
power-of-2 index bound (``field_path.index_divisor``) they carry each
witness, found on the lattice with no bad places, to every maximal
lattice.  The types and their reductive quotients, which every
certificate fingerprints, are here; the closed forms, the order formula
and the polynomial arithmetic of the proofs are in ``field_path``, which
``minimum_proof`` and ``calibrate_oracle`` import when first called.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING

from .exact_arith import field_path_getattr
from .field_tables import sha256

if TYPE_CHECKING:
    from .field_path import MinimumProof

__getattr__ = field_path_getattr(__name__, {"local_factor_polynomial": "offline"})


class LocalFactorError(Exception):
    pass


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


# A maximal type, valid at rank r exactly when ``enumerate_maximal_types(r)``
# lists it: ``splitness`` is "split" or "nonsplit", ``kind`` a Kind, and ``i``
# the chain kinds' index.  A plain tuple class: its methods are set below.
ParahoricType = namedtuple("ParahoricType", "splitness kind i", defaults=(None,))


def _slug(self: ParahoricType) -> str:
    base = f"{self.splitness}.{self.kind.value}"
    return base if self.i is None else f"{base}.i{self.i}"


def _describe(self: ParahoricType, r: int) -> str:
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


ParahoricType.slug, ParahoricType.describe = _slug, _describe


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


def minimum_proof(r: int) -> MinimumProof:
    """For every maximal type at rank r: certify that the factor is a
    polynomial with integer coefficients, that substituting q = 2 + u
    yields nonnegative coefficients (so the factor is nondecreasing for
    q >= 2), and that its value at q = 2 exceeds 4; raises
    LocalFactorError when either check fails."""
    from .field_path import MinimumProof, TypeMinimum, _quotient, taylor_shift

    entries = []
    for t in enumerate_maximal_types(r):
        coeffs = _quotient(t, r)
        shifted = taylor_shift(coeffs, 2)
        if any(c < 0 for c in shifted):
            raise LocalFactorError(f"{t.slug()} at rank {r}: shifted coefficients go negative")
        at2 = Fraction(shifted[0] if shifted else 0)  # p(2 + u) at u = 0
        if at2 <= 4:
            raise LocalFactorError(f"{t.slug()} at rank {r}: value {at2} at q=2 does not exceed 4")
        entries.append(TypeMinimum(t, coeffs, at2))
    return MinimumProof(entries=tuple(entries), minimum=min(e.value_at_two for e in entries))


# ---------------------------------------------------------------------------
# Prasad's order formula, and its identity with the closed forms
# ---------------------------------------------------------------------------


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


def calibrate_oracle(r: int, qs: tuple[int, ...] = (2, 3, 4, 5, 7, 8, 9)) -> dict[str, Fraction]:
    """Prove that every closed form at rank r is Prasad's order formula as a
    rational function of q; returns the ratio, 1, per type.

    q and the Phi_n are distinct primes of Z[q], so the two agree at every q
    exactly when their powers of q agree and, cross-multiplied, their
    Phi_n multisets do.  Raises LocalFactorError naming the type and the
    rank otherwise.  Each q in ``qs`` must be a prime power; none is
    evaluated at."""
    from .field_path import _check_q, _closed_form, _cyclotomic, _order_formula

    for q in qs:
        _check_q(q)
    for t in enumerate_maximal_types(r):
        power, num, den = _order_formula(t, r)
        closed_num, closed_den = _closed_form(t, r)
        if power != 0 or _cyclotomic(closed_num + den) != _cyclotomic(num + closed_den):
            raise LocalFactorError(f"{t.slug()} at rank {r}: closed form differs from Prasad's order formula")
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
