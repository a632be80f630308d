"""The code that no certify or verify of a rank >= 3 runs: the polynomial
class and its kernel, the exact |chi(Lambda)|, the table validation and the
rank-2 scan.

Only a rank-2 section (``search_bounds.certify_section`` imports this module
when it builds one), the tests and ``tools/build_field_table.py`` load it, so
no other run compiles it.  It imports ``field_path``, never the reverse.
Calls from here to a function the benchmark's tracer spans go through that
function's module (``search_bounds.field_verdict``), never a name bound
here, so a traced or patched function is the one called.  The acceptance
suite reads some of these names from their old modules, which serve them
from here (see ``exact_arith.field_path_getattr``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

from . import field_tables, search_bounds
from .characters_zeta import zeta_row
from .euler_char import ArithmeticDatum
from .exact_arith import ExactArithError, Value, as_rational
from .field_path import _quotient, chi_lambda_from_product, long_division, taylor_shift
from .field_tables import FieldTable, TableError, _check_record_invariants, is_fundamental_discriminant
from .local_factors import ParahoricType
from .search_bounds import SEARCH_DEGREES, VERDICT_INCONCLUSIVE, BoundsMode, CertificateSection, FieldVerdict


# ---------------------------------------------------------------------------
# Polynomials over Q
# ---------------------------------------------------------------------------

def horner(coeffs: Sequence, x):
    """p(x) by Horner's rule, for coefficients lowest degree first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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
        raise ExactArithError(f"nonzero remainder [{coeffs}] in exact polynomial division")
    return q


def local_factor_polynomial(t: ParahoricType, r: int) -> RatPolynomial:
    """The factor as a polynomial in q with integer coefficients.

    Raises LocalFactorError when the division is inexact (which would
    break the divisibility argument the certificates rely on); the
    denominator is monic, so an exact quotient is integral.
    """
    return RatPolynomial.from_seq(_quotient(t, r))


# ---------------------------------------------------------------------------
# The exact |chi(Lambda)|
# ---------------------------------------------------------------------------


def chi_principal_exact(datum: ArithmeticDatum) -> Fraction:
    """|chi(Lambda)| as an exact rational."""
    product = math.prod(map(abs, zeta_row(datum.field, datum.r)))
    return chi_lambda_from_product(product, datum.r, datum.degree)


# ---------------------------------------------------------------------------
# Field table validation: an independent class-number oracle for real
# quadratic fields
# ---------------------------------------------------------------------------


def quadratic_class_number(D: int) -> int:
    """Class number of the real quadratic field of fundamental
    discriminant D, by cycles of reduced forms (Cohen, GTM 138, 5.6).

    A form (a, b, c) with b^2 - 4ac = D is reduced when
    |sqrt(D) - 2|a|| < b < sqrt(D).  The reduction map rho permutes the
    finitely many reduced forms, and its cycles are the narrow classes.
    The narrow class number is h when the principal cycle holds a form
    with a = -1 (the fundamental unit has norm -1) and 2h otherwise.
    """
    if not is_fundamental_discriminant(D):
        raise TableError(f"{D} is not a fundamental discriminant")
    s = math.isqrt(D)
    remaining: set[tuple[int, int, int]] = set()
    for b in range(2 - D % 2, s + 1, 2):
        n = (D - b * b) // 4  # = -ac
        for a in range((s - b) // 2 + 1, (s + b) // 2 + 1):
            if n % a == 0:
                remaining |= {(a, b, -n // a), (-a, b, n // a)}
    b = s - (s - D) % 2
    form, cycles, norm_minus_one = (1, b, (b * b - D) // 4), 0, False  # the principal cycle first
    while remaining:
        cycles += 1
        while form in remaining:
            remaining.remove(form)
            norm_minus_one |= cycles == 1 and form[0] == -1
            _, b, c = form  # form = rho(form), with r = -b mod 2|c| and sqrt(D) - 2|c| < r < sqrt(D)
            r = s - (s + b) % (2 * abs(c))
            form = (c, r, (r * r - D) // (4 * c))
        form = min(remaining, default=None)
    return cycles if norm_minus_one else cycles // 2


ValidationReport = namedtuple("ValidationReport", "ok issues")


def validate_table(table: FieldTable) -> ValidationReport:
    """Re-check all dataset invariants, recompute every quadratic class
    number with the independent oracle, and check that the quadratic
    records are exactly the fundamental discriminants up to the degree-2
    completeness bound."""
    issues: list[str] = []
    try:
        _check_record_invariants(table)
    except TableError as exc:
        issues.append(str(exc))
    quadratic = [rec for rec in table.records if rec.degree == 2]
    for rec in quadratic:
        try:
            h = quadratic_class_number(rec.disc)
        except TableError as exc:
            issues.append(f"{rec.label}: class number oracle failed: {exc}")
            continue
        if h != rec.h:
            issues.append(f"{rec.label}: recorded h={rec.h} but oracle computed h={h}")
    bound = table.completeness.get(2, 0)
    expected = {D for D in range(5, bound + 1) if is_fundamental_discriminant(D)}
    recorded = {rec.disc for rec in quadratic if rec.disc <= bound}
    if recorded != expected:
        issues.append(
            f"quadratic records up to the completeness bound {bound}: missing "
            f"{sorted(expected - recorded)}, unexpected {sorted(recorded - expected)}"
        )
    return ValidationReport(ok=not issues, issues=issues)


# ---------------------------------------------------------------------------
# Rank two
# ---------------------------------------------------------------------------


def _scan_rank_two(table: FieldTable) -> CertificateSection:
    """Rank 2 (n = 4) is always inconclusive: no local-factor integrality
    proof exists below rank 3 (``minimum_proof(2)`` raises).  The scan
    walks the h = 1 fields under the first-pass cutoffs, as far as the
    table is complete, and stops at the first field whose zeta product has
    trivial odd numerator, where the argument has no purchase at all.
    """

    def h_one_fields():
        for d in SEARCH_DEGREES:
            cutoff = search_bounds.compute_bounds_pass(2, d, BoundsMode.CLASS_NUMBER_BOUNDED).disc_upper
            reach = min(cutoff, table.completeness.get(d, 0))
            yield from (rec for rec in field_tables.query(table, d, reach) if rec.h == 1)

    verdicts: list[FieldVerdict] = []
    notes = ("no local-factor integrality proof exists below rank 3",)
    for rec in h_one_fields():
        v = search_bounds.field_verdict(rec, 2)
        verdicts.append(v)
        if not v.obstruction.obstructed:
            notes = (
                f"{rec.label}: zeta product {v.obstruction.product} has trivial odd "
                "numerator, no odd-prime witness exists",
            )
            break
    return CertificateSection(
        r=2, kind="failure-demo", verdict=VERDICT_INCONCLUSIVE, verdicts=tuple(verdicts), notes=notes
    )
