"""The proof driver: rigorous discriminant bounds, degree exclusions,
candidate enumeration, and per-rank nonexistence sections.

Bounding strategy: a maximal arithmetic subgroup with |chi| <= 1 forces
the defining field's discriminant below an explicit cutoff obtained from
the covolume formula together with the class number bound
h <= 16 (pi/12)^d |D| and zeta(2j) > 1 (first pass), and then again with
class number pinned to 1 (second pass).  Degrees d >= 5 die against the
discriminant floor |D| > 6.5^d.  All transcendental quantities flow
through rational interval enclosures; all cutoff integers come from
exact integer comparisons.  Only a section states its rank, and no
record holds a flag that a raise already guarantees.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .exact_arith import RationalInterval, _int_nthroot, pi_enclosure
from .euler_char import (
    ArithmeticDatum,
    C_of_r,
    build_euler_char,
    chi_principal_numeric,
    reciprocal_integer_obstruction,
)
from .field_tables import FieldTable, NumberFieldRecord, query
from .local_factors import calibrate_oracle, minimum_proof


class SearchError(Exception):
    pass


class BoundsMode(enum.Enum):
    CLASS_NUMBER_BOUNDED = "class-number-bounded"  # h eliminated via the analytic bound
    CLASS_NUMBER_ONE = "class-number-one"  # h = 1 assumed


DISCRIMINANT_FLOOR_BASE = Fraction(13, 2)  # |D| > 6.5^d for degree d >= 5 (external axiom)
SEARCH_DEGREES = (2, 3, 4)
BOUNDS_PRECISION_BITS = 160  # working precision of C(r) and pi in the bounds passes and the exclusion


def _largest_int_with_power_at_most(bound: Fraction, exponent: int) -> int:
    """Largest X >= 0 with X^exponent <= bound, for bound >= 0: an integer
    power is at most bound exactly when it is at most floor(bound), so X is
    the exact integer root of floor(bound)."""
    return _int_nthroot(bound.numerator // bound.denominator, exponent)


# ``threshold_squared`` encloses T^2 in X^(2e) <= T^2, ``doubled_exponent`` is
# the integer 2e, and ``enclosure_decisive`` says that both ends of the
# enclosure give the same cutoff ``disc_upper``.
BoundsPass = namedtuple("BoundsPass", "degree mode disc_upper threshold_squared doubled_exponent enclosure_decisive")


def compute_bounds_pass(r: int, degree: int, mode: BoundsMode) -> BoundsPass:
    """The largest admissible |D| at this rank/degree under the chosen
    class-number assumption.

    The defining inequality X^e <= T has a half-integer exponent for odd
    rank, so the decision is taken on X^(2e) <= T^2 with exact integers.
    A discriminant is excluded only when it beats the upper end of the
    threshold enclosure, which is the sound direction (candidates may
    only be over-included, never missed).
    """
    if r < 2 or degree < 2:
        raise SearchError("bounds require rank >= 2 and degree >= 2")
    c = C_of_r(r, BOUNDS_PRECISION_BITS)
    pi_iv = pi_enclosure(bits=BOUNDS_PRECISION_BITS)
    if mode is BoundsMode.CLASS_NUMBER_BOUNDED:
        threshold = (pi_iv / c.scale(6)).pow_int(degree).scale(8)
        doubled_exponent = 2 * r * r + r - 2
    else:
        threshold = c.reciprocal().scale(2).pow_int(degree).scale(Fraction(1, 2))
        doubled_exponent = 2 * r * r + r
    t_sq = threshold.pow_int(2)
    disc_upper = _largest_int_with_power_at_most(t_sq.hi, doubled_exponent)
    lo_cut = _largest_int_with_power_at_most(t_sq.lo, doubled_exponent)
    return BoundsPass(
        degree=degree,
        mode=mode,
        disc_upper=disc_upper,
        threshold_squared=t_sq,
        doubled_exponent=doubled_exponent,
        enclosure_decisive=(lo_cut == disc_upper),
    )


def disc_upper_bound(r: int, degree: int, mode: BoundsMode = BoundsMode.CLASS_NUMBER_BOUNDED) -> int:
    return compute_bounds_pass(r, degree, mode).disc_upper


LowDegreeRow = namedtuple("LowDegreeRow", "degree disc_upper minimal_disc excluded")  # excluded: the cutoff is below it

# ``growth_factor`` encloses (6 C(r)/pi) * 6.5^(r^2 + r/2 - 1) and
# ``value_at_degree_five`` (1/8) * growth^5, each of which must exceed 1;
# ``low_degree`` holds the LowDegreeRows of the r >= 6 sections.
HighDegreeExclusion = namedtuple("HighDegreeExclusion", "growth_factor value_at_degree_five low_degree")


def _low_degree_rows(passes: Iterable[BoundsPass], table: FieldTable) -> tuple[LowDegreeRow, ...]:
    """Compare each first-pass cutoff with the smallest discriminant of its degree."""
    rows = []
    for p in passes:
        floor = table.minimal_disc(p.degree)
        if floor is None:
            raise SearchError(f"table has no degree-{p.degree} records to bound against")
        rows.append(
            LowDegreeRow(
                degree=p.degree, disc_upper=p.disc_upper, minimal_disc=floor, excluded=p.disc_upper < floor
            )
        )
    return tuple(rows)


def high_degree_exclusion(r: int, table: FieldTable | None = None) -> HighDegreeExclusion:
    """Certify that degrees d >= 5 are impossible at rank r: plugging the
    floor |D| > 6.5^d into the first-pass inequality already exceeds 1 at
    d = 5, and the per-degree growth factor exceeds 1, so every higher
    degree follows.  Failure of either check raises.

    When a table is supplied, the d in {2,3,4} cutoffs are also compared
    against the smallest totally real discriminant of each degree (the
    bound-only exclusion recorded for ranks >= 6).
    """
    c = C_of_r(r, BOUNDS_PRECISION_BITS)
    pi_iv = pi_enclosure(bits=BOUNDS_PRECISION_BITS)
    doubled = 2 * r * r + r - 2
    growth_sq = c.scale(6).pow_int(2) / pi_iv.pow_int(2)
    growth_sq = growth_sq * RationalInterval.exact(DISCRIMINANT_FLOOR_BASE**doubled)
    growth = growth_sq.sqrt(BOUNDS_PRECISION_BITS)
    at_five = growth.pow_int(5).scale(Fraction(1, 8))
    if not growth.strictly_greater_than(1):
        raise SearchError(f"r={r}: per-degree growth factor does not exceed 1")
    if not at_five.strictly_greater_than(1):
        raise SearchError(f"r={r}: degree-5 exclusion inequality failed")
    rows: tuple[LowDegreeRow, ...] = ()
    if table is not None:
        passes = (compute_bounds_pass(r, d, BoundsMode.CLASS_NUMBER_BOUNDED) for d in SEARCH_DEGREES)
        rows = _low_degree_rows(passes, table)
    return HighDegreeExclusion(growth_factor=growth, value_at_degree_five=at_five, low_degree=rows)


FIELD_VERDICTS = "field-verdicts"
BOUND_EXCLUSION = "bound-exclusion"


def regime(r: int) -> str:
    """The evidence label of a rank >= 3 section.

    Ranks 3..5 (``field-verdicts``) re-filter the candidates with the
    class-number-one pass and record both passes and the candidate list.
    From rank 6 on (``bound-exclusion``) the section records the
    first-pass cutoffs against the smallest discriminant of each degree,
    and pass two is not run: on the bundled table it removes no further
    field.  The split is a certificate-format decision, not a cost one
    (with C(r) and pi enclosed, pass two takes about 0.1 ms per rank at
    r = 13..15): each section's ``kind`` and recorded keys are pinned by
    the expected benchmark certificates and the golden-byte tests.
    """
    return FIELD_VERDICTS if r <= 5 else BOUND_EXCLUSION


# The pass-two fields are None where the regime skips pass two.
DegreeAudit = namedtuple("DegreeAudit", "degree pass_one pass_one_discs pass_two pass_two_discs", defaults=(None, None))
CandidateEnumeration = namedtuple("CandidateEnumeration", "audits records")  # records: the final candidates, sorted


def enumerate_candidates(r: int, table: FieldTable) -> CandidateEnumeration:
    """Candidate search over degrees 2..4.

    Pass one bounds |D| without class-number knowledge and verifies that
    every survivor has h = 1 (raising loudly otherwise, since the
    certification flow depends on it).  In the ``field-verdicts`` regime
    pass two re-filters with the class-number-one bound; otherwise the
    pass-one survivors are the candidates.  Higher degrees are handled
    separately by ``high_degree_exclusion``.
    """
    two_pass = regime(r) == FIELD_VERDICTS
    audits: list[DegreeAudit] = []
    final: list[NumberFieldRecord] = []
    for d in SEARCH_DEGREES:
        p1 = compute_bounds_pass(r, d, BoundsMode.CLASS_NUMBER_BOUNDED)
        fields = query(table, d, p1.disc_upper) if p1.disc_upper >= 1 else []
        bad = [f for f in fields if f.h != 1]
        if bad:
            raise SearchError(
                f"r={r}, degree {d}: pass-one survivors with h > 1: "
                + ", ".join(f"{f.label} (h={f.h})" for f in bad)
            )
        audit = DegreeAudit(degree=d, pass_one=p1, pass_one_discs=tuple(f.disc for f in fields))
        if two_pass:
            p2 = compute_bounds_pass(r, d, BoundsMode.CLASS_NUMBER_ONE)
            fields = [f for f in fields if f.disc <= p2.disc_upper]
            audit = audit._replace(pass_two=p2, pass_two_discs=tuple(f.disc for f in fields))
        audits.append(audit)
        final.extend(fields)
    final.sort(key=lambda f: (f.degree, f.disc))
    return CandidateEnumeration(audits=tuple(audits), records=tuple(final))


# ---------------------------------------------------------------------------
# Field verdicts and per-rank sections
# ---------------------------------------------------------------------------


class FieldVerdict(namedtuple("FieldVerdict", "record obstruction euler")):
    __slots__ = ()

    @property
    def conclusion(self) -> str:
        return "obstructed" if self.obstruction.obstructed else "unobstructed"


def field_verdict(rec: NumberFieldRecord, r: int) -> FieldVerdict:
    """The obstruction verdict and Euler data of one field at rank r, in exact arithmetic."""
    datum = ArithmeticDatum(field=rec, r=r)
    obstruction = reciprocal_integer_obstruction(datum)
    return FieldVerdict(record=rec, obstruction=obstruction, euler=build_euler_char(datum, obstruction.product))


def dual_path_check(section: CertificateSection, precision_bits: int) -> None:
    """Cross-check each verdict of a section, rank 2's included: enclose
    |chi(Lambda)| along the transcendental path at ``precision_bits`` P and
    raise SearchError unless the enclosure holds the exact value and is at
    most 2^(8 - P) relative wide.  The tests run it; certify and verify do not."""
    r = section.r
    for v in section.verdicts:
        label, exact = v.record.label, v.euler.chi_lambda
        enclosure = chi_principal_numeric(ArithmeticDatum(field=v.record, r=r), precision_bits)
        if exact not in enclosure:
            raise SearchError(f"{label}, r={r}: transcendental enclosure does not contain the exact value")
        if enclosure.width > exact * Fraction(2) ** (8 - precision_bits):
            raise SearchError(
                f"{label}, r={r}: transcendental enclosure is wider than 2^(8 - {precision_bits}) relative"
            )


VERDICT_CERTIFIED = "nonexistence certified"
VERDICT_INCONCLUSIVE = "inconclusive"
SURVIVOR_NOTE = "bound-only exclusion left survivors; their zeta-numerator obstruction decides the rank"


# One rank r (the dimension n is 2r); ``kind`` is regime(r) for r >= 3 and
# "failure-demo" for r = 2, and ``enumeration`` is recorded in the
# field-verdicts regime only.
CertificateSection = namedtuple(
    "CertificateSection",
    "r kind verdict verdicts local_factor_proof enumeration high_degree notes",
    defaults=(None, None, None, ()),
)


def certify_section(r: int, table: FieldTable) -> CertificateSection:
    """Run the whole argument for one rank and package the result.

    Every rank >= 3 takes one path: bound the discriminant at degrees 2..4
    (degrees >= 5 die against the discriminant floor), give each surviving
    field an obstruction verdict, attach the local-factor integrality
    proof when any field survives (after ``calibrate_oracle`` proves each
    closed form is Prasad's factor), and certify when every survivor is
    obstructed.  ``regime(r)`` only decides which evidence is recorded.
    The verifier rebuilds with this same call.  Rank 2 is never certified
    (see ``offline._scan_rank_two``).
    """
    if r < 2:
        raise SearchError("rank must be at least 2")
    if r == 2:
        from .offline import _scan_rank_two

        return _scan_rank_two(table)
    kind = regime(r)
    high = high_degree_exclusion(r)
    enumeration = enumerate_candidates(r, table)
    candidates = enumeration.records
    if kind == BOUND_EXCLUSION:
        # The section records the pass-one cutoffs as rows against the
        # smallest discriminants, not the enumeration (see ``regime``).
        high = high._replace(low_degree=_low_degree_rows((a.pass_one for a in enumeration.audits), table))
        enumeration = None
    verdicts = tuple(field_verdict(rec, r) for rec in candidates)
    if verdicts:
        calibrate_oracle(r)  # raises LocalFactorError unless each closed form is Prasad's factor
    certified = all(v.obstruction.obstructed for v in verdicts)
    return CertificateSection(
        r=r,
        kind=kind,
        verdict=VERDICT_CERTIFIED if certified else VERDICT_INCONCLUSIVE,
        verdicts=verdicts,
        local_factor_proof=minimum_proof(r) if verdicts else None,
        enumeration=enumeration,
        high_degree=high,
        notes=(SURVIVOR_NOTE,) if verdicts and kind == BOUND_EXCLUSION else (),
    )
