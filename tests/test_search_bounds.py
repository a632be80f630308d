import hashlib
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from hypeuler import search_bounds
from hypeuler.certificate import MAX_RANK
from hypeuler.characters_zeta import CharacterError
from hypeuler.euler_char import ArithmeticDatum, C_of_r, chi_principal_numeric
from hypeuler.exact_arith import RationalInterval, format_rational, pi_enclosure
from hypeuler.field_tables import load_table, parse_table_text
from hypeuler.search_bounds import (
    VERDICT_CERTIFIED,
    VERDICT_INCONCLUSIVE,
    BoundsMode,
    CertificateSection,
    SearchError,
    certify_section,
    compute_bounds_pass,
    disc_upper_bound,
    dual_path_check,
    enumerate_candidates,
    field_verdict,
    high_degree_exclusion,
    regime,
)


@pytest.fixture(scope="module")
def table():
    return load_table()


def bound_oracle(r, d, mode):
    """Independent high-precision oracle for the discriminant cutoffs."""
    with mp.workdps(60):
        C = mp.mpf(1)
        for j in range(1, r + 1):
            C *= mp.factorial(2 * j - 1) / (2 * mp.pi) ** (2 * j)
        if mode is BoundsMode.CLASS_NUMBER_BOUNDED:
            rhs = 8 * (mp.pi / (6 * C)) ** d
            e = mp.mpf(r * r) + mp.mpf(r) / 2 - 1
        else:
            rhs = mp.mpf(1) / 2 * (2 / C) ** d
            e = mp.mpf(r * r) + mp.mpf(r) / 2
        return int(mp.floor(mp.exp(mp.log(rhs) / e)))


def growth_oracle(r, floor_base):
    """The per-degree growth factor (6 C(r) / pi) b^(r^2 + r/2 - 1) of the
    degree exclusion at rank r for a discriminant floor b^d, at the caller's
    mpmath precision."""
    C = mp.mpf(1)
    for j in range(1, r + 1):
        C *= mp.factorial(2 * j - 1) / (2 * mp.pi) ** (2 * j)
    e = mp.mpf(r * r) + mp.mpf(r) / 2 - 1
    return (6 * C / mp.pi) * (mp.mpf(floor_base.numerator) / floor_base.denominator) ** e


def as_mpf(x):
    return mp.mpf(x.numerator) / x.denominator


class TestDiscUpperBounds:
    def test_published_rank3_bounds(self):
        assert disc_upper_bound(3, 2) == 28
        assert disc_upper_bound(3, 3) == 134
        assert disc_upper_bound(3, 4) == 640

    def test_refined_bounds(self):
        one = BoundsMode.CLASS_NUMBER_ONE
        assert disc_upper_bound(3, 2, one) == 20
        assert disc_upper_bound(4, 2, one) == 11
        assert disc_upper_bound(5, 2, one) == 7

    @pytest.mark.parametrize("r", range(3, 9))
    @pytest.mark.parametrize("d", (2, 3, 4))
    @pytest.mark.parametrize("mode", list(BoundsMode))
    def test_against_oracle(self, r, d, mode):
        assert disc_upper_bound(r, d, mode) == bound_oracle(r, d, mode)

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_nonincreasing_in_rank(self, d):
        values = [disc_upper_bound(r, d) for r in range(3, 13)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("r", (3, 4, 5, 6))
    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_cutoff_tight_and_decisive(self, r, d):
        for mode in BoundsMode:
            p = compute_bounds_pass(r, d, mode)
            X, e2 = p.disc_upper, p.doubled_exponent
            # at X the bound stays admissible, at X+1 it rigorously exceeds 1
            assert F(X) ** e2 <= p.threshold_squared.hi
            assert F(X + 1) ** e2 > p.threshold_squared.hi
            # the enclosure is tight enough that both endpoints agree
            assert p.enclosure_decisive

    @pytest.fixture
    def wide_pass(self, monkeypatch):
        """Pass one at r = 3, degree 2, with C(3) known only to a factor of 2
        either way: T^2 then spans a factor of 256, and its two ends give
        different cutoffs (every real pass is decisive, so only this shows
        which end the cutoff is taken from).  ``_threshold``'s memo is cleared
        before and after, so the wide C(3) is neither missed nor kept."""

        def wide(r, bits):
            c = C_of_r(r, bits)
            return RationalInterval(c.lo / 2, c.hi * 2)

        search_bounds._threshold.cache_clear()
        monkeypatch.setattr(search_bounds, "C_of_r", wide)
        yield compute_bounds_pass(3, 2, BoundsMode.CLASS_NUMBER_BOUNDED)
        search_bounds._threshold.cache_clear()

    def test_wide_enclosure_cuts_at_its_upper_end(self, wide_pass):
        X, e2, t_sq = wide_pass.disc_upper, wide_pass.doubled_exponent, wide_pass.threshold_squared
        assert F(X) ** e2 <= t_sq.hi < F(X + 1) ** e2
        assert F(X) ** e2 > t_sq.lo  # the lower end alone would exclude X

    def test_wide_enclosure_is_not_decisive(self, wide_pass):
        assert wide_pass.enclosure_decisive is False


# 2e = 2r^2 + r - 2 at rank 27 is 1,483, and 2r^2 + r is 1,485
cutoff_exponents = st.integers(min_value=1, max_value=1485)


@st.composite
def near_perfect_powers(draw):
    """(m, e, k) with m 2^e a perfect k-th power, one off it, or between the
    two plus a proper dyadic fraction j / 2^s (e = -s)."""
    k = draw(cutoff_exponents)
    x = draw(st.integers(min_value=0, max_value=2 ** max(1, 3000 // k)))
    s = draw(st.integers(min_value=0, max_value=64))
    m = (x**k + draw(st.sampled_from((-1, 0, 1)))) * 2**s + draw(st.integers(min_value=0, max_value=2**s - 1))
    return max(m, 0), -s, k


class TestCutoffRoot:
    """``_floor_root`` is the exact floor root of the floor of the dyadic
    bound m 2^e, taken on the mantissa; nothing after the root corrects it."""

    @staticmethod
    def assert_largest(m, e, k):
        x, b = search_bounds._floor_root(m, e, k), m * F(2) ** e
        assert x >= 0 and F(x) ** k <= b < F(x + 1) ** k

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**200), st.integers(min_value=-400, max_value=200), cutoff_exponents)
    def test_random_bounds(self, m, e, k):
        self.assert_largest(m, e, k)

    @settings(max_examples=200, deadline=None)
    @given(near_perfect_powers())
    def test_perfect_powers_and_neighbours(self, case):
        self.assert_largest(*case)


def endpoint_bits(iv):
    return max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in (iv.lo, iv.hi))


def mantissa_bits(x):
    """Bit length of the odd part of a dyadic rational's numerator."""
    assert x.denominator & (x.denominator - 1) == 0, "endpoint is not dyadic"
    n = abs(x.numerator)
    return (n >> ((n & -n).bit_length() - 1)).bit_length() if n else 0


class TestEndpointSizes:
    """Endpoints are rounded to the working precision, so their size is
    set by the precision and the magnitude, not by the length of the
    computation (exact endpoints reached 640k bits for C(30) and 5.1M bits
    for these thresholds)."""

    def test_rank30_constant(self):
        iv = C_of_r(30, 160)
        assert endpoint_bits(iv) < 2000
        assert max(mantissa_bits(iv.lo), mantissa_bits(iv.hi)) <= iv.prec + 1

    @pytest.mark.parametrize("mode", list(BoundsMode))
    def test_rank30_threshold(self, mode):
        t_sq = compute_bounds_pass(30, 4, mode).threshold_squared
        # T^2 is about 2^-8000 here, so the power-of-two denominator alone
        # needs some 8000 bits; the mantissa stays at the working precision
        assert endpoint_bits(t_sq) < 10_000
        assert max(mantissa_bits(t_sq.lo), mantissa_bits(t_sq.hi)) <= t_sq.prec + 1

    def test_rank100_growth_factor(self):
        # the square root is taken on the mantissas, so they keep the size of
        # the working precision (rooting the ends as Fractions gave mantissas
        # of 55,759 bits here)
        growth = high_degree_exclusion(100).growth_factor
        lo, hi, _ = growth.dyadic_ends()
        assert growth.prec == search_bounds.BOUNDS_PRECISION_BITS
        assert max(lo.bit_length(), hi.bit_length()) <= search_bounds.BOUNDS_PRECISION_BITS + 2


class TestPrecisionContract:
    """An enclosure carries exactly the precision its caller asks for, so the
    bounds layer runs at BOUNDS_PRECISION_BITS and no higher."""

    @pytest.mark.parametrize("bits", [64, 160, 192, 256])
    def test_constant_carries_the_precision_asked_for(self, bits):
        for r in (3, 15, 100):
            assert C_of_r(r, bits).prec == bits

    def test_pi_rounded_once_at_every_precision(self):
        # rounding outward at ``bits`` moves each end by under 2^(2 - bits), so
        # the width stays below 2^(3 - bits), inside the checked 2^(4 - bits)
        with mp.workprec(600):
            for bits in range(1, 501):
                enc = pi_enclosure(bits)
                assert enc.prec == bits and enc.width < F(2) ** (3 - bits)
                assert as_mpf(enc.lo) < mp.pi < as_mpf(enc.hi)

    @pytest.mark.parametrize("mode", list(BoundsMode))
    @pytest.mark.parametrize("r", [3, 15, 100])
    def test_bounds_layer_runs_at_its_precision(self, r, mode):
        _, base, _ = search_bounds._threshold(r, mode)
        hd = high_degree_exclusion(r)
        ivs = [base, hd.growth_factor, hd.value_at_degree_five]
        ivs += [compute_bounds_pass(r, d, mode).threshold_squared for d in search_bounds.SEARCH_DEGREES]
        assert [iv.prec for iv in ivs] == [search_bounds.BOUNDS_PRECISION_BITS] * len(ivs)


class TestHighDegreeExclusion:
    @pytest.mark.parametrize("r", (3, 4, 5))
    def test_degree_five_floor(self, r):
        hd = high_degree_exclusion(r)
        assert hd.growth_factor.strictly_greater_than(1)
        assert hd.value_at_degree_five.strictly_greater_than(1)

    @pytest.mark.parametrize("r", (3, 6, 15, 27, 50, 100))
    def test_ends_hold_the_true_values_tightly(self, r):
        # the floor 6.5^(2e) is enclosed at the working precision, not
        # exactly, so both values are checked against mpmath far above it
        hd = high_degree_exclusion(r)
        with mp.workprec(400):
            growth = growth_oracle(r, F(13, 2))
            for iv, true in ((hd.growth_factor, growth), (hd.value_at_degree_five, growth**5 / 8)):
                assert as_mpf(iv.lo) <= true <= as_mpf(iv.hi)
                assert iv.width <= iv.lo * F(2) ** -140

    def test_growth_factor_at_most_one_raises(self, monkeypatch):
        # a floor of 4^d leaves a per-degree growth of about 0.19 at r = 3
        with mp.workdps(40):
            assert growth_oracle(3, F(4)) <= 1
        monkeypatch.setattr(search_bounds, "DISCRIMINANT_FLOOR_BASE", F(4))
        with pytest.raises(SearchError, match="growth factor does not exceed 1"):
            high_degree_exclusion(3)

    def test_degree_five_value_at_most_one_raises(self, monkeypatch):
        # a floor of 4.8^d gives a growth of about 1.08 at r = 3, above 1 but
        # at most 8^(1/5), so the degree-5 value (1/8) growth^5 is about 0.18
        with mp.workdps(40):
            assert 1 < growth_oracle(3, F(24, 5)) <= mp.mpf(8) ** (mp.mpf(1) / 5)
        monkeypatch.setattr(search_bounds, "DISCRIMINANT_FLOOR_BASE", F(24, 5))
        with pytest.raises(SearchError, match="degree-5 exclusion inequality failed"):
            high_degree_exclusion(3)

    def test_rank6_low_degree_rows(self, table):
        hd = high_degree_exclusion(6, table=table)
        rows = {row.degree: row for row in hd.low_degree}
        assert rows[2].disc_upper == 5 and rows[2].minimal_disc == 5 and not rows[2].excluded
        assert rows[3].excluded and rows[4].excluded
        assert not all(row.excluded for row in hd.low_degree)

    @pytest.mark.parametrize("r", range(7, 13))
    def test_rank7_and_up_fully_excluded(self, r, table):
        assert all(row.excluded for row in high_degree_exclusion(r, table=table).low_degree)


class TestEnumeration:
    def test_rank3_candidates(self, table):
        e = enumerate_candidates(3, table)
        assert [(rec.degree, rec.disc) for rec in e.records] == [
            (2, 5), (2, 8), (2, 12), (2, 13), (2, 17), (3, 49), (3, 81),
        ]
        assert all(rec.h == 1 for rec in e.records)

    def test_rank4_candidates(self, table):
        e = enumerate_candidates(4, table)
        assert [(rec.degree, rec.disc) for rec in e.records] == [(2, 5), (2, 8)]
        # the cubic possibility dies in pass one already
        d3 = next(a for a in e.audits if a.degree == 3)
        assert d3.pass_one.disc_upper < 49 and d3.pass_one_discs == ()

    def test_rank5_candidates(self, table):
        e = enumerate_candidates(5, table)
        assert [(rec.degree, rec.disc) for rec in e.records] == [(2, 5)]

    def test_pass_two_subset_of_pass_one(self, table):
        for r in (3, 4, 5):
            for audit in enumerate_candidates(r, table).audits:
                assert set(audit.pass_two_discs) <= set(audit.pass_one_discs)
                assert audit.pass_two.disc_upper <= audit.pass_one.disc_upper

    def test_field_at_the_pass_two_cutoff_is_admitted(self, table, monkeypatch):
        # no bundled field sits at a pass-two cutoff (20 at r = 3, degree 2),
        # so that cutoff is moved onto D = 17, which must stay a candidate
        def at_seventeen(r, degree, mode):
            p = compute_bounds_pass(r, degree, mode)
            return p._replace(disc_upper=17) if (degree, mode) == (2, BoundsMode.CLASS_NUMBER_ONE) else p

        monkeypatch.setattr(search_bounds, "compute_bounds_pass", at_seventeen)
        audit = enumerate_candidates(3, table).audits[0]
        assert (audit.degree, audit.pass_two.disc_upper) == (2, 17)
        assert audit.pass_two_discs == (5, 8, 12, 13, 17)

    def test_pass_one_class_number_guard(self):
        doctored = """hypeuler-fields v1
# completeness: 2 1000
# completeness: 3 1000
# completeness: 4 1000
2.2.5.1|2|5|2|1|1|5|-
"""
        t = parse_table_text(doctored)
        with pytest.raises(SearchError, match=r"^r=3, degree 2: pass-one survivors with h > 1: 2.2.5.1 \(h=2\)$"):
            enumerate_candidates(3, t)


def alone(rec, r):
    """A section of rank r that holds rec's verdict alone."""
    return CertificateSection(r=r, kind=regime(r), verdict=VERDICT_CERTIFIED, verdicts=(field_verdict(rec, r),))


class TestFieldVerdicts:
    def test_rank3_field_verdict(self, table):
        v = field_verdict(table.by_disc(2, 5), 3)
        assert v.conclusion == "obstructed"
        assert v.obstruction.witness == 67

    def test_precision_512_meets_target(self, table):
        # each zeta factor is enclosed to width 2^-512, so the whole
        # enclosure's relative width stays near 2^-512 as well
        rec = table.by_disc(2, 5)
        exact = field_verdict(rec, 3).euler.chi_lambda
        enclosure = chi_principal_numeric(ArithmeticDatum(field=rec, r=3), precision_bits=512)
        assert exact in enclosure
        assert enclosure.width / exact < F(1, 2**505)
        assert enclosure.prec >= 512

    @pytest.mark.parametrize("r", [2, 3])
    def test_too_wide_enclosure_raises(self, table, monkeypatch, r):
        # contains the exact value, but is 2^(8 - 128) relative wide and a bit more
        def wide(datum, precision_bits):
            exact = field_verdict(datum.field, datum.r).euler.chi_lambda
            return RationalInterval(exact * (1 - F(1, 2**120)), exact * (1 + F(1, 2**121)))

        monkeypatch.setattr(search_bounds, "chi_principal_numeric", wide)
        with pytest.raises(SearchError, match=rf"^2\.2\.5\.1, r={r}: transcendental enclosure is wider than"):
            dual_path_check(certify_section(r, table), 128)

    @pytest.mark.parametrize("bits", [64, 128, 192])
    def test_width_bound_is_inclusive(self, table, monkeypatch, bits):
        # an enclosure exactly 2^(8 - P) relative wide passes the self-check
        rec = table.by_disc(2, 5)
        exact = field_verdict(rec, 3).euler.chi_lambda
        edge = RationalInterval(exact, exact * (1 + F(2) ** (8 - bits)))
        monkeypatch.setattr(search_bounds, "chi_principal_numeric", lambda datum, precision_bits: edge)
        dual_path_check(alone(rec, 3), bits)

    @pytest.mark.parametrize("r", [2, 3])
    def test_enclosure_missing_exact_raises(self, table, monkeypatch, r):
        # narrow, but just above the exact value
        def above(datum, precision_bits):
            exact = field_verdict(datum.field, datum.r).euler.chi_lambda
            return RationalInterval(exact * (1 + F(1, 2**200)), exact * (1 + F(1, 2**199)))

        monkeypatch.setattr(search_bounds, "chi_principal_numeric", above)
        with pytest.raises(SearchError, match=rf"^2\.2\.5\.1, r={r}: transcendental enclosure does not contain"):
            dual_path_check(certify_section(r, table), 128)

    @pytest.mark.parametrize("bits", [64, 128, 192, 256])
    def test_honest_width_leaves_room(self, table, bits):
        # every recorded verdict's enclosure at r = 2..6 is at least 9 bits inside the 2^(8 - P) bound
        for r in (2, 3, 4, 5, 6):
            section = certify_section(r, table)
            dual_path_check(section, bits)
            for v in section.verdicts:
                enclosure = chi_principal_numeric(ArithmeticDatum(field=v.record, r=r), precision_bits=bits)
                assert v.euler.chi_lambda in enclosure
                assert enclosure.width <= v.euler.chi_lambda * F(1, 2 ** (bits + 1)), (v.record.label, r)

    @pytest.mark.parametrize("bits", [1024, 65536])
    def test_precision_past_enclosure_range_fails_fast(self, table, bits):
        # about 800 bits is the most the 4096-term Hurwitz round reaches; past
        # it every shorter round is skipped and that round fails fast, and at
        # 65536 bits the zeta ladder rules out every round before pi or any
        # Hurwitz enclosure is built
        section = certify_section(3, table)
        t0 = time.perf_counter()
        with pytest.raises(CharacterError, match=rf"above target 2\^-{bits} after 4096 terms$"):
            dual_path_check(section, bits)
        took = time.perf_counter() - t0
        assert took < 2.0, f"failing at {bits} bits took {took:.2f} s"

    def test_proof_driver_never_runs_dual_path(self, table, monkeypatch):
        def unreachable(datum, precision_bits):
            raise AssertionError("the proof driver ran the dual path")

        monkeypatch.setattr(search_bounds, "chi_principal_numeric", unreachable)
        assert field_verdict(table.by_disc(2, 5), 3).obstruction.witness == 67
        for r in (2, 3, 6):
            certify_section(r, table)
        # no rank above 6 records a verdict, so test_honest_width_leaves_room encloses every recorded pair
        assert not any(certify_section(r, table).verdicts for r in range(7, MAX_RANK + 1))

    def test_witness_divides_odd_numerator(self, table):
        for D in (8, 12, 13, 17):
            v = field_verdict(table.by_disc(2, D), 3)
            assert v.obstruction.odd_numerator % v.obstruction.witness == 0


EXPECTED_WITNESSES = {
    3: {5: 67, 8: 11, 12: 23, 13: 29, 17: 41, 49: 79, 81: 43},
    4: {5: 19, 8: 11},
    5: {5: 19},
}


class TestCertifySections:
    @pytest.mark.parametrize("r", (3, 4, 5))
    def test_low_rank_sections(self, r, table):
        s = certify_section(r, table)
        assert s.verdict == VERDICT_CERTIFIED
        assert s.kind == "field-verdicts"
        got = {v.record.disc: v.obstruction.witness for v in s.verdicts}
        assert got == EXPECTED_WITNESSES[r]
        assert s.local_factor_proof is not None

    def test_rank2_never_certified(self):
        # every field of this table is obstructed at rank 2, but no
        # local-factor proof exists below rank 3
        only_d8 = """hypeuler-fields v1
# completeness: 2 1000
# completeness: 3 2000
# completeness: 4 10000
2.2.8.1|2|8|1|1|1|8|-
"""
        s = certify_section(2, parse_table_text(only_d8))
        assert [v.record.label for v in s.verdicts] == ["2.2.8.1"]
        assert s.verdicts[0].obstruction.obstructed
        assert s.verdict == VERDICT_INCONCLUSIVE
        assert s.local_factor_proof is None

    @pytest.mark.parametrize(("r", "passes"), [(3, 6), (5, 6), (6, 3), (8, 3)])
    def test_bounds_passes_per_section(self, r, passes, table, monkeypatch):
        # pass two runs only in the field-verdicts regime (r <= 5)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return compute_bounds_pass(*args, **kwargs)

        monkeypatch.setattr(search_bounds, "compute_bounds_pass", counting)
        certify_section(r, table)
        assert len(calls) == passes

    def test_rank2_failure_demo(self, table):
        s = certify_section(2, table)
        assert s.verdict == VERDICT_INCONCLUSIVE
        assert s.kind == "failure-demo"
        assert s.verdicts[-1].record.disc == 5
        assert not s.verdicts[-1].obstruction.obstructed
        assert any("trivial odd" in note for note in s.notes)

    def test_rank6_obstruction_fallback(self, table):
        s = certify_section(6, table)
        assert s.kind == "bound-exclusion"
        assert s.verdict == VERDICT_CERTIFIED
        assert not all(row.excluded for row in s.high_degree.low_degree)  # D = 5 survives the bounds
        got = {v.record.disc: v.obstruction.witness for v in s.verdicts}
        assert got == {5: 19}
        assert s.local_factor_proof is not None  # integrality re-proved at rank 6

    @pytest.mark.parametrize("r", (7, 9, 12))
    def test_high_rank_bound_only(self, r, table):
        s = certify_section(r, table)
        assert s.kind == "bound-exclusion"
        assert s.verdict == VERDICT_CERTIFIED
        assert s.verdicts == ()
        assert all(row.excluded for row in s.high_degree.low_degree)


# The cutoffs of every bounds pass at r = 3..27, degrees 2, 3, 4 in order.
PINNED_CUTOFFS = {
    BoundsMode.CLASS_NUMBER_BOUNDED: [28, 134, 640, 13, 46, 158, 8, 21, 59, 5, 12, 27, 3, 7, 14, 3, 5, 8, 2, 3, 5]
    + [1, 2, 3, 1, 1, 2]
    + [1] * 6
    + [0] * 42,
    BoundsMode.CLASS_NUMBER_ONE: [20, 94, 442, 11, 39, 138, 7, 20, 56, 5, 11, 27, 3, 7, 14, 2, 5, 8, 2, 3, 5]
    + [1, 2, 3, 1, 1, 2]
    + [1] * 6
    + [0] * 42,
}
# sha256 over the num/den strings of the working ends (see TestWorkingEnds):
# of T^2, C(r) and pi, and of the degree exclusion's two values
PINNED_THRESHOLD_ENDS_SHA256 = "7f48e84c778713eb98fa881ff5b9d221f3679b150366c4ed1d28a17983f1c150"
PINNED_EXCLUSION_ENDS_SHA256 = "77eff1408c1ac934cf7948efce3740ab32ceb5cfbbf034bd83e44bba98dfe57e"


class TestWorkingEnds:
    """Pin the working enclosures bit for bit, which no certificate records:
    a change to the interval arithmetic that keeps every enclosure sound
    but moves one rounded end shows here."""

    @pytest.mark.parametrize("mode", list(BoundsMode))
    def test_every_cutoff_and_decisive_flag(self, mode):
        passes = [compute_bounds_pass(r, d, mode) for r in range(3, 28) for d in (2, 3, 4)]
        assert [p.disc_upper for p in passes] == PINNED_CUTOFFS[mode]
        assert all(p.enclosure_decisive for p in passes)

    @staticmethod
    def ends_digest(ivs):
        digest = hashlib.sha256()
        for iv in ivs:
            for x in (iv.lo, iv.hi):
                digest.update(format_rational(x).encode() + b";")
        return digest.hexdigest()

    def test_threshold_ends_hash(self):
        ivs = [compute_bounds_pass(r, d, mode).threshold_squared for mode in BoundsMode for r in range(3, 28) for d in (2, 3, 4)]
        ivs += [C_of_r(r, bits) for r in range(3, 28) for bits in (160, 192)]
        ivs += [pi_enclosure(bits) for bits in (160, 192, 224)]
        assert self.ends_digest(ivs) == PINNED_THRESHOLD_ENDS_SHA256

    def test_exclusion_ends_hash(self):
        ivs = []
        for r in range(3, 28):
            hd = high_degree_exclusion(r)
            ivs += [hd.growth_factor, hd.value_at_degree_five]
        assert self.ends_digest(ivs) == PINNED_EXCLUSION_ENDS_SHA256
