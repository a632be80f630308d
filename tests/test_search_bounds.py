from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from hypeuler import search_bounds
from hypeuler.euler_char import C_of_r
from hypeuler.field_tables import load_table, parse_table_text
from hypeuler.search_bounds import (
    VERDICT_CERTIFIED,
    VERDICT_INCONCLUSIVE,
    BoundsMode,
    PassOneClassNumberError,
    certify_section,
    compute_bounds_pass,
    disc_upper_bound,
    enumerate_candidates,
    field_verdict,
    high_degree_exclusion,
)


@pytest.fixture(scope="module")
def table():
    return load_table()


def bound_oracle(r, d, mode):
    """Independent high-precision oracle for the discriminant cutoffs."""
    mp.dps = 60
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


# 2e = 2r^2 + r - 2 at rank 27 is 1,483, and 2r^2 + r is 1,485
cutoff_exponents = st.integers(min_value=1, max_value=1485)


@st.composite
def near_perfect_powers(draw):
    """(b, k) with b a perfect k-th power, one off it, or between the two
    plus a proper fraction."""
    k = draw(cutoff_exponents)
    x = draw(st.integers(min_value=0, max_value=2 ** max(1, 3000 // k)))
    b = F(x**k + draw(st.sampled_from((-1, 0, 1))))
    b += draw(st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda t: t < 1))
    return max(b, F(0)), k


class TestCutoffRoot:
    """``_largest_int_with_power_at_most`` is the exact floor root of the
    floor of its bound; nothing after the root corrects it."""

    @staticmethod
    def assert_largest(b, k):
        x = search_bounds._largest_int_with_power_at_most(b, k)
        assert x >= 0 and F(x) ** k <= b < F(x + 1) ** k

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=0, max_value=10**60), cutoff_exponents)
    def test_random_bounds(self, b, k):
        self.assert_largest(b, k)

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


class TestHighDegreeExclusion:
    @pytest.mark.parametrize("r", (3, 4, 5))
    def test_degree_five_floor(self, r):
        hd = high_degree_exclusion(r)
        assert hd.growth_factor.strictly_greater_than(1)
        assert hd.value_at_degree_five.strictly_greater_than(1)

    def test_growth_factor_rank3_magnitude(self):
        hd = high_degree_exclusion(3)
        mp.dps = 40
        C3 = mp.mpf(1)
        for j in (1, 2, 3):
            C3 *= mp.factorial(2 * j - 1) / (2 * mp.pi) ** (2 * j)
        true = (6 * C3 / mp.pi) * mp.mpf(6.5) ** mp.mpf(9.5)
        lo = mp.mpf(hd.growth_factor.lo.numerator) / hd.growth_factor.lo.denominator
        hi = mp.mpf(hd.growth_factor.hi.numerator) / hd.growth_factor.hi.denominator
        assert lo <= true <= hi

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

    def test_pass_one_class_number_guard(self):
        doctored = """hypeuler-fields v1
# completeness: 2 1000
# completeness: 3 1000
# completeness: 4 1000
2.2.5.1|2|5|2|1|1|5|-
"""
        t = parse_table_text(doctored)
        with pytest.raises(PassOneClassNumberError, match="2.2.5.1"):
            enumerate_candidates(3, t)


class TestFieldVerdicts:
    def test_rank3_field_verdict(self, table):
        v = field_verdict(table.by_disc(2, 5), 3, precision_bits=128)
        assert v.conclusion == "obstructed"
        assert v.obstruction.witness == 67
        assert v.euler.chi_lambda in v.dual_path.enclosure

    def test_precision_512_meets_target(self, table):
        # each zeta factor is enclosed to width 2^-512, so the whole
        # enclosure's relative width stays near 2^-512 as well
        v = field_verdict(table.by_disc(2, 5), 3, precision_bits=512)
        assert v.euler.chi_lambda in v.dual_path.enclosure
        assert v.dual_path.relative_width < F(1, 2**505)
        assert v.dual_path.enclosure.prec >= 512

    def test_witness_divides_odd_numerator(self, table):
        for D in (8, 12, 13, 17):
            v = field_verdict(table.by_disc(2, D), 3, None)
            assert v.dual_path is None
            assert v.obstruction.odd_numerator % v.obstruction.witness == 0


EXPECTED_WITNESSES = {
    3: {5: 67, 8: 11, 12: 23, 13: 29, 17: 41, 49: 79, 81: 43},
    4: {5: 19, 8: 11},
    5: {5: 19},
}


class TestCertifySections:
    @pytest.mark.parametrize("r", (3, 4, 5))
    def test_low_rank_sections(self, r, table):
        s = certify_section(r, table, precision_bits=128)
        assert s.verdict == VERDICT_CERTIFIED
        assert s.kind == "field-verdicts"
        got = {v.record.disc: v.obstruction.witness for v in s.verdicts}
        assert got == EXPECTED_WITNESSES[r]
        assert s.local_factor_proof is not None and s.calibration is not None

    def test_rank2_never_certified(self):
        # every field of this table is obstructed at rank 2, but no
        # local-factor proof exists below rank 3
        only_d8 = """hypeuler-fields v1
# completeness: 2 1000
# completeness: 3 2000
# completeness: 4 10000
2.2.8.1|2|8|1|1|1|8|-
"""
        s = certify_section(2, parse_table_text(only_d8), 128)
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
        certify_section(r, table, None)
        assert len(calls) == passes

    def test_rank2_failure_demo(self, table):
        s = certify_section(2, table, precision_bits=128)
        assert s.verdict == VERDICT_INCONCLUSIVE
        assert s.kind == "failure-demo"
        assert s.verdicts[-1].record.disc == 5
        assert not s.verdicts[-1].obstruction.obstructed
        assert any("trivial odd" in note for note in s.notes)

    def test_rank6_obstruction_fallback(self, table):
        s = certify_section(6, table, precision_bits=128)
        assert s.kind == "bound-exclusion"
        assert s.verdict == VERDICT_CERTIFIED
        assert not all(row.excluded for row in s.high_degree.low_degree)  # D = 5 survives the bounds
        got = {v.record.disc: v.obstruction.witness for v in s.verdicts}
        assert got == {5: 19}
        assert s.local_factor_proof is not None  # integrality re-proved at rank 6

    @pytest.mark.parametrize("r", (7, 9, 12))
    def test_high_rank_bound_only(self, r, table):
        s = certify_section(r, table, precision_bits=128)
        assert s.kind == "bound-exclusion"
        assert s.verdict == VERDICT_CERTIFIED
        assert s.verdicts == ()
        assert all(row.excluded for row in s.high_degree.low_degree)
