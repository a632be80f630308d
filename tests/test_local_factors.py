import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypeuler import field_path, local_factors
from hypeuler.field_path import is_prime_power, taylor_shift
from hypeuler.local_factors import (
    Kind,
    LocalFactorError,
    ParahoricType,
    calibrate_oracle,
    enumerate_maximal_types,
    minimum_proof,
    table_fingerprint,
)
from hypeuler.offline import RatPolynomial, local_factor_polynomial
from oracles import order_formula_value

CALIBRATION = "closed form differs from Prasad's order formula"

PRIME_POWERS_64 = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
    37, 41, 43, 47, 49, 53, 59, 61, 64,
]


def t_split_gl1():
    return ParahoricType("split", Kind.TORUS_SPLIT)


def t_nonsplit_gl1():
    return ParahoricType("nonsplit", Kind.TORUS_NONSPLIT)


def t_top_d():
    return ParahoricType("split", Kind.TOP_D)


def t_top_2d():
    return ParahoricType("nonsplit", Kind.TOP_2D)


class TestEnumeration:
    @pytest.mark.parametrize("r,count", [(3, 8), (4, 10), (5, 12)])
    def test_counts(self, r, count):
        types = enumerate_maximal_types(r)
        assert len(types) == count
        assert len(set(t.slug() for t in types)) == count

    def test_rank_below_three_rejected(self):
        with pytest.raises(LocalFactorError):
            enumerate_maximal_types(2)

    def test_chain_ranges(self):
        types = enumerate_maximal_types(5)
        chain_d = sorted(t.i for t in types if t.kind is Kind.CHAIN_D)
        chain_2d = sorted(t.i for t in types if t.kind is Kind.CHAIN_2D)
        assert chain_d == [2, 3, 4]
        assert chain_2d == [1, 2, 3]

    def test_parameter_presence_invariant(self):
        # a type is checked at first use, before any closed form or order formula is built
        for t in (
            ParahoricType("split", Kind.CHAIN_D),  # missing i
            ParahoricType("split", Kind.TOP_D, 2),  # spurious i
            ParahoricType("nonsplit", Kind.TOP_D),  # wrong block
        ):
            with pytest.raises(LocalFactorError, match="is not a maximal type at rank 3"):
                local_factor_polynomial(t, 3)
            with pytest.raises(LocalFactorError, match="is not a maximal type at rank 3"):
                order_formula_value(t, 3, 2)


class TestValues:
    def test_published_substitutions(self):
        assert local_factor_polynomial(t_top_d(), 3).evaluate(2) == 9  # q^r + 1
        assert local_factor_polynomial(t_top_2d(), 3).evaluate(2) == 7  # q^r - 1
        assert local_factor_polynomial(t_split_gl1(), 3).evaluate(2) == 63  # (q^2r - 1)/(q - 1)

    def test_chain_value(self):
        t = ParahoricType("split", Kind.CHAIN_D, 2)
        assert local_factor_polynomial(t, 3).evaluate(2) == 105  # (q^2+1)(q^6-1)/(q^2-1) at q=2

    def test_invalid_rank_combination(self):
        with pytest.raises(LocalFactorError):
            local_factor_polynomial(ParahoricType("split", Kind.CHAIN_D, 5), 4)

    def test_non_prime_power_rejected(self):
        with pytest.raises(LocalFactorError):
            order_formula_value(t_top_d(), 3, 6)
        with pytest.raises(LocalFactorError, match="got 6"):
            calibrate_oracle(3, qs=(2, 6))
        assert not is_prime_power(12) and is_prime_power(27)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_integrality_and_bound_up_to_64(self, r):
        for t in enumerate_maximal_types(r):
            for q in PRIME_POWERS_64:
                v = local_factor_polynomial(t, r).evaluate(q)
                assert v.denominator == 1, f"{t.slug()} at q={q} not integral"
                assert v > 4


class TestPolynomials:
    def test_chain_polynomial_r3(self):
        t = ParahoricType("split", Kind.CHAIN_D, 2)
        # long-division oracle: (q^2+1)(q^6-1)/(q^2-1) = (q^2+1)(q^4+q^2+1)
        expect = RatPolynomial.of(1, 0, 1) * RatPolynomial.of(1, 0, 1, 0, 1)
        assert local_factor_polynomial(t, 3) == expect
        assert [int(c) for c in expect.coeffs] == [1, 0, 2, 0, 2, 0, 1]

    def test_top_d_r4(self):
        assert local_factor_polynomial(t_top_d(), 4) == RatPolynomial.of(1, 0, 0, 0, 1)

    def test_nonsplit_torus_r3(self):
        # (q^6 - 1)/(q + 1) = q^5 - q^4 + q^3 - q^2 + q - 1
        assert local_factor_polynomial(t_nonsplit_gl1(), 3) == RatPolynomial.of(-1, 1, -1, 1, -1, 1)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_polynomial_matches_value_on_random_prime_powers(self, r):
        rng = random.Random(11 * r)
        qs = rng.sample(PRIME_POWERS_64, 20)
        for t in enumerate_maximal_types(r):
            poly = local_factor_polynomial(t, r)
            assert poly.has_integer_coeffs()
            for q in qs:
                assert poly.evaluate(q) == order_formula_value(t, r, q)

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_shifted_coefficients_nonnegative(self, r):
        for t in enumerate_maximal_types(r):
            shifted = local_factor_polynomial(t, r).shift_argument(2)
            assert all(c >= 0 for c in shifted.coeffs), f"{t.slug()} not monotone past q=2"


class TestMinimumProof:
    def test_r3_minimum_is_seven(self):
        proof = minimum_proof(3)
        assert proof.minimum == 7
        assert proof.minimum_type().kind is Kind.TOP_2D
        assert len(proof.entries) == 8

    @pytest.mark.parametrize("r", [4, 5])
    def test_higher_ranks_exceed_four(self, r):
        proof = minimum_proof(r)
        assert proof.minimum > 4
        assert all(c >= 0 for e in proof.entries for c in taylor_shift(e.polynomial, 2))

    def test_r4_r5_minima(self):
        assert minimum_proof(4).minimum == 15  # 2^4 - 1
        assert minimum_proof(5).minimum == 31  # 2^5 - 1

    @pytest.mark.parametrize(
        ("coeffs", "named"),
        [
            ((11, -5, 1), "shifted coefficients go negative"),  # (u+2)^2 - 5(u+2) + 11 = u^2 - u + 5
            ((0, 0, 1), "does not exceed 4"),  # q^2 is 4 at q = 2
        ],
    )
    def test_failed_checks_raise(self, monkeypatch, coeffs, named):
        monkeypatch.setattr(field_path, "_quotient", lambda t, r: coeffs)
        with pytest.raises(LocalFactorError, match=rf"^\S+ at rank 3: .*{named}$"):
            minimum_proof(3)

    def test_inexact_closed_form_raises(self, monkeypatch):
        # (q^2 + 1) / (q - 1) leaves the remainder 2
        monkeypatch.setattr(field_path, "_closed_form", lambda t, r: ([(2, 1)], [(1, -1)]))
        inexact = r"^split.torus-split at rank 3: nonzero remainder \[2, 0, 0\] in exact division$"
        with pytest.raises(LocalFactorError, match=inexact):
            local_factor_polynomial(t_split_gl1(), 3)


class TestOrderFormulaOracle:
    def test_top_d_r3_q2(self):
        assert order_formula_value(t_top_d(), 3, 2) == 9

    def test_split_gl1_r3_q3(self):
        assert order_formula_value(t_split_gl1(), 3, 3) == local_factor_polynomial(t_split_gl1(), 3).evaluate(3) == 364

    def test_top_2d_r4_q2(self):
        assert order_formula_value(t_top_2d(), 4, 2) == 15

    def test_group_order_identities(self):
        def order(family, m, q):
            power, binomials = field_path._order(family, m)
            return q**power * math.prod(q**e + s for e, s in binomials)

        for q in (2, 3, 4):
            assert order("B", 3, q) == q**9 * (q**2 - 1) * (q**4 - 1) * (q**6 - 1)
            assert order("D", 3, q) == q**6 * (q**3 - 1) * (q**2 - 1) * (q**4 - 1)
            assert order("2D", 3, q) == q**6 * (q**3 + 1) * (q**2 - 1) * (q**4 - 1)
            assert (order("D", 1, q), order("2D", 1, q)) == (q - 1, q + 1)  # the split and the nonsplit 1-torus
        assert order("B", 2, 2) == 720  # |SO_5(F_2)| = |Sp_4(F_2)| = 6!

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_calibration_is_trivial_power_of_two(self, r):
        constants = calibrate_oracle(r)
        assert set(constants) == {t.slug() for t in enumerate_maximal_types(r)}
        assert set(constants.values()) == {F(1)}

    @pytest.mark.parametrize("r", [4, 5])
    def test_same_polynomial_written_another_way_passes(self, monkeypatch, r):
        # q^4 - 1 written as (q^2 - 1)(q^2 + 1) wherever a closed form has it:
        # the binomial lists differ, the rational function does not
        closed = field_path._closed_form

        def split(binomials):
            return [b for e, s in binomials for b in ([(2, -1), (2, 1)] if (e, s) == (4, -1) else [(e, s)])]

        def rewritten(t, rank):
            num, den = closed(t, rank)
            return split(num), split(den)

        assert any((4, -1) in num + den for num, den in (closed(t, r) for t in enumerate_maximal_types(r)))
        monkeypatch.setattr(field_path, "_closed_form", rewritten)
        assert set(calibrate_oracle(r).values()) == {F(1)}

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_changed_binomial_named(self, monkeypatch, r):
        # flip the sign of one binomial of one closed form, or shift its
        # exponent by 1: the error names that type and that rank
        closed = field_path._closed_form
        for target in enumerate_maximal_types(r):
            num, den = closed(target, r)
            for side, k in [(0, k) for k in range(len(num))] + [(1, k) for k in range(len(den))]:
                e, s = (num, den)[side][k]
                for changed in ((e, -s), (e + 1, s), (e - 1, s)):
                    if changed[0] < 1:
                        continue
                    lists = [list(num), list(den)]
                    lists[side][k] = changed
                    monkeypatch.setattr(
                        field_path, "_closed_form", lambda t, rank: tuple(lists) if t == target else closed(t, rank)
                    )
                    with pytest.raises(LocalFactorError, match=rf"^{re.escape(target.slug())} at rank {r}: {CALIBRATION}$"):
                        calibrate_oracle(r)

    def test_power_of_q_apart_named(self, monkeypatch):
        # a closed form a factor q away from the order formula has the same
        # Phi_n multisets, so only the power of q tells them apart
        order = field_path._order_formula
        target = enumerate_maximal_types(3)[0]

        def one_q_more(t, rank):
            power, num, den = order(t, rank)
            return (power + 1 if t == target else power), num, den

        monkeypatch.setattr(field_path, "_order_formula", one_q_more)
        with pytest.raises(LocalFactorError, match=rf"^{re.escape(target.slug())} at rank 3: {CALIBRATION}$"):
            calibrate_oracle(3)

    def test_odd_dimension_gap_named(self, monkeypatch):
        # without its split torus D(1) the quotient of split.torus-split at
        # rank 3 is B(2), 21 - 10 = 11 dimensions below B(3)
        quotient = field_path._quotient_factors

        def torus_dropped(t, rank):
            factors = quotient(t, rank)
            return [f for f in factors if f != ("D", 1)] if t.kind is Kind.TORUS_SPLIT else factors

        monkeypatch.setattr(field_path, "_quotient_factors", torus_dropped)
        with pytest.raises(LocalFactorError, match="^split.torus-split: odd dimension gap 11$"):
            calibrate_oracle(3)

    def test_every_type_up_to_rank_27(self):
        # all 800 maximal types at r = 3..27; about 0.16 s on one core of a 2-vCPU Intel Xeon
        assert sum(len(calibrate_oracle(r)) for r in range(3, 28)) == 800


_BINOMIALS = st.lists(st.tuples(st.integers(1, 12), st.sampled_from((-1, 1))), max_size=6)


@st.composite
def _binomial_pairs(draw):
    """Two binomial lists: the second rewrites the first by splitting
    q^(2e) - 1 into (q^e - 1)(q^e + 1) or merging such pairs, then shuffles
    it and, sometimes, changes it or draws it afresh."""
    a = draw(_BINOMIALS)
    b = []
    for e, s in a:
        b += [(e // 2, -1), (e // 2, 1)] if (s, e % 2) == (-1, 0) and draw(st.booleans()) else [(e, s)]
    for e in draw(st.lists(st.integers(1, 6), max_size=2)):  # merge pairs, written split in a
        a += [(e, -1), (e, 1)]
        b.append((2 * e, -1))
    b = draw(st.permutations(b))
    change = draw(st.sampled_from(("none", "flip", "shift", "drop", "fresh")))
    if change == "fresh":
        b = draw(_BINOMIALS)
    elif b and change != "none":
        k = draw(st.integers(0, len(b) - 1))
        e, s = b[k]
        b = b[:k] + ([] if change == "drop" else [(e, -s) if change == "flip" else (e + 1, s)]) + b[k + 1:]
    return a, b


@settings(max_examples=300, deadline=None)
@given(_binomial_pairs())
def test_cyclotomic_multisets_equal_exactly_when_polynomials_are(pair):
    a, b = pair
    same = field_path._binomial_product(a) == field_path._binomial_product(b)
    assert (field_path._cyclotomic(a) == field_path._cyclotomic(b)) == same


class TestLocalFactorRecord:
    def test_fingerprint_stable(self):
        assert local_factors.FINGERPRINT_RANKS == (3, 4, 5)
        assert table_fingerprint() == "bba1be811e39a4563ea226745ea8449f7ef743411339a0e89b58602827eb8990"
