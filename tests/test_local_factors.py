import random
from fractions import Fraction as F

import pytest

from hypeuler import local_factors
from hypeuler.exact_arith import RatPolynomial, taylor_shift
from hypeuler.local_factors import (
    IntegralityError,
    Kind,
    LocalFactorError,
    MonotonicityError,
    ParahoricType,
    calibrate_oracle,
    enumerate_maximal_types,
    is_prime_power,
    local_factor_polynomial,
    minimum_proof,
    order_formula_value,
    table_fingerprint,
)

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
        monkeypatch.setattr(local_factors, "_quotient", lambda t, r: coeffs)
        with pytest.raises(MonotonicityError, match=named):
            minimum_proof(3)

    def test_inexact_closed_form_raises(self, monkeypatch):
        monkeypatch.setattr(local_factors, "_closed_form", lambda t, r: ((1, 0, 1), (-1, 1)))
        local_factors._quotient.cache_clear()
        try:
            with pytest.raises(IntegralityError, match="split.torus-split at rank 3: nonzero remainder"):
                local_factor_polynomial(t_split_gl1(), 3)
        finally:
            local_factors._quotient.cache_clear()


class TestOrderFormulaOracle:
    def test_top_d_r3_q2(self):
        assert order_formula_value(t_top_d(), 3, 2) == 9

    def test_split_gl1_r3_q3(self):
        assert order_formula_value(t_split_gl1(), 3, 3) == local_factor_polynomial(t_split_gl1(), 3).evaluate(3) == 364

    def test_top_2d_r4_q2(self):
        assert order_formula_value(t_top_2d(), 4, 2) == 15

    def test_group_order_identities(self):
        from hypeuler.local_factors import _order_b, _order_d

        q = 2
        assert _order_b(3, q) == q**9 * (q**2 - 1) * (q**4 - 1) * (q**6 - 1)
        assert _order_d(3, q) == q**6 * (q**3 - 1) * (q**2 - 1) * (q**4 - 1)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_calibration_is_trivial_power_of_two(self, r):
        constants = calibrate_oracle(r)
        assert set(constants) == {t.slug() for t in enumerate_maximal_types(r)}
        assert set(constants.values()) == {F(1)}

    def test_calibration_off_at_one_q_named(self, monkeypatch):
        # an order formula off by a factor 2 at q = 7 only: the first type
        # fails there, and the error names the type, the rank and that q
        terms = local_factors._order_formula_terms
        monkeypatch.setattr(
            local_factors,
            "_order_formula_terms",
            lambda t, r, q: (terms(t, r, q)[0] * (2 if q == 7 else 1), terms(t, r, q)[1]),
        )
        first = enumerate_maximal_types(3)[0].slug()
        with pytest.raises(local_factors.CalibrationError, match=rf"^{first} at rank 3: .* at q=7$"):
            calibrate_oracle(3)


class TestLocalFactorRecord:
    def test_fingerprint_stable(self):
        assert local_factors.FINGERPRINT_RANKS == (3, 4, 5)
        assert table_fingerprint() == "302957a52fe19a1fab5b19708fcec09b77770e4a3ebb6837bd1450b7b0cc4931"
