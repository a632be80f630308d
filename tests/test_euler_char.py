import random
from fractions import Fraction as F

import pytest
from mpmath import mp

from hypeuler.euler_char import (
    ArithmeticDatum,
    C_of_r,
    EulerCharError,
    build_euler_char,
    chi_principal_numeric,
    reciprocal_integer_obstruction,
)
from hypeuler.field_path import (
    chi_lambda_from_product,
    chi_principal_exact,
    index_divisor,
    local_factor_polynomial,
    smallest_odd_prime_factor,
    two_adic_valuation,
)
from hypeuler.field_tables import load_table
from hypeuler.local_factors import enumerate_maximal_types
from hypeuler.search_bounds import certify_section


@pytest.fixture(scope="module")
def table():
    return load_table()


def datum(table, D, r, degree=2):
    return ArithmeticDatum(field=table.by_disc(degree, D), r=r)


class TestRankConstant:
    def test_enclosure_against_mpmath(self):
        for r in range(1, 9):
            # round outward to short dyadics so the mpf conversion is exact
            iv = C_of_r(r, 160).outward_round(120)
            with mp.workdps(50):
                true = mp.mpf(1)
                for j in range(1, r + 1):
                    true *= mp.factorial(2 * j - 1) / (2 * mp.pi) ** (2 * j)
                lo = mp.mpf(iv.lo.numerator) / iv.lo.denominator
                hi = mp.mpf(iv.hi.numerator) / iv.hi.denominator
                assert lo <= true <= hi

    def test_r1_is_inverse_four_pi_squared(self):
        # 1/(4 pi^2) = 0.0253302...
        c = C_of_r(1, 160)
        assert c.lo > F(2533, 100000) and c.hi < F(2534, 100000)


class TestChiExact:
    def test_dimension_four_value(self, table):
        """An outside value for the covolume formula, which the exact path and
        the transcendental cross-check ``dual_path_check`` share, so the
        cross-check cannot catch a wrong constant in it.  The compact Coxeter
        simplex group [5,3,3,3] is an arithmetic reflection group over
        K = Q(sqrt 5) with covolume pi^2/10800 (N. W. Johnson, R. Kellerhals,
        J. G. Ratcliffe and S. T. Tschantz, The size of a hyperbolic Coxeter
        simplex, Transform. Groups 4 (1999)), computed from the simplex's
        geometry, not from a zeta value.  Gauss-Bonnet in dimension 4, |chi| = 3 vol / (4 pi^2),
        turns it into 1/14400.  M. Belolipetsky (On volumes of arithmetic
        quotients of SO(1, n), Ann. Sc. Norm. Super. Pisa Cl. Sci. (5) 3
        (2004)) builds the compact arithmetic quotient of smallest covolume in
        each even dimension from the principal arithmetic subgroup Lambda over
        Q(sqrt 5), the datum here at r = 2; in dimension 4 the simplex group
        has that smallest covolume, so |chi(Lambda)| must be its 1/14400."""
        simplex_volume_over_pi_squared = F(1, 10800)
        assert chi_principal_exact(datum(table, 5, 2)) == F(3, 4) * simplex_volume_over_pi_squared

    def test_rank_three_value(self, table):
        assert chi_principal_exact(datum(table, 5, 3)) == F(67, 36288000)

    def test_closed_form_takes_no_discriminant(self):
        # structural: the exact path is a function of (zeta product, r, degree) only
        import inspect

        params = inspect.signature(chi_lambda_from_product).parameters
        assert list(params) == ["product", "r", "degree"]

    @pytest.mark.parametrize("r", range(2, 7))
    def test_verdicts_take_chi_from_their_zeta_product(self, r, table):
        # chi(Lambda) of every field verdict is the closed form of the
        # obstruction's product, and agrees with the standalone exact path
        verdicts = certify_section(r, table).verdicts
        assert verdicts
        for v in verdicts:
            chi = v.euler.chi_lambda
            assert chi == chi_principal_exact(ArithmeticDatum(v.record, r))
            assert chi == v.obstruction.product / 2 ** (r * v.record.degree - 1)


class TestChiNumeric:
    def test_contains_exact_dimension_four(self, table):
        d = datum(table, 5, 2)
        enc = chi_principal_numeric(d, precision_bits=128)
        assert chi_principal_exact(d) in enc
        assert F(1, 14400) in enc

    def test_contains_exact_rank_three_cubic(self, table):
        d = datum(table, 49, 3, degree=3)
        enc = chi_principal_numeric(d, precision_bits=128)
        assert chi_principal_exact(d) in enc

    def test_width_contract(self, table):
        d = datum(table, 5, 3)
        enc = chi_principal_numeric(d, precision_bits=192)
        exact = chi_principal_exact(d)
        assert enc.width / exact < F(1, 10**8)


class TestIndexDivisor:
    def test_examples(self):
        assert index_divisor(1, 2) == 4
        assert index_divisor(1, 3) == 8
        assert index_divisor(3, 2) == 12

    def test_invalid(self):
        with pytest.raises(EulerCharError):
            index_divisor(0, 2)


class TestEulerCharRecord:
    def test_two_exponent(self, table):
        d = datum(table, 5, 3)
        e = build_euler_char(d, reciprocal_integer_obstruction(d).product)
        assert e.chi_lambda == F(67, 36288000)
        assert e.index_divisor == 4
        assert e.chi_gamma_lower == F(67, 145152000)
        assert e.two_exponent == -two_adic_valuation(e.chi_gamma_lower)
        # odd part of the numerator is stable under any power of 2
        from hypeuler.field_path import odd_part_of_numerator

        assert odd_part_of_numerator(e.chi_lambda) == odd_part_of_numerator(e.chi_lambda / 1024)


class TestObstruction:
    def test_rank3_d5(self, table):
        v = reciprocal_integer_obstruction(datum(table, 5, 3))
        assert v.obstructed and v.witness == 67

    def test_rank4_d8_smallest_witness(self, table):
        v = reciprocal_integer_obstruction(datum(table, 8, 4))
        # numerator carries 11, 19^2 and 24611; the smallest prime wins
        assert v.witness == 11
        assert v.odd_numerator % 361 == 0 and v.odd_numerator % 24611 == 0

    def test_rank2_d5_unobstructed(self, table):
        v = reciprocal_integer_obstruction(datum(table, 5, 2))
        assert not v.obstructed
        assert v.product == F(1, 1800) and v.odd_numerator == 1

    def test_class_number_precondition(self, table):
        with pytest.raises(EulerCharError, match="^2.2.40.1: class number 2 != 1, decomposition unavailable$"):
            reciprocal_integer_obstruction(datum(table, 40, 3))

    def test_smallest_odd_prime_factor(self):
        assert smallest_odd_prime_factor(1) is None
        assert smallest_odd_prime_factor(361) == 19
        assert smallest_odd_prime_factor(67 * 19 * 19) == 19

    def test_obstruction_soundness_property(self, table):
        """If a field is obstructed with witness p, then chi(Lambda) times
        the local factors of any set of bad places, divided by any divisor m
        of the index bound h 2^d 4^(bad places), has numerator divisible
        by p."""
        rng = random.Random(17)
        v = reciprocal_integer_obstruction(datum(table, 5, 3))
        p = v.witness
        types = enumerate_maximal_types(3)
        base = chi_principal_exact(datum(table, 5, 3))
        for _ in range(60):
            values = [
                local_factor_polynomial(t, 3).evaluate(rng.choice([2, 3, 4, 5, 7, 8, 9]))
                for t in rng.sample(types, rng.randint(0, 3))
            ]
            chi = base
            for value in values:
                chi *= value
            bound = index_divisor(1, 2) * 4 ** len(values)
            divisors = [m for m in range(1, bound + 1) if bound % m == 0]
            m = rng.choice(divisors)
            assert (chi / m).numerator % p == 0
