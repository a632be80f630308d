import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hypeuler import exact_arith
from hypeuler.exact_arith import ExactArithError, RationalInterval, dyadic_round, pi_enclosure
from hypeuler.field_path import (
    Zeta3Number,
    bernoulli_number,
    odd_part_of_numerator,
    root_of_unity,
    two_adic_valuation,
)
from hypeuler.numeric_path import rational_power_half
from hypeuler.offline import RatPolynomial, poly_exact_divide
from oracles import bernoulli_polynomial_eval, contains_interval, negate


def bernoulli_akiyama_tanigawa(n):
    """Independent oracle: B_0..B_n by the Akiyama-Tanigawa transform, whose
    row m leaves B_m in A[0] (with B_1 = +1/2, flipped to the B_1 = -1/2
    convention)."""
    A = [F(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        A[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(-A[0] if m == 1 else A[0])
    return out


class TestBernoulli:
    def test_definition_cases(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == F(-1, 2)

    def test_against_recurrence_oracle(self):
        oracle = bernoulli_akiyama_tanigawa(100)
        assert oracle[2] == F(1, 6) and oracle[10] == F(5, 66)
        assert [bernoulli_number(n) for n in range(101)] == oracle

    def test_recurrence_identity_up_to_200(self):
        for n in range(1, 201):
            s = sum(F(math.comb(n + 1, k)) * bernoulli_number(k) for k in range(n + 1))
            assert s == 0, f"recurrence fails at n={n}"

    def test_memo_does_not_depend_on_the_order_asked(self):
        # the tangent column grows from whatever index is asked first: B_82
        # first, in a fresh process, gives the list that asking in order gives
        code = (
            "import sys\n"
            "from hypeuler.field_path import bernoulli_number\n"
            "if sys.argv[1] == 'first':\n"
            "    bernoulli_number(82)\n"
            "print([str(bernoulli_number(n)) for n in range(83)])"
        )
        src = str(Path(exact_arith.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        lists = [
            subprocess.run([sys.executable, "-S", "-c", code, how], env=env, capture_output=True, text=True, check=True).stdout
            for how in ("first", "in-order")
        ]
        assert lists[0] == lists[1]
        assert lists[0].startswith("['1', '-1/2', '1/6', '0', '-1/30'")
        assert lists[0].strip().endswith(f"'{bernoulli_number(82)}']")

    def test_against_sympy(self):
        for n in range(0, 41):
            expect = F(int(sympy.bernoulli(n).p), int(sympy.bernoulli(n).q)) if n != 1 else F(-1, 2)
            assert bernoulli_number(n) == expect

    def test_negative_index_rejected(self):
        with pytest.raises(ExactArithError):
            bernoulli_number(-1)


class TestBernoulliPolynomial:
    def test_at_zero_gives_bernoulli_number(self):
        assert bernoulli_polynomial_eval(2, F(0)) == F(1, 6)

    def test_quadratic_expansion(self):
        # oracle: B_2(x) = x^2 - x + 1/6
        for x in (F(1, 5), F(3, 8), F(7, 3)):
            assert bernoulli_polynomial_eval(2, x) == x**2 - x + F(1, 6)
        assert bernoulli_polynomial_eval(2, F(1, 5)) == F(1, 150)
        assert bernoulli_polynomial_eval(2, F(3, 8)) == F(-13, 192)

    def test_difference_identity(self):
        # B_n(x+1) - B_n(x) = n x^(n-1)
        for n in range(1, 8):
            for x in (F(1, 3), F(2), F(-1, 7)):
                lhs = bernoulli_polynomial_eval(n, x + 1) - bernoulli_polynomial_eval(n, x)
                assert lhs == n * x ** (n - 1)


class TestPolynomials:
    def test_exact_divide_cyclotomic_style(self):
        num = RatPolynomial.from_seq([-1, 0, 0, 0, 0, 0, 1])  # q^6 - 1
        den = RatPolynomial.from_seq([-1, 0, 1])  # q^2 - 1
        assert poly_exact_divide(num, den) == RatPolynomial.from_seq([1, 0, 1, 0, 1])

    def test_divide_by_one_is_identity(self):
        p = RatPolynomial.of(F(3, 7), 0, 2, 5)
        assert poly_exact_divide(p, RatPolynomial.of(1)) == p

    def test_inexact_division_raises(self):
        with pytest.raises(ExactArithError, match=r"^nonzero remainder \[2\] in exact polynomial division$"):
            poly_exact_divide(RatPolynomial.of(1, 0, 1), RatPolynomial.of(-1, 1))

    def test_zero_polynomial_is_empty(self):
        assert RatPolynomial.of(0, 0).coeffs == ()
        assert RatPolynomial.of(0, 0).degree == -1

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-5, max_value=5), min_size=1, max_size=5),
        st.lists(st.fractions(min_value=-5, max_value=5), min_size=1, max_size=5),
    )
    def test_divide_round_trip(self, acs, bcs):
        a = RatPolynomial.from_seq(acs)
        b = RatPolynomial.from_seq(bcs)
        if b.is_zero():
            return
        assert poly_exact_divide(a * b, b) == a

    def test_shift_argument(self):
        p = RatPolynomial.of(1, -2, 3)  # 3x^2 - 2x + 1
        q = p.shift_argument(2)
        for u in (F(0), F(1, 3), F(5)):
            assert q.evaluate(u) == p.evaluate(u + 2)

    def test_evaluate_horner(self):
        p = RatPolynomial.of(F(1, 2), 0, -1, 1)
        x = F(3, 4)
        assert p.evaluate(x) == F(1, 2) - x**2 + x**3


small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
zeta3_numbers = st.builds(Zeta3Number, small_fracs, small_fracs)


def reduce_mod_zeta3(x, y):
    """x * y through the RatPolynomial product of a + b t, reduced modulo
    1 + t + t^2 (the minimal polynomial of zeta3) by ``divmod``."""
    product = RatPolynomial.of(x.a, x.b) * RatPolynomial.of(y.a, y.b)
    _, rem = product.divmod(RatPolynomial.of(1, 1, 1))
    coeffs = list(rem.coeffs) + [F(0)] * (2 - len(rem.coeffs))
    return Zeta3Number(*coeffs)


def conj(x):
    """The Galois conjugate a + b z^2 = (a - b) - b z of x = a + b z."""
    return Zeta3Number(x.a - x.b, -x.b)


class TestZeta3:
    def test_zeta3_square(self):
        z = root_of_unity(3, 1)
        assert reduce_mod_zeta3(z, z) == Zeta3Number(F(-1), F(-1)) == root_of_unity(3, 2) == conj(z)
        assert root_of_unity(3, 7) == z and root_of_unity(2, 1) == Zeta3Number(F(-1))

    def test_conjugate_product_is_norm(self):
        one = root_of_unity(1, 0)
        assert (one + root_of_unity(3, 1)).norm() == 1
        assert root_of_unity(3, 2).norm() == root_of_unity(2, 1).norm() == 1

    def test_galois_orbit_product_rational(self):
        # the product of a + b z and its conjugate is the norm a^2 - ab + b^2
        rng = random.Random(10)
        for _ in range(25):
            a, b = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
            assert Zeta3Number(a, b).norm() == a * a - a * b + b * b

    @settings(max_examples=80, deadline=None)
    @given(zeta3_numbers)
    def test_norm_matches_polynomial_reduction(self, x):
        assert Zeta3Number(x.norm()) == reduce_mod_zeta3(x, conj(x))

    def test_irrational_has_no_rational_value(self):
        with pytest.raises(ExactArithError):
            root_of_unity(3, 1).as_rational()

    def test_order_outside_zeta3_raises(self):
        with pytest.raises(ExactArithError, match="order 4"):
            root_of_unity(4, 1)


class TestOddPart:
    def test_examples(self):
        assert odd_part_of_numerator(F(361, 120)) == 361
        assert odd_part_of_numerator(F(1, 30)) == 1
        assert odd_part_of_numerator(F(24, 7)) == 3

    def test_sign_ignored(self):
        assert odd_part_of_numerator(F(-24, 7)) == 3

    def test_zero_rejected(self):
        with pytest.raises(ExactArithError):
            odd_part_of_numerator(F(0))

    def test_two_adic_valuation(self):
        assert two_adic_valuation(F(24, 7)) == 3
        assert two_adic_valuation(F(7, 24)) == -3
        assert two_adic_valuation(F(-5, 3)) == 0


fractions_mid = st.fractions(min_value=-50, max_value=50, max_denominator=40)
unit_fracs = st.fractions(min_value=0, max_value=1, max_denominator=64)


def make_interval(a, b):
    return RationalInterval(min(a, b), max(a, b))


def point_inside(iv, t):
    return iv.lo + t * (iv.hi - iv.lo)


class TestIntervalSoundness:
    @settings(max_examples=120, deadline=None)
    @given(fractions_mid, fractions_mid, fractions_mid, fractions_mid, unit_fracs, unit_fracs)
    def test_ring_ops_enclose(self, a, b, c, d, t1, t2):
        X = make_interval(a, b)
        Y = make_interval(c, d)
        x = point_inside(X, t1)
        y = point_inside(Y, t2)
        assert x + y in X + Y
        assert x - y in X - Y
        assert x * y in X * Y

    @settings(max_examples=100, deadline=None)
    @given(fractions_mid, fractions_mid, fractions_mid, fractions_mid, unit_fracs, unit_fracs)
    def test_division_encloses(self, a, b, c, d, t1, t2):
        X = make_interval(a, b)
        Y = make_interval(c, d)
        if Y.lo <= 0 <= Y.hi:
            with pytest.raises(ExactArithError):
                X / Y
            return
        x = point_inside(X, t1)
        y = point_inside(Y, t2)
        assert x / y in X / Y

    @settings(max_examples=100, deadline=None)
    @given(fractions_mid, fractions_mid, unit_fracs, st.integers(min_value=0, max_value=6))
    def test_integer_power_encloses(self, a, b, t, k):
        X = make_interval(a, b)
        x = point_inside(X, t)
        assert x**k in X.pow_int(k)

    @settings(max_examples=80, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=80, max_denominator=30),
        st.fractions(min_value=0, max_value=80, max_denominator=30),
        unit_fracs,
    )
    def test_sqrt_encloses(self, a, b, t):
        X = make_interval(a, b)
        x = point_inside(X, t)
        root = X.sqrt(bits=48)
        assert root.lo**2 <= x <= root.hi**2
        # a point root is enclosed far below the contract's < 1 width
        assert RationalInterval.exact(x).sqrt(bits=48).width <= F(1, 2**48)

    def test_strictly_greater_reads_the_lower_end(self):
        # an interval that straddles c, or whose lower end is c, does not
        # prove a value above c, however far its upper end lies
        assert not RationalInterval(F(1, 2), F(3)).strictly_greater_than(1)
        assert not RationalInterval(F(1), F(3)).strictly_greater_than(1)
        assert not RationalInterval(0, 3, 64, -1).strictly_greater_than(1)  # [0, 3/2] in units of 2^-1
        assert RationalInterval(F(3, 2), F(3)).strictly_greater_than(1)

    def test_reduced_form_after_ops(self):
        rng = random.Random(3)
        for _ in range(200):
            x = F(rng.randint(-500, 500), rng.randint(1, 500))
            y = F(rng.randint(-500, 500), rng.randint(1, 500))
            for v in (x + y, x - y, x * y):
                assert math.gcd(abs(v.numerator), v.denominator) == 1
                assert v.denominator >= 1


precisions = st.integers(min_value=2, max_value=48)


def is_dyadic_at(x, prec):
    """x = m * 2^e with |m| < 2^(prec + 1)."""
    n, d = x.numerator, x.denominator
    if d & (d - 1):
        return False
    n = abs(n)
    odd = n >> ((n & -n).bit_length() - 1) if n else 0
    return odd.bit_length() <= prec + 1


class TestRoundedIntervals:
    """Intervals with a working precision: each result is rounded outward,
    so it encloses the exact pointwise result with bounded endpoints."""

    @settings(max_examples=150, deadline=None)
    @given(fractions_mid, fractions_mid, fractions_mid, fractions_mid, unit_fracs, unit_fracs, precisions, precisions)
    def test_ops_enclose(self, a, b, c, d, t1, t2, p, q):
        X = make_interval(a, b).outward_round(p)
        Y = make_interval(c, d).outward_round(q)
        x, y = point_inside(X, t1), point_inside(Y, t2)
        pq = max(p, q)
        results = [(x + y, X + Y, pq), (x - y, X - Y, pq), (-x, negate(X), p), (x * y, X * Y, pq), (x * c, X.scale(c), p)]
        if not Y.lo <= 0 <= Y.hi:
            results += [(1 / y, Y.reciprocal(), q), (x / y, X / Y, pq)]
        for exact, enclosure, prec in results:
            assert exact in enclosure
            assert enclosure.prec == prec
            assert is_dyadic_at(enclosure.lo, prec) and is_dyadic_at(enclosure.hi, prec)

    @settings(max_examples=150, deadline=None)
    @given(fractions_mid, fractions_mid, unit_fracs, precisions, st.integers(min_value=-4, max_value=40))
    def test_pow_int_encloses(self, a, b, t, p, k):
        X = make_interval(a, b).outward_round(p)
        x = point_inside(X, t)
        if k < 0:  # no caller takes a negative power; square-and-multiply would not end
            with pytest.raises(ExactArithError):
                X.pow_int(k)
            return
        power = X.pow_int(k)
        assert x**k in power
        assert power.prec == p and is_dyadic_at(power.hi, p)

    @settings(max_examples=100, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=10**6, max_denominator=30),
        st.fractions(min_value=0, max_value=10**6, max_denominator=30),
        unit_fracs,
        precisions,
        st.integers(min_value=1, max_value=64),
    )
    def test_sqrt_encloses(self, a, b, t, p, bits):
        X = make_interval(a, b).outward_round(p)
        x = point_inside(X, t)
        root = X.sqrt(bits)
        assert root.lo**2 <= x <= root.hi**2
        assert root.prec == max(p, bits)

    def test_exact_stays_exact_until_it_meets_a_rounded_interval(self):
        third = RationalInterval.exact(F(1, 3))
        assert (third * third + third).prec is None
        assert (third * third + third).lo == F(4, 9)
        mixed = third * RationalInterval.exact(F(1, 7)).outward_round(20)
        assert mixed.prec == 20 and F(1, 21) in mixed and mixed.lo != mixed.hi

    def test_long_product_stays_bounded(self):
        # 200 rounded multiplications keep the endpoint size at the precision
        step = RationalInterval.exact(F(22, 7)).outward_round(64)
        acc = RationalInterval.exact(1)
        for _ in range(200):
            acc = acc * step
        assert F(22, 7) ** 200 in acc
        assert max(acc.hi.numerator.bit_length(), acc.hi.denominator.bit_length()) < 400
        assert contains_interval(acc.pow_int(3), RationalInterval(acc.lo**3, acc.hi**3))


mantissas = st.one_of(st.just(0), st.integers(-(2**300), 2**300), st.integers(-64, 64))
exponents = st.integers(min_value=-400, max_value=400)
sig_bits = st.integers(min_value=2, max_value=256)


def dyadic(m, e):
    return F(m) * F(2) ** e


class TestIntegerKernel:
    """Rounded intervals keep integer mantissas at a power-of-two scale; the
    integer kernels must land every end exactly where ``dyadic_round``
    lands it, and an interval's value must not depend on how it is stored."""

    @settings(max_examples=300, deadline=None)
    @given(mantissas, exponents, sig_bits, st.booleans())
    def test_round_mantissa_is_dyadic_round(self, m, e, sig, up):
        rounded, rounded_e = exact_arith._round_mantissa(m, e, sig, up)
        assert dyadic(rounded, rounded_e) == dyadic_round(dyadic(m, e), sig, up)

    @settings(max_examples=300, deadline=None)
    @given(mantissas, mantissas, exponents, sig_bits)
    def test_reciprocal_ends_are_dyadic_round(self, a, b, e, sig):
        # 1/(m 2^e) is not dyadic unless |m| is a power of 2
        lo, hi = min(a, b), max(a, b)
        if lo <= 0 <= hi:
            return
        inverse = RationalInterval(lo, hi, sig, e).reciprocal()
        assert inverse.lo == dyadic_round(1 / dyadic(hi, e), sig, False)
        assert inverse.hi == dyadic_round(1 / dyadic(lo, e), sig, True)

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**12),
        st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**12),
        sig_bits,
    )
    def test_outward_round_is_dyadic_round(self, a, b, sig):
        # dyadic and non-dyadic ends alike
        for lo, hi in ((min(a, b), max(a, b)), (dyadic_round(min(a, b), 300, False), dyadic_round(max(a, b), 300, True))):
            out = RationalInterval(lo, hi).outward_round(sig)
            assert (out.lo, out.hi) == (dyadic_round(lo, sig, False), dyadic_round(hi, sig, True))

    @settings(max_examples=200, deadline=None)
    @given(mantissas, mantissas, exponents, st.integers(min_value=2, max_value=256))
    def test_integer_and_fraction_ends_are_one_interval(self, a, b, e, prec):
        lo, hi = min(a, b), max(a, b)
        from_ints = RationalInterval(lo, hi, prec, e)
        from_fractions = RationalInterval(dyadic(lo, e), dyadic(hi, e), prec)
        exact = RationalInterval(dyadic(lo, e), dyadic(hi, e))
        assert from_ints == from_fractions == exact
        assert hash(from_ints) == hash(from_fractions) == hash(exact)
        assert from_ints.width == exact.width
        # shifting the mantissas to a finer scale changes no value
        assert RationalInterval(lo << 5, hi << 5, prec, e - 5) == from_ints

    def test_non_dyadic_rounded_ends_stay_rational(self):
        third = RationalInterval(F(1, 3), F(1, 2), 64)
        assert third == RationalInterval(F(1, 3), F(1, 2)) and third.dyadic_ends() is None
        assert F(1, 9) in third.pow_int(2) and F(3) in third.reciprocal()
        assert third.pow_int(2).dyadic_ends() is not None


class TestPiAndRoots:
    def test_pi_enclosure_default_width(self):
        enc = pi_enclosure(160)
        assert enc.width < F(1, 10**40)
        assert enc.lo > F(31415926535, 10**10)
        assert enc.hi < F(31415926536, 10**10)

    def test_pi_enclosure_tight(self):
        enc = pi_enclosure(bits=256)
        assert enc.width < F(1, 2**252)

    def test_pi_enclosure_too_wide_raises(self, monkeypatch):
        # the width post-condition must hold under python -O as well
        monkeypatch.setattr(exact_arith, "_pi_enclosure_bits", lambda bits: RationalInterval(F(3), F(4)))
        with pytest.raises(ExactArithError, match="pi enclosure"):
            pi_enclosure(160)

    def test_half_integer_power(self):
        iv = rational_power_half(5, 21, 96)  # 5^(21/2)
        assert iv.lo ** 2 <= F(5) ** 21 <= iv.hi ** 2
        assert rational_power_half(5, 4, 96) == RationalInterval.exact(25)

    def test_dyadic_rounding_brackets(self):
        for x in (F(3, 7), F(-22, 7), F(10**60, 3), F(1, 10**45)):
            assert dyadic_round(x, 64, False) <= x <= dyadic_round(x, 64, True)

    def test_outward_round_contains(self):
        iv = RationalInterval(F(1, 3), F(22, 7))
        out = iv.outward_round(32)
        assert contains_interval(out, iv)
