"""The integer kernels under the local-factor polynomials and the
generalized Bernoulli numbers, against the general rational code and the
defining formulas."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypeuler.characters_zeta import generalized_bernoulli
from hypeuler.field_path import (
    Zeta3Number,
    character_from_generator,
    characters_for_field,
    integer_exact_divide,
    taylor_shift,
)
from hypeuler.field_tables import load_table
from hypeuler.local_factors import LocalFactorError
from hypeuler.offline import RatPolynomial, horner, poly_exact_divide
from oracles import bernoulli_polynomial_eval, character_value

small_ints = st.integers(min_value=-50, max_value=50)


def nonzero_poly(min_size=1, max_size=8):
    """Integer coefficients, lowest degree first, with a nonzero leading one."""
    return st.tuples(
        st.lists(small_ints, min_size=min_size - 1, max_size=max_size - 1),
        small_ints.filter(bool),
    ).map(lambda p: tuple(p[0]) + (p[1],))


def int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


class TestTaylorShift:
    @settings(max_examples=80, deadline=None)
    @given(nonzero_poly(), st.integers(min_value=-6, max_value=6))
    def test_matches_shift_argument(self, coeffs, a):
        shifted = taylor_shift(coeffs, a)
        assert all(type(c) is int for c in shifted)
        assert RatPolynomial.from_seq(shifted) == RatPolynomial.from_seq(coeffs).shift_argument(a)

    @settings(max_examples=80, deadline=None)
    @given(nonzero_poly(), st.integers(min_value=-6, max_value=6))
    def test_matches_binomial_expansion(self, coeffs, a):
        # p(u + a) = sum_i c_i sum_k C(i, k) a^(i-k) u^k
        expected = [
            sum(c * math.comb(i, k) * a ** (i - k) for i, c in enumerate(coeffs) if i >= k)
            for k in range(len(coeffs))
        ]
        assert taylor_shift(coeffs, a) == expected

    @settings(max_examples=50, deadline=None)
    @given(nonzero_poly(), st.integers(min_value=-6, max_value=6), st.integers(min_value=-9, max_value=9))
    def test_horner_agrees_with_shift(self, coeffs, a, u):
        assert horner(taylor_shift(coeffs, a), u) == horner(coeffs, u + a)
        assert RatPolynomial.from_seq(coeffs).evaluate(u + a) == horner(coeffs, u + a)

    def test_empty_polynomial(self):
        assert taylor_shift((), 2) == [] and horner((), 5) == 0


class TestIntegerExactDivide:
    @settings(max_examples=80, deadline=None)
    @given(nonzero_poly(), nonzero_poly(max_size=5))
    def test_matches_poly_exact_divide(self, a, b_low):
        b = b_low[:-1] + (1,)  # monic
        quotient = integer_exact_divide(int_mul(a, b), b)
        assert quotient == a
        product = RatPolynomial.from_seq(a) * RatPolynomial.from_seq(b)
        assert RatPolynomial.from_seq(quotient) == poly_exact_divide(product, RatPolynomial.from_seq(b))

    @settings(max_examples=60, deadline=None)
    @given(nonzero_poly(), nonzero_poly(min_size=2, max_size=5), nonzero_poly(max_size=4))
    def test_nonzero_remainder_raises(self, a, b_low, rem):
        b = b_low[:-1] + (1,)
        rem = rem[: len(b) - 1]  # degree below deg b
        if not any(rem):
            return
        num = list(int_mul(a, b))
        for i, c in enumerate(rem):
            num[i] += c
        with pytest.raises(LocalFactorError, match=r"^nonzero remainder \[.*\] in exact division$"):
            integer_exact_divide(tuple(num), b)

    @settings(max_examples=60, deadline=None)
    @given(nonzero_poly(), nonzero_poly(max_size=4), small_ints.filter(lambda c: c not in (0, 1)))
    def test_non_monic_divisor_raises(self, a, b_low, lead):
        # (a * b) / (lead * b) = a / lead and (lead * a * b) / (lead * b) = a
        # are both refused, the integral quotient too
        b = b_low[:-1] + (1,)
        den = tuple(lead * c for c in b)
        with pytest.raises(LocalFactorError, match=rf"leading coefficient {lead} of the divisor is not 1"):
            integer_exact_divide(int_mul(a, b), den)
        with pytest.raises(LocalFactorError, match=rf"leading coefficient {lead} of the divisor is not 1"):
            integer_exact_divide(tuple(lead * c for c in int_mul(a, b)), den)

    def test_lower_degree_numerator(self):
        assert integer_exact_divide((), (1, 1)) == ()
        with pytest.raises(LocalFactorError, match=r"^nonzero remainder \[3\] in exact division$"):
            integer_exact_divide((3,), (1, 1))


def per_residue_bernoulli(n, chi):
    """B_{n,chi} = f^(n-1) sum_{a=1}^{f} chi(a) B_n(a/f), term by term."""
    f = chi.modulus
    total = Zeta3Number(F(0))
    for a in range(1, f + 1):
        if chi.exponent_of(a) is not None:
            total = total + character_value(chi, a).scale(bernoulli_polynomial_eval(n, F(a, f)))
    return total.scale(F(f) ** (n - 1))


def test_generalized_bernoulli_matches_definition():
    """Every character of every bundled field of conductor at most 120,
    the conjugate of each cubic one included, for n = 1..8."""
    checked = 0
    for rec in load_table().records:
        if not rec.abelian:
            continue
        chars = list(characters_for_field(rec))  # a copy: the memo's tuple is shared
        if max(chi.modulus for chi in chars) > 120:
            continue
        if rec.degree == 3:
            chars.append(character_from_generator(rec.conductor, rec.char_gen[0], 2, 3))
        for chi in chars:
            for n in range(1, 9):
                assert generalized_bernoulli(n, chi) == per_residue_bernoulli(n, chi), (rec.label, chi, n)
                checked += 1
    assert checked == 696
