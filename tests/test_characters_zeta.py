import math
import time
from fractions import Fraction as F

import pytest
from mpmath import mp

from hypeuler.characters_zeta import (
    CharacterError,
    generalized_bernoulli,
    hurwitz_zeta_enclosure,
    zeta_k_numeric,
    zeta_k_special,
    zeta_row,
)
from hypeuler.characters_zeta import _l_value_at_negative
from hypeuler.exact_arith import ExactArithError, RationalInterval, pi_enclosure
from hypeuler.field_path import (
    Zeta3Number,
    bernoulli_number,
    character_from_generator,
    characters_for_field,
    kronecker_character,
    kronecker_symbol,
    trivial_character,
)
from hypeuler.field_tables import load_table
from hypeuler.numeric_path import (
    MAX_TERMS,
    _euler_maclaurin_coefficient,
    _hurwitz_units,
    _l_factor_enclosure,
    _round_width_floor,
    _tail_weights,
    rational_power_half,
)
from oracles import character_value, contains_interval


@pytest.fixture(scope="module")
def table():
    return load_table()


def rec_q(table, D):
    rec = table.by_disc(2, D)
    assert rec is not None
    return rec


def rec_c(table, D):
    rec = table.by_disc(3, D)
    assert rec is not None
    return rec


# Reference values for the bundled candidate fields: zeta_k(1-2j) for
# j = 1.. (5 values for D=5, 4 for D=8, 3 elsewhere).
GOLDEN = {
    (2, 5): ["1/30", "1/60", "67/630", "361/120", "412751/1650"],
    (2, 8): ["1/12", "11/120", "361/252", "24611/240"],
    (2, 12): ["1/6", "23/60", "1681/126"],
    (2, 13): ["1/6", "29/60", "33463/1638"],
    (2, 17): ["1/3", "41/30", "5791/63"],
    (3, 49): ["-1/21", "79/210", "-7393/63"],
    (3, 81): ["-1/9", "199/90", "-50353/27"],
}


class TestKronecker:
    def test_d5_matches_legendre(self):
        chi = kronecker_character(5)
        # oracle: Legendre symbol via Euler's criterion mod 5
        for a in range(1, 5):
            legendre = 1 if pow(a, 2, 5) == 1 else -1
            assert character_value(chi, a).as_rational() == legendre
        assert [chi.exponent_of(a) for a in (1, 2, 3, 4)] == [0, 1, 1, 0]

    def test_d8(self):
        chi = kronecker_character(8)
        assert [character_value(chi, a).as_rational() for a in (1, 3, 5, 7)] == [1, -1, -1, 1]
        assert chi.exponent_of(2) is None

    def test_d12(self):
        chi = kronecker_character(12)
        assert [character_value(chi, a).as_rational() for a in (1, 5, 7, 11)] == [1, -1, -1, 1]

    def test_non_fundamental_rejected(self):
        for D in (1, 9, 20, 45):
            with pytest.raises(CharacterError, match=f"^{D} is not a fundamental discriminant > 1$"):
                kronecker_character(D)

    def test_completely_multiplicative(self):
        chi = kronecker_character(17)
        f = chi.modulus
        for a in range(1, f):
            for b in range(1, f):
                assert kronecker_symbol(17, a * b % f) == kronecker_symbol(17, a) * kronecker_symbol(17, b)

    def test_all_characters_even(self):
        for D in (5, 8, 12, 13, 17):
            assert kronecker_character(D).is_even()


class TestCharactersForField:
    def test_quadratic(self, table):
        chars = characters_for_field(rec_q(table, 5))
        assert len(chars) == 2
        assert chars[0].order == 1
        assert chars[1] == kronecker_character(5)

    def test_cubic_49(self, table):
        chars = characters_for_field(rec_c(table, 49))
        assert len(chars) == 2  # the cubic character stands for its conjugate pair
        chi = chars[1]
        assert chi.modulus == 7 and chi.order == 3
        assert chi.exponent_of(3) == 1  # chi(3) = zeta_3
        assert chi.is_even()
        chibar = character_from_generator(7, 3, 2, 3)
        assert chibar.exponents == tuple(None if e is None else -e % 3 for e in chi.exponents)

    def test_cubic_81(self, table):
        chars = characters_for_field(rec_c(table, 81))
        chi = chars[1]
        assert chi.modulus == 9 and chi.exponent_of(2) == 1

    def test_non_abelian_rejected(self, table):
        rec = table.by_disc(3, 148)  # non-Galois cubic
        with pytest.raises(CharacterError, match=f"^{rec.label}: field is not abelian, no character decomposition$"):
            characters_for_field(rec)

    def test_bad_generator_rejected(self):
        with pytest.raises(CharacterError, match="^2 does not generate the units mod 7; character data invalid$"):
            character_from_generator(7, 2, 1, 3)  # 2 has order 3 mod 7, not a generator
        with pytest.raises(CharacterError, match="^3 does not generate the units mod 9; character data invalid$"):
            character_from_generator(9, 3, 1, 3)  # 3 is not a unit mod 9

    def test_conjugate_pairing(self, table):
        # chibar(a) is the Galois conjugate of chi(a), so chi(a) chibar(a) = N(chi(a)) = 1
        chi = characters_for_field(rec_c(table, 49))[1]
        chibar = character_from_generator(7, 3, 2, 3)
        for a in range(1, 7):
            x = character_value(chi, a)
            assert character_value(chibar, a) == Zeta3Number(x.a - x.b, -x.b)
            assert x.norm() == 1


class TestGeneralizedBernoulli:
    def test_quadratic_mod5(self):
        b = generalized_bernoulli(2, kronecker_character(5))
        assert b.as_rational() == F(4, 5)

    def test_quadratic_mod8(self):
        b = generalized_bernoulli(2, kronecker_character(8))
        assert b.as_rational() == 2

    def test_parity_vanishing(self):
        # even character, odd index >= 3
        for chi in (kronecker_character(5), kronecker_character(17), trivial_character()):
            assert chi.is_even()
            for n in (3, 5, 7):
                assert generalized_bernoulli(n, chi).is_zero()

    def test_trivial_character_gives_bernoulli(self):
        for n in (2, 4, 6, 8):
            assert generalized_bernoulli(n, trivial_character()).as_rational() == bernoulli_number(n)

    @pytest.mark.parametrize("D", [49, 81, 169, 361, 961])
    def test_conjugate_character_gives_conjugate_value(self, table, D):
        # B_{n,chibar} is the Galois conjugate (a - b) - b zeta3 of
        # B_{n,chi} = a + b zeta3: the fact that lets zeta_k_special take a
        # cubic pair as the norm of one L-value
        rec = rec_c(table, D)
        chi = characters_for_field(rec)[1]
        g, e, order = rec.char_gen
        assert (e, order) == (1, 3)
        chibar = character_from_generator(rec.conductor, g, 2, 3)
        for n in range(2, 13, 2):
            b = generalized_bernoulli(n, chi)
            assert generalized_bernoulli(n, chibar) == Zeta3Number(b.a - b.b, -b.b), (D, n)

    def test_order_outside_zeta3_raises(self):
        # a quartic character mod 5 is a valid character whose values lie
        # outside Q(zeta3), so its Bernoulli numbers cannot be represented
        with pytest.raises(ExactArithError, match="order 4"):
            generalized_bernoulli(2, character_from_generator(5, 2, 1, 4))


class TestSpecialValues:
    def test_golden_table(self, table):
        for (d, D), row in GOLDEN.items():
            rec = table.by_disc(d, D)
            got = zeta_row(rec, len(row))
            assert [str(z) for z in got] == [str(F(s)) for s in row], f"mismatch for d={d}, D={D}"

    def test_spec_cells(self, table):
        assert zeta_k_special(rec_q(table, 5), 1) == F(1, 30)
        assert zeta_k_special(rec_c(table, 49), 3) == F(-7393, 63)
        assert zeta_k_special(rec_q(table, 17), 2) == F(41, 30)

    def test_sign_law(self, table):
        for (d, D), row in GOLDEN.items():
            rec = table.by_disc(d, D)
            for j in range(1, len(row) + 2):  # one beyond the printed cells
                v = zeta_k_special(rec, j)
                assert (v > 0) == ((-1) ** (j * d) > 0), f"sign law fails d={d} D={D} j={j}"

    def test_conjugate_collapse_value(self, table):
        # L(-1, chi) L(-1, chibar) = N(L(-1, chi)) for conductor 7 equals (-1/21)/(-1/12) = 4/7
        chi = characters_for_field(rec_c(table, 49))[1]
        assert _l_value_at_negative(2, chi).norm() == F(4, 7)

    def test_invalid_j(self, table):
        with pytest.raises(CharacterError, match="^j must be a positive integer$"):
            zeta_k_special(rec_q(table, 5), 0)


class TestHurwitzEnclosure:
    @pytest.mark.parametrize(
        "s,q,terms,corr",
        [(2, F(1), 16, 6), (2, F(1, 5), 24, 8), (4, F(3, 7), 16, 6), (10, F(2, 9), 12, 8)],
    )
    def test_against_mpmath(self, s, q, terms, corr):
        enc = hurwitz_zeta_enclosure(s, q, terms, corr, 192)
        with mp.workdps(50):
            true = mp.zeta(s, mp.mpf(q.numerator) / q.denominator)
            lo = mp.mpf(enc.lo.numerator) / enc.lo.denominator
            hi = mp.mpf(enc.hi.numerator) / enc.hi.denominator
            assert lo <= true <= hi
        assert enc.width < F(1, 10**12)

    def test_nested_refinement(self):
        coarse = hurwitz_zeta_enclosure(2, F(1, 3), 8, 4, 192)
        fine = hurwitz_zeta_enclosure(2, F(1, 3), 64, 12, 192)
        assert contains_interval(coarse, fine)

    def test_coarse_truncation_encloses(self):
        # independent crude oracle: plain truncation with integral tail bound
        s, q, N = 2, F(2, 5), 400
        partial = sum(F(1) / (k + q) ** s for k in range(N))
        crude = RationalInterval(partial, partial + (N + q) ** (1 - s) / (s - 1) + (N + q) ** -s)
        fine = hurwitz_zeta_enclosure(s, q, 32, 10, 192)
        assert crude.lo <= fine.lo and fine.hi <= crude.hi + F(1, 10**6)


def per_term_units(s, qn, qd, terms, corrections, P):
    """The per-term kernel that ``_hurwitz_units`` replaces: each head term,
    the integral term, the 1/2 term and every kept correction floored into
    lo and ceiled into hi on its own, the omitted correction as before."""
    M = terms * qd + qn
    unit = qd**s << P
    summed = [(unit, (k * qd + qn) ** s) for k in range(terms)]
    summed += [(qd ** (s - 1) << P, (s - 1) * M ** (s - 1)), (unit, 2 * M**s)]
    num_power, den_power = qd ** (s + 1) << P, M ** (s + 1)
    for i in range(1, corrections + 2):
        c = _euler_maclaurin_coefficient(s, i)
        summed.append((c.numerator * num_power, c.denominator * den_power))
        num_power *= qd * qd
        den_power *= M * M
    *kept, omitted = summed
    lo = hi = 0
    for num, den in kept:
        quot, rem = divmod(num, den)
        lo += quot
        hi += quot + (rem > 0)
    quot, rem = divmod(*omitted)
    return lo + min(0, quot), hi + max(0, quot + (rem > 0))


# the conductors of the candidate fields' characters, and 1 for zeta(s)
KERNEL_MODULI = (1, 5, 7, 8, 9, 12, 13, 17)


class TestHurwitzKernel:
    @pytest.mark.parametrize("f", KERNEL_MODULI)
    def test_encloses_and_is_no_wider_than_per_term(self, f):
        for a in (a for a in range(1, f + 1) if math.gcd(a, f) == 1):
            for s in range(2, 25, 2):
                with mp.workdps(100):
                    true = mp.zeta(s, mp.mpf(a) / f)
                    for terms, corrections in ((32, 14), (64, 20)):
                        for P in (72, 200):
                            lo, hi = _hurwitz_units(s, a, f, terms, corrections, P)
                            assert lo <= true * mp.mpf(2) ** P <= hi, (a, f, s, terms, P)
                            old_lo, old_hi = per_term_units(s, a, f, terms, corrections, P)
                            assert hi - lo <= old_hi - old_lo, (a, f, s, terms, P)

    @pytest.mark.parametrize("s", range(2, 25, 2))
    def test_tail_weights_reproduce_the_coefficients(self, s):
        for m in (14, 20, 40):
            weights, half, L = _tail_weights(s, m)
            assert F(half, L) == F(1, 2)
            assert [F(w, L) for w in weights] == [F(1, s - 1)] + [
                _euler_maclaurin_coefficient(s, i) for i in range(1, m + 1)
            ]

    @pytest.mark.parametrize("s", range(2, 25, 2))
    def test_tail_is_rounded_once(self, s):
        # with no head terms the kernel is the kept tail
        # q^(1-s) (1/(s-1) + 1/(2q) + sum_i c_i q^-2i) and the omitted
        # correction, each rounded once: compare with exact rationals
        P = 96
        for q in (F(1), F(1, 5), F(3, 7), F(16, 17)):
            for m in (14, 20):
                kept = sum(_euler_maclaurin_coefficient(s, i) / q ** (2 * i) for i in range(1, m + 1))
                tail = (F(1, s - 1) + 1 / (2 * q) + kept) / q ** (s - 1) * 2**P
                omitted = _euler_maclaurin_coefficient(s, m + 1) / q ** (s + 2 * m + 1) * 2**P
                lo, hi = _hurwitz_units(s, q.numerator, q.denominator, 0, m, P)
                assert lo == math.floor(tail) + min(0, math.floor(omitted)), (q, m)
                assert hi == math.ceil(tail) + max(0, math.ceil(omitted)), (q, m)


    @pytest.mark.parametrize("s", (2, 4, 6))
    def test_negative_omitted_term_lowers_the_lower_end(self, s):
        # with an odd number m of kept corrections the omitted one, c_(m+1),
        # is negative, and with few terms it spans many units of 2^-P: the
        # lower end must take it, or it lies above zeta_H(s, q) (the ladder
        # keeps an even m, so it never meets this case)
        P = 64
        for q in (F(1), F(1, 3), F(2, 5)):
            for terms, m in ((1, 1), (2, 3), (4, 1)):
                omitted = _euler_maclaurin_coefficient(s, m + 1) / (terms + q) ** (s + 2 * m + 1)
                assert omitted * 2**P < -(2**20), (s, q, terms, m)
                lo, hi = _hurwitz_units(s, q.numerator, q.denominator, terms, m, P)
                with mp.workprec(256):
                    true = mp.zeta(s, to_mpf(q)) * mp.mpf(2) ** P
                    assert lo <= true <= hi, (s, q, terms, m)

    def test_coefficient_is_bernoulli_times_rising_product(self):
        # c_i = B_2i / (2i)! * s(s+1)...(s+2i-2), as first defined
        for s in range(2, 25, 2):
            for i in range(1, 42):
                rising = math.prod(range(s, s + 2 * i - 1))
                assert _euler_maclaurin_coefficient(s, i) == bernoulli_number(2 * i) / math.factorial(2 * i) * rising


class TestNumericZeta:
    def test_quadratic_greater_than_one(self, table):
        enc = zeta_k_numeric(rec_q(table, 5), 2, precision_bits=128)
        assert enc.lo > 1

    def test_functional_equation_consistency(self, table):
        # enclosure of zeta_k(2j) must contain the image of the exact
        # special value under the functional equation
        import math as _math

        for (d, D), row in GOLDEN.items():
            rec = table.by_disc(d, D)
            j = 1
            num_enc = zeta_k_numeric(rec, 2 * j, precision_bits=160)
            z = abs(zeta_k_special(rec, j))
            gamma_ratio = F(_math.factorial(2 * j), 4**j * j) ** d
            pi_pow = pi_enclosure(bits=200).pow_int(2 * j * d)
            disc_pow = rational_power_half(D, 4 * j - 1, bits=200)
            fe_image = RationalInterval.exact(z) * pi_pow / (disc_pow * RationalInterval.exact(gamma_ratio))
            assert fe_image.lo <= num_enc.hi and num_enc.lo <= fe_image.hi, f"no overlap for D={D}"

    def test_d8_s4_below_zeta4_squared(self, table):
        enc = zeta_k_numeric(rec_q(table, 8), 4, precision_bits=96)
        zeta4 = hurwitz_zeta_enclosure(4, F(1), 64, 10, 192)
        assert enc.hi < (zeta4 * zeta4).hi

    def test_cubic_numeric(self, table):
        enc = zeta_k_numeric(rec_c(table, 49), 2, precision_bits=128)
        assert enc.lo > 1
        assert enc.width < F(1, 2**128)

    def test_odd_s_rejected(self, table):
        with pytest.raises(CharacterError, match="^numeric evaluation is defined for even s >= 2$"):
            zeta_k_numeric(rec_q(table, 5), 3, 192)


# The bundled candidate fields, as (degree, discriminant).
CANDIDATE_FIELDS = [(2, 5), (2, 8), (2, 12), (2, 13), (2, 17), (3, 49), (3, 81)]


def full_ladder(rec, s, precision_bits):
    """zeta_k_numeric's ladder with every round computed from 32 terms and
    14 corrections, none skipped: the first enclosure within
    2^-precision_bits, and (terms, corrections, width) of each round.  The
    factors are multiplied as exact rationals, the lower ends clamped at 0,
    and the product rounded outward to units of 2^-(precision_bits + 16)."""
    target = F(1, 2**precision_bits)
    bits = precision_bits + 16
    terms, corrections = 32, 14
    rounds = []
    while True:
        lo = hi = F(1)
        for chi in characters_for_field(rec):
            factor_lo, factor_hi, P = _l_factor_enclosure(chi, s, terms, corrections, bits)
            lo, hi = lo * F(max(factor_lo, 0), 2**P), hi * F(factor_hi, 2**P)
        acc = RationalInterval(F(math.floor(lo * 2**bits), 2**bits), F(math.ceil(hi * 2**bits), 2**bits), bits)
        rounds.append((terms, corrections, acc.width))
        if acc.width <= target or terms >= MAX_TERMS:
            return acc, rounds
        terms *= 2
        corrections = min(corrections + 6, 40)


class TestRoundSkipping:
    @pytest.mark.parametrize("degree,disc", CANDIDATE_FIELDS)
    def test_skip_matches_full_ladder(self, table, degree, disc):
        rec = table.by_disc(degree, disc)
        for bits in (64, 112, 128, 144, 192, 256):
            winning = set()
            for s in range(2, 13, 2):
                got = zeta_k_numeric(rec, s, precision_bits=bits)
                want, rounds = full_ladder(rec, s, bits)
                assert (got.lo, got.hi, got.prec) == (want.lo, want.hi, want.prec), (bits, s)
                for terms, corrections, width in rounds:
                    assert width >= _round_width_floor(s, terms, corrections, rec.degree), (bits, s, terms)
                winning.add(len(rounds))
            if bits in (128, 144):
                assert len(winning) > 1, f"the winning round should vary with s at {bits} bits"

    def test_failing_round_not_computed(self, table, monkeypatch):
        # zeta_k(2) at 176 bits: the 32-term round's floor is about 2^-128,
        # so only the 64-term round runs
        assert _round_width_floor(2, 32, 14, 2) > F(1, 2**176)
        seen = []

        def counting(s, qn, qd, terms, corrections, P):
            seen.append(terms)
            return _hurwitz_units(s, qn, qd, terms, corrections, P)

        monkeypatch.setattr("hypeuler.numeric_path._hurwitz_units", counting)
        zeta_k_numeric(rec_q(table, 5), 2, precision_bits=176)
        assert seen and set(seen) == {64}

    @pytest.mark.parametrize("s", range(2, 25, 2))
    def test_floor_decided_at_the_last_bit(self, table, monkeypatch, s):
        # e is the largest precision whose target the 32-term round's floor
        # meets: the round runs at e bits and is skipped at e + 1
        floor = _round_width_floor(s, 32, 14, 2)
        e = floor.denominator.bit_length() - floor.numerator.bit_length() + 1
        while floor > F(1, 2**e):
            e -= 1
        assert floor > F(1, 2 ** (e + 1))
        original = _l_factor_enclosure

        def counting(chi, s, terms, corrections, bits):
            seen.append(terms)
            return original(chi, s, terms, corrections, bits)

        monkeypatch.setattr("hypeuler.numeric_path._l_factor_enclosure", counting)
        for bits, runs in ((e, True), (e + 1, False)):
            seen = []
            zeta_k_numeric(rec_q(table, 5), s, precision_bits=bits)
            assert (32 in seen) == runs, (s, bits)


def per_residue_l_factor(chi, s, terms, corrections, bits):
    """chi's factor of zeta_k(s) assembled from one rounded
    ``hurwitz_zeta_enclosure`` per unit residue a mod f, added up one
    interval at a time: the assembly that the integer accumulation of
    ``_l_factor_enclosure`` replaces."""
    f = chi.modulus
    half = F(1, 2)
    re_acc = s1 = s2 = RationalInterval.exact(0)
    for a in range(1, f + 1):
        e = chi.exponent_of(a)
        if e is None:
            continue
        enc = hurwitz_zeta_enclosure(s, F(a, f), terms, corrections, bits)
        if e == 0:
            re_acc = re_acc + enc
        elif chi.order == 2:
            re_acc = re_acc - enc
        elif e == 1:
            re_acc, s1 = re_acc - enc.scale(half), s1 + enc
        else:
            re_acc, s2 = re_acc - enc.scale(half), s2 + enc
    scale = F(1, f) ** s
    if chi.order <= 2:
        return re_acc.scale(scale)
    im_acc = RationalInterval.exact(3).sqrt(bits).scale(half) * (s1 - s2)
    return (re_acc.pow_int(2) + im_acc.pow_int(2)).scale(scale * scale)


def mpmath_l_factor(chi, s):
    """chi's factor of zeta_k(s) from mpmath's Hurwitz zeta at the current
    working precision: L(s, chi), or |L(s, chi)|^2 for a cubic chi."""
    f = chi.modulus
    re_part = im_part = mp.mpf(0)
    for a in range(1, f + 1):
        e = chi.exponent_of(a)
        if e is None:
            continue
        h = mp.zeta(s, mp.mpf(a) / f) / mp.mpf(f) ** s
        if chi.order <= 2:
            re_part += h if e == 0 else -h
        else:
            re_part += h if e == 0 else -h / 2
            im_part += 0 if e == 0 else (1 if e == 1 else -1) * mp.sqrt(3) / 2 * h
    return re_part if chi.order <= 2 else re_part**2 + im_part**2


def to_mpf(x):
    return mp.mpf(x.numerator) / x.denominator


class TestLFactorOracle:
    @pytest.mark.parametrize("degree,disc", CANDIDATE_FIELDS)
    def test_integer_accumulation_encloses_and_is_no_wider(self, table, degree, disc):
        for chi in characters_for_field(table.by_disc(degree, disc)):
            for s in range(2, 25, 2):
                with mp.workdps(100):
                    true = mpmath_l_factor(chi, s)
                    for bits in (64, 192):
                        for terms, corrections in ((32, 14), (64, 20)):
                            lo, hi, P = _l_factor_enclosure(chi, s, terms, corrections, bits)
                            assert to_mpf(F(lo, 2**P)) <= true <= to_mpf(F(hi, 2**P)), (chi.modulus, s, bits, terms)
                            old = per_residue_l_factor(chi, s, terms, corrections, bits)
                            assert F(hi - lo, 2**P) <= old.width, (chi.modulus, s, bits, terms)

    @pytest.mark.parametrize("disc", [49, 81])
    def test_cubic_norm_contains_complex_l_value(self, table, disc):
        # |L(s, chi)|^2 from mpmath's Dirichlet L-series with the complex
        # values zeta_3^e, against the exact norm computed without sqrt(3)
        rec = rec_c(table, disc)
        assert rec.label == f"3.3.{disc}.1"
        chi = characters_for_field(rec)[1]
        with mp.workdps(80):
            values = [0 if e is None else mp.expjpi(mp.mpf(2 * e) / 3) for e in chi.exponents]
            for s in range(2, 11):
                true = abs(mp.dirichlet(s, values)) ** 2
                lo, hi, P = _l_factor_enclosure(chi, s, 32, 14, 128)
                assert lo <= true * mp.mpf(2) ** P <= hi, (disc, s)
                assert hi - lo < 2 ** (P - 128), (disc, s)


class TestNumericAgainstMpmath:
    @pytest.mark.parametrize("degree,disc", CANDIDATE_FIELDS)
    def test_ends_hold_the_value(self, table, degree, disc):
        # the product is rounded once to units of 2^-(P+16); in some of these
        # cases its lower end is less than one unit below zeta_k(s), so a
        # lower end one unit high would leave the value out
        rec = table.by_disc(degree, disc)
        tight = 0
        with mp.workprec(400):
            for s in (2, 4, 6):
                true = mp.fprod(mpmath_l_factor(chi, s) for chi in characters_for_field(rec))
                for bits in (64, 128):
                    enc = zeta_k_numeric(rec, s, precision_bits=bits)
                    assert to_mpf(enc.lo) <= true <= to_mpf(enc.hi), (s, bits)
                    tight += true - to_mpf(enc.lo) < mp.mpf(2) ** -(bits + 16)
        assert tight


class TestPrecisionRange:
    def test_800_bits_reached(self, table):
        enc = zeta_k_numeric(rec_q(table, 5), 2, precision_bits=800)
        assert enc.width <= F(1, 2**800)

    def test_805_bits_beyond_the_ladder(self, table):
        with pytest.raises(CharacterError, match=r"above target 2\^-805 after 4096 terms$") as err:
            zeta_k_numeric(rec_q(table, 5), 2, precision_bits=805)
        assert "after 4096 terms" in str(err.value)
        assert str(err.value).startswith("width ") and "width floor" not in str(err.value)

    def test_806_bits_fail_before_any_enclosure(self, table, monkeypatch):
        # the 4096-term round's floor at s = 2 is 2^-805.9: from 806 bits on
        # every round is ruled out by its floor and none is computed
        assert _round_width_floor(2, MAX_TERMS, 40, 2) > F(1, 2**806)

        def refuse(*args):
            raise AssertionError("no Hurwitz enclosure may be built past the ladder's reach")

        monkeypatch.setattr("hypeuler.numeric_path._hurwitz_units", refuse)
        for bits in (806, 65536):
            with pytest.raises(CharacterError, match=f"above target 2\\^-{bits} after 4096 terms") as err:
                zeta_k_numeric(rec_q(table, 5), 2, precision_bits=bits)
            assert str(err.value).startswith("width floor ")

    def test_huge_precision_fails_fast(self, table):
        # the width floor is compared with 2^-P by bit lengths, so no
        # P-bit number is built
        start = time.perf_counter()
        with pytest.raises(CharacterError, match=r"above target 2\^-1000000000 after 4096 terms"):
            zeta_k_numeric(rec_q(table, 5), 2, 10**9)
        assert time.perf_counter() - start < 0.5
