from fractions import Fraction as F

import pytest
from mpmath import mp

from hypeuler.characters_zeta import (
    MAX_TERMS,
    CharacterError,
    NonFundamentalDiscriminantError,
    PrecisionError,
    UnsupportedFieldError,
    character_from_generator,
    characters_for_field,
    generalized_bernoulli,
    hurwitz_zeta_enclosure,
    kronecker_character,
    kronecker_symbol,
    trivial_character,
    zeta_k_numeric,
    zeta_k_special,
    zeta_row,
)
from hypeuler.characters_zeta import _l_factor_enclosure, _l_value_at_negative, _round_width_floor
from hypeuler.exact_arith import RationalInterval, Zeta3Number, pi_enclosure, rational_power_half
from hypeuler.field_tables import load_table


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
            assert chi.value(a).as_rational() == legendre
        assert [chi.exponent_of(a) for a in (1, 2, 3, 4)] == [0, 1, 1, 0]

    def test_d8(self):
        chi = kronecker_character(8)
        assert [chi.value(a).as_rational() for a in (1, 3, 5, 7)] == [1, -1, -1, 1]
        assert chi.exponent_of(2) is None

    def test_d12(self):
        chi = kronecker_character(12)
        assert [chi.value(a).as_rational() for a in (1, 5, 7, 11)] == [1, -1, -1, 1]

    def test_non_fundamental_rejected(self):
        for D in (1, 9, 20, 45):
            with pytest.raises(NonFundamentalDiscriminantError):
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
        assert chars[0].is_trivial()
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
        with pytest.raises(UnsupportedFieldError):
            characters_for_field(rec)

    def test_bad_generator_rejected(self):
        with pytest.raises(UnsupportedFieldError):
            character_from_generator(7, 2, 1, 3)  # 2 has order 3 mod 7, not a generator
        with pytest.raises(UnsupportedFieldError):
            character_from_generator(9, 3, 1, 3)  # 3 is not a unit mod 9

    def test_conjugate_pairing(self, table):
        # chibar(a) is the Galois conjugate of chi(a), so chi(a) chibar(a) = N(chi(a)) = 1
        chi = characters_for_field(rec_c(table, 49))[1]
        chibar = character_from_generator(7, 3, 2, 3)
        for a in range(1, 7):
            x = chi.value(a)
            assert chibar.value(a) == Zeta3Number(x.a - x.b, -x.b)
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
        from hypeuler.exact_arith import bernoulli_number

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
        with pytest.raises(CharacterError):
            zeta_k_special(rec_q(table, 5), 0)


class TestHurwitzEnclosure:
    @pytest.mark.parametrize(
        "s,q,terms,corr",
        [(2, F(1), 16, 6), (2, F(1, 5), 24, 8), (4, F(3, 7), 16, 6), (10, F(2, 9), 12, 8)],
    )
    def test_against_mpmath(self, s, q, terms, corr):
        enc = hurwitz_zeta_enclosure(s, q, terms, corr, 192)
        mp.dps = 50
        true = mp.zeta(s, mp.mpf(q.numerator) / q.denominator)
        lo = mp.mpf(enc.lo.numerator) / enc.lo.denominator
        hi = mp.mpf(enc.hi.numerator) / enc.hi.denominator
        assert lo <= true <= hi
        assert enc.width < F(1, 10**12)

    def test_nested_refinement(self):
        coarse = hurwitz_zeta_enclosure(2, F(1, 3), 8, 4, 192)
        fine = hurwitz_zeta_enclosure(2, F(1, 3), 64, 12, 192)
        assert coarse.contains_interval(fine)

    def test_coarse_truncation_encloses(self):
        # independent crude oracle: plain truncation with integral tail bound
        s, q, N = 2, F(2, 5), 400
        partial = sum(F(1) / (k + q) ** s for k in range(N))
        crude = RationalInterval(partial, partial + (N + q) ** (1 - s) / (s - 1) + (N + q) ** -s)
        fine = hurwitz_zeta_enclosure(s, q, 32, 10, 192)
        assert crude.lo <= fine.lo and fine.hi <= crude.hi + F(1, 10**6)


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
        with pytest.raises(CharacterError):
            zeta_k_numeric(rec_q(table, 5), 3, 192)


# The bundled candidate fields, as (degree, discriminant).
CANDIDATE_FIELDS = [(2, 5), (2, 8), (2, 12), (2, 13), (2, 17), (3, 49), (3, 81)]


def full_ladder(rec, s, precision_bits):
    """zeta_k_numeric's ladder with every round computed from 32 terms and
    14 corrections, none skipped: the first enclosure within
    2^-precision_bits, and (terms, corrections, width) of each round."""
    target = F(1, 2**precision_bits)
    terms, corrections = 32, 14
    rounds = []
    while True:
        acc = RationalInterval.exact(1)
        for chi in characters_for_field(rec):
            acc = acc * _l_factor_enclosure(chi, s, terms, corrections, precision_bits + 16)
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

        def counting(s, q, terms, corrections, precision_bits):
            seen.append(terms)
            return hurwitz_zeta_enclosure(s, q, terms, corrections, precision_bits)

        monkeypatch.setattr("hypeuler.characters_zeta.hurwitz_zeta_enclosure", counting)
        zeta_k_numeric(rec_q(table, 5), 2, precision_bits=176)
        assert seen and set(seen) == {64}


class TestPrecisionRange:
    def test_800_bits_reached(self, table):
        enc = zeta_k_numeric(rec_q(table, 5), 2, precision_bits=800)
        assert enc.width <= F(1, 2**800)

    def test_805_bits_beyond_the_ladder(self, table):
        with pytest.raises(PrecisionError) as err:
            zeta_k_numeric(rec_q(table, 5), 2, precision_bits=805)
        assert "after 4096 terms" in str(err.value)
        assert err.value.best.lo > 1

    def test_806_bits_fail_before_any_enclosure(self, table, monkeypatch):
        # the 4096-term round's floor at s = 2 is 2^-805.9: from 806 bits on
        # every round is ruled out by its floor and none is computed
        assert _round_width_floor(2, MAX_TERMS, 40, 2) > F(1, 2**806)

        def refuse(*args):
            raise AssertionError("no Hurwitz enclosure may be built past the ladder's reach")

        monkeypatch.setattr("hypeuler.characters_zeta.hurwitz_zeta_enclosure", refuse)
        for bits in (806, 65536):
            with pytest.raises(PrecisionError, match=f"above target 2\\^-{bits} after 4096 terms") as err:
                zeta_k_numeric(rec_q(table, 5), 2, precision_bits=bits)
            assert err.value.best is None
