"""Euler characteristics of principal arithmetic subgroups and the
reciprocal-integer obstruction.

Two independent evaluation paths are provided and must agree:

* the exact closed form |chi(Lambda)| = 2^(1-r d) * prod(local factors)
  * prod_j |zeta_k(1-2j)|, obtained from the covolume formula by the
  functional equation (the discriminant power cancels exactly), and
* a rigorous transcendental enclosure of the covolume formula itself,
  2 |D|^(r^2 + r/2) C(r)^d prod_j zeta_k(2j) prod(local factors).

The obstruction: with class number one the Euler characteristic of a
maximal arithmetic subgroup is, up to a power of 2, an integer multiple
of the zeta product, so an odd prime in the numerator of that product
rules out a reciprocal-integer value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .exact_arith import (
    RationalInterval,
    Value,
    odd_part_of_numerator,
    pi_enclosure,
    rational_power_half,
    smallest_prime_factor,
    two_adic_valuation,
)
from .characters_zeta import zeta_k_numeric, zeta_row
from .field_tables import NumberFieldRecord
from .local_factors import LocalFactor


class EulerCharError(Exception):
    pass


class ClassNumberPreconditionError(EulerCharError):
    """The closed-form decomposition needs class number one."""


class ArithmeticDatum(Value):
    """A field, a rank, and the local factors over the bad places."""

    __slots__ = ("field", "r", "local_factors")
    _compared = __slots__

    def __init__(self, field: NumberFieldRecord, r: int, local_factors: tuple[LocalFactor, ...] = ()) -> None:
        if r < 2:
            raise EulerCharError("rank must be at least 2")
        if not field.totally_real:
            raise EulerCharError(f"{field.label}: field must be totally real")
        if field.degree < 2:
            raise EulerCharError("the rationals cannot define a cocompact lattice here")
        self.field, self.r, self.local_factors = field, r, local_factors

    @property
    def degree(self) -> int:
        return self.field.degree


class CrConstant(NamedTuple):
    """The rank constant of the covolume formula: the exact symbolic pair
    (product of odd factorials, power of 2*pi) and a rigorous enclosure of
    their ratio."""

    r: int
    factorial_product: int
    two_pi_exponent: int
    interval: RationalInterval


@cache
def C_of_r(r: int, precision_bits: int = 160) -> CrConstant:
    """C(r) = prod_{j=1}^{r} (2j-1)! / (2 pi)^(2j), enclosed rigorously.

    Memoized: every bounds pass and exclusion check of a rank uses it.
    """
    if r < 1:
        raise EulerCharError("rank constant needs r >= 1")
    fact = 1
    for j in range(1, r + 1):
        fact *= math.factorial(2 * j - 1)
    power = r * (r + 1)
    two_pi = pi_enclosure(bits=precision_bits + 16).scale(2)
    interval = RationalInterval.exact(fact) / two_pi.pow_int(power)
    return CrConstant(r=r, factorial_product=fact, two_pi_exponent=power, interval=interval)


def chi_principal_from_values(
    r: int, degree: int, zeta_magnitudes: list[Fraction], local_values: list[int]
) -> Fraction:
    """|chi(Lambda)| from the zeta magnitudes and local factors alone.

    Structurally independent of the discriminant: the closed form is
    2^(1 - r*degree) * prod(local) * prod(zeta magnitudes).
    """
    if len(zeta_magnitudes) != r:
        raise EulerCharError(f"need exactly r={r} zeta magnitudes, got {len(zeta_magnitudes)}")
    out = Fraction(2) ** (1 - r * degree)
    for v in local_values:
        out *= v
    for z in zeta_magnitudes:
        if z <= 0:
            raise EulerCharError("zeta magnitudes must be positive")
        out *= z
    return out


def chi_principal_exact(datum: ArithmeticDatum) -> Fraction:
    """|chi(Lambda)| as an exact rational."""
    zetas = [abs(z) for z in zeta_row(datum.field, datum.r)]
    return chi_principal_from_values(
        datum.r, datum.degree, zetas, [lf.value for lf in datum.local_factors]
    )


def chi_principal_numeric(datum: ArithmeticDatum, precision_bits: int = 192) -> RationalInterval:
    """Rigorous enclosure of |chi(Lambda)| along the transcendental path."""
    r, d, D = datum.r, datum.degree, datum.field.disc
    acc = rational_power_half(D, 2 * r * r + r, bits=precision_bits + 16).scale(2)
    acc = acc * C_of_r(r, precision_bits).interval.pow_int(d)
    for j in range(1, r + 1):
        acc = acc * zeta_k_numeric(datum.field, 2 * j, precision_bits)
    for lf in datum.local_factors:
        acc = acc.scale(lf.value)
    return acc


def index_divisor(h: int, degree: int, bad_place_count: int) -> int:
    """Upper bound h * 2^degree * 4^(bad places) for the index of a
    principal subgroup in its normalizer."""
    if h < 1 or degree < 1 or bad_place_count < 0:
        raise EulerCharError("invalid index-divisor arguments")
    return h * 2**degree * 4**bad_place_count


class EulerChar(NamedTuple):
    chi_lambda: Fraction
    index_divisor: int
    chi_gamma_lower: Fraction
    two_exponent: int


def build_euler_char(datum: ArithmeticDatum) -> EulerChar:
    chi = chi_principal_exact(datum)
    divisor = index_divisor(datum.field.h, datum.degree, len(datum.local_factors))
    lower = chi / divisor
    return EulerChar(
        chi_lambda=chi,
        index_divisor=divisor,
        chi_gamma_lower=lower,
        two_exponent=-two_adic_valuation(lower),
    )


class ObstructionVerdict(NamedTuple):
    field_label: str
    r: int
    zeta_values: tuple[Fraction, ...]  # signed
    product: Fraction  # product of magnitudes, reduced
    odd_numerator: int
    witness: int | None  # smallest odd prime factor of the numerator

    @property
    def obstructed(self) -> bool:
        return self.witness is not None


def smallest_odd_prime_factor(n: int) -> int | None:
    """Smallest prime factor of an odd n > 1; None for n = 1."""
    if n == 1:
        return None
    return smallest_prime_factor(n)


def reciprocal_integer_obstruction(datum: ArithmeticDatum) -> ObstructionVerdict:
    """Decide whether the field obstructs a reciprocal-integer Euler
    characteristic at this rank.

    Requires class number one.  If the reduced numerator of
    prod_j |zeta_k(1-2j)| carries an odd prime p, then every
    |chi(Gamma)| = 2^-a * (integer local factors) * product keeps p in
    its numerator and cannot equal 1/q.
    """
    if datum.field.h != 1:
        raise ClassNumberPreconditionError(
            f"{datum.field.label}: class number {datum.field.h} != 1, decomposition unavailable"
        )
    signed = tuple(zeta_row(datum.field, datum.r))
    product = Fraction(1)
    for z in signed:
        product *= abs(z)
    odd = odd_part_of_numerator(product)
    return ObstructionVerdict(
        field_label=datum.field.label,
        r=datum.r,
        zeta_values=signed,
        product=product,
        odd_numerator=odd,
        witness=smallest_odd_prime_factor(odd),
    )
