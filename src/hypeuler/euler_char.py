"""Euler characteristics of principal arithmetic subgroups and the
reciprocal-integer obstruction.

Lambda is the principal arithmetic subgroup with no bad places (every
parahoric hyperspecial).  A certificate states |chi(Lambda)| exactly, as the
closed form P / 2^(r d - 1) in the zeta product P = prod_j |zeta_k(1-2j)|
(``chi_lambda_from_product``), obtained from the covolume formula by the
functional equation (the discriminant power cancels exactly).  The tests
hold it against ``chi_principal_numeric``, a rigorous transcendental
enclosure of the covolume formula itself,
2 |D|^(r^2 + r/2) C(r)^d prod_j zeta_k(2j), through
``search_bounds.dual_path_check``; no certify or verify run encloses it.
The rank constant C(r) is only ever its enclosure (``C_of_r``).

The obstruction: with class number one the Euler characteristic of a
maximal arithmetic subgroup is, up to a power of 2, chi(Lambda) times an
integer (one local factor per bad place, each an integer above 4 by
``local_factors.minimum_proof``), so an odd prime in the numerator of
the zeta product rules out a reciprocal-integer value.  The obstruction
computes P once per field and rank, and ``build_euler_char`` takes
chi(Lambda) from it.  The closed form, the index bound and the 2-adic and
odd-prime helpers are in ``field_path``, which the obstruction and
``build_euler_char`` import when first called.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache

from .exact_arith import RationalInterval, Value, field_path_getattr, pi_enclosure
from .characters_zeta import zeta_row
from .field_tables import NumberFieldRecord

__getattr__ = field_path_getattr(__name__, {"chi_principal_exact": "offline"})


class EulerCharError(Exception):
    pass


class ArithmeticDatum(Value):
    """A field of a loaded table, whose rows are checked at load, and a rank."""

    __slots__ = ("field", "r")
    _compared = __slots__

    def __init__(self, field: NumberFieldRecord, r: int) -> None:
        if r < 2:
            raise EulerCharError("rank must be at least 2")
        self.field, self.r = field, r

    @property
    def degree(self) -> int:
        return self.field.degree


@cache
def C_of_r(r: int, precision_bits: int) -> RationalInterval:
    """C(r) = prod_{j=1}^{r} (2j-1)! / (2 pi)^(2j), enclosed rigorously.

    Memoized: every bounds pass and exclusion check of a rank uses it.
    """
    if r < 1:
        raise EulerCharError("rank constant needs r >= 1")
    fact = math.prod(math.factorial(2 * j - 1) for j in range(1, r + 1))
    two_pi = pi_enclosure(bits=precision_bits + 16).scale(2)
    return RationalInterval.exact(fact) / two_pi.pow_int(r * (r + 1))


def chi_principal_numeric(datum: ArithmeticDatum, precision_bits: int) -> RationalInterval:
    """Rigorous enclosure of |chi(Lambda)| along the transcendental path, by
    ``numeric_path.chi_principal_enclosure``."""
    from .numeric_path import chi_principal_enclosure

    return chi_principal_enclosure(datum, precision_bits)


EulerChar = namedtuple("EulerChar", "chi_lambda index_divisor chi_gamma_lower two_exponent")


def build_euler_char(datum: ArithmeticDatum, product: Fraction) -> EulerChar:
    """The Euler data of the field and rank, from their zeta product P."""
    from .field_path import chi_lambda_from_product, index_divisor, two_adic_valuation

    chi = chi_lambda_from_product(product, datum.r, datum.degree)
    divisor = index_divisor(datum.field.h, datum.degree)
    lower = chi / divisor
    return EulerChar(
        chi_lambda=chi,
        index_divisor=divisor,
        chi_gamma_lower=lower,
        two_exponent=-two_adic_valuation(lower),
    )


class ObstructionVerdict(namedtuple("ObstructionVerdict", "zeta_values product odd_numerator witness")):
    """The signed zeta values, the product of their magnitudes (reduced), its
    numerator's odd part, and that part's smallest prime factor, or None."""

    __slots__ = ()

    @property
    def obstructed(self) -> bool:
        return self.witness is not None


def reciprocal_integer_obstruction(datum: ArithmeticDatum) -> ObstructionVerdict:
    """Decide whether the field obstructs a reciprocal-integer Euler
    characteristic at this rank.

    Requires class number one.  If the reduced numerator of
    prod_j |zeta_k(1-2j)| carries an odd prime p, then every
    |chi(Gamma)| = 2^-a * (integer local factors) * product keeps p in
    its numerator and cannot equal 1/q.
    """
    from .field_path import odd_part_of_numerator, smallest_odd_prime_factor

    if datum.field.h != 1:
        raise EulerCharError(
            f"{datum.field.label}: class number {datum.field.h} != 1, decomposition unavailable"
        )
    signed = tuple(zeta_row(datum.field, datum.r))
    product = math.prod(map(abs, signed))
    odd = odd_part_of_numerator(product)
    return ObstructionVerdict(
        zeta_values=signed,
        product=product,
        odd_numerator=odd,
        witness=smallest_odd_prime_factor(odd),
    )
