"""hypeuler: exact certification of the nonexistence of compact arithmetic
hyperbolic n-manifolds (n even, n > 4) whose Euler characteristic has
absolute value 2.

The engine evaluates Euler characteristics of principal arithmetic
subgroups in exact rational arithmetic, runs a rigorous discriminant-bound
search over bundled number-field tables, and emits a machine-checkable
certificate together with an independent verifier.
"""

__version__ = "1.0.0"

from .exact_arith import (
    RationalInterval,
    RatPolynomial,
    Zeta3Number,
    bernoulli_number,
    bernoulli_polynomial_eval,
    poly_exact_divide,
    odd_part_of_numerator,
    pi_enclosure,
)
from .field_tables import NumberFieldRecord, FieldTable, load_table, query, validate_table
from .characters_zeta import (
    DirichletCharacter,
    kronecker_character,
    characters_for_field,
    generalized_bernoulli,
    zeta_k_special,
    zeta_k_numeric,
)
from .local_factors import (
    ParahoricType,
    LocalFactor,
    enumerate_maximal_types,
    local_factor_value,
    local_factor_polynomial,
    minimum_proof,
)
from .euler_char import (
    ArithmeticDatum,
    EulerChar,
    C_of_r,
    chi_principal_exact,
    chi_principal_numeric,
    index_divisor,
    reciprocal_integer_obstruction,
)
from .search_bounds import (
    BoundsMode,
    disc_upper_bound,
    high_degree_exclusion,
    enumerate_candidates,
    certify_section,
)
