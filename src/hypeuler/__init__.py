"""hypeuler: exact certification of the nonexistence of compact arithmetic
hyperbolic n-manifolds (n even, n > 4) whose Euler characteristic has
absolute value 2.

The engine evaluates Euler characteristics of principal arithmetic
subgroups in exact rational arithmetic, runs a rigorous discriminant-bound
search over bundled number-field tables, and emits a machine-checkable
certificate together with a verifier that rebuilds and compares it.

Import every name from the module that defines it.  The package holds only
``__version__`` and ``load_table``, so it loads none of the proof engine.
"""

__version__ = "1.0.0"

from .field_tables import load_table
