"""The integer number theory the engine runs on, checked against sympy,
and a guard that the engine imports, validates its table, certifies and
verifies with neither sympy nor mpmath importable, and without loading
dataclasses, inspect or importlib.resources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import hypeuler
from hypeuler.exact_arith import ExactArithError
from hypeuler.field_path import (
    _jacobi_symbol,
    is_prime_power,
    kronecker_symbol,
    smallest_odd_prime_factor,
    smallest_prime_factor,
)

odd_moduli = st.integers(min_value=0, max_value=10**9).map(lambda k: 2 * k + 1)
LARGE = 1 << 16
# primes above 2^16, so their products have no prime factor below 2^16
large_primes = st.integers(min_value=LARGE, max_value=1 << 20).map(sympy.nextprime)


class TestJacobiSymbol:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=-(10**12), max_value=10**12), odd_moduli)
    def test_against_sympy(self, m, n):
        assert _jacobi_symbol(m, n) == sympy.jacobi_symbol(m, n)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-(10**6), max_value=10**6), st.integers(min_value=1, max_value=10**6))
    def test_kronecker_against_sympy(self, D, a):
        assert kronecker_symbol(D, a) == sympy.kronecker_symbol(D, a)

    def test_small_table(self):
        # (m/15) for m = 0..14
        assert [_jacobi_symbol(m, 15) for m in range(15)] == [0, 1, 1, 0, 1, 0, 0, -1, 1, 0, 0, -1, 0, -1, -1]


class TestSmallestPrimeFactor:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=2, max_value=10**12))
    def test_against_factorint(self, n):
        assert smallest_prime_factor(n) == min(sympy.factorint(n))

    @settings(max_examples=100, deadline=None)
    @given(odd_moduli.filter(lambda n: n > 1))
    def test_smallest_odd_prime_factor(self, n):
        assert smallest_odd_prime_factor(n) == min(sympy.factorint(n))

    @settings(max_examples=10, deadline=None)
    @given(large_primes, large_primes)
    def test_semiprime_past_trial_division(self, p, q):
        assert smallest_prime_factor(p * q) == min(p, q)

    def test_fixed_semiprime_past_trial_division(self):
        p, q = 65537, 65539  # both prime, both above 2^16
        assert min(p, q) > LARGE
        assert smallest_prime_factor(p * q) == 65537
        assert smallest_odd_prime_factor(p * q * q) == 65537

    def test_primes_at_the_limit(self):
        assert smallest_prime_factor(65521) == 65521  # largest prime below 2^16
        assert smallest_prime_factor(65521 * 65537) == 65521

    @pytest.mark.parametrize("n", [-3, 0, 1])
    def test_rejects_below_two(self, n):
        with pytest.raises(ExactArithError):
            smallest_prime_factor(n)


class TestIsPrimePower:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=-5, max_value=10**12))
    def test_against_factorint(self, q):
        assert is_prime_power(q) == (q >= 2 and len(sympy.factorint(q)) == 1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=10**5).map(sympy.nextprime), st.integers(min_value=1, max_value=6))
    def test_prime_powers(self, p, k):
        assert is_prime_power(p**k)

    @settings(max_examples=10, deadline=None)
    @given(large_primes, large_primes)
    def test_past_trial_division(self, p, q):
        assert is_prime_power(p * q) == (p == q)
        assert is_prime_power(p**3)


def test_import_loads_neither_sympy_nor_mpmath():
    src = str(Path(hypeuler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "sys.modules['sympy'] = sys.modules['mpmath'] = None\n"
        "import hypeuler.cli\n"
        "from hypeuler.field_tables import load_table\n"
        "from hypeuler.certificate import run_certification, verify_certificate\n"
        "from hypeuler.field_path import smallest_prime_factor\n"
        "from hypeuler.offline import validate_table\n"
        "table = load_table()\n"
        "report = validate_table(table)\n"
        "cert, code = run_certification([3, 4, 5], table)\n"
        "print(report.ok, smallest_prime_factor(65537 * 65539), code, verify_certificate(cert, table).ok)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True 65537 0 True"
    # Without site (which may preload modules) and with dataclasses
    # unimportable: the engine itself imports neither it nor inspect nor
    # importlib.resources.
    code = (
        "import sys\n"
        "sys.modules['dataclasses'] = None\n"
        "import hypeuler.cli\n"
        "from hypeuler import load_table\n"
        "from hypeuler.certificate import run_certification, verify_certificate\n"
        "table = load_table()\n"
        "cert, code = run_certification([3, 4, 5], table)\n"
        "loaded = [m for m in ('inspect', 'importlib.resources') if m in sys.modules]\n"
        "print(code, verify_certificate(cert, table).ok, loaded)"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 True []"
