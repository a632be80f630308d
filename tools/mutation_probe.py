"""Mutation probe of the proof path and the verifier: does some test fail on each mutant?

Each mutant replaces one exact text of one source file.  The probe copies
the sources and the tests into a temporary directory, runs the tests there
once unmutated (the tests that fail already are deselected from every
mutant's run), then, for each mutant in turn, applies it to a fresh copy and
runs ``pytest -x``.  It prints ``killed`` with the first failing test, or
``survived``.  A mutant listed with an ``equivalent`` reason changes no
outcome that a test could pin, so it is not run, and its reason is printed.
About 30 s per mutant, so it is not part of the test suite;
``tests/test_mutation_probe.py`` only checks that every old text below
still occurs exactly once in ``src/``, so it is left out of the mutants' runs.

Run from the repository root:  python3 tools/mutation_probe.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")
SELF_TEST = "tests/test_mutation_probe.py"  # fails on every mutant by design, so it is not run on one


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    breaks: str
    equivalent: str | None = None  # why no test can tell the mutant apart, for one that is not run


MUTANTS = (
    Mutant(
        "src/hypeuler/local_factors.py",
        "if power != 0 or _cyclotomic(closed_num + den) != _cyclotomic(num + closed_den):",
        "if _cyclotomic(closed_num + den) != _cyclotomic(num + closed_den):",
        "calibrate_oracle accepts a closed form a power of q away from Prasad's order formula",
    ),
    Mutant(
        "src/hypeuler/search_bounds.py",
        "certified = all(v.obstruction.obstructed for v in verdicts)",
        "certified = all(v.obstruction.obstructed for v in verdicts[:-1])",
        "certify_section certifies a rank whose last candidate is unobstructed",
    ),
    Mutant(
        "src/hypeuler/search_bounds.py",
        "fields = [f for f in fields if f.disc <= p2.disc_upper]",
        "fields = [f for f in fields if f.disc < p2.disc_upper]",
        "enumerate_candidates drops a field exactly at the pass-two cutoff",
    ),
    Mutant(
        "src/hypeuler/search_bounds.py",
        "disc_upper = _largest_int_with_power_at_most(t_sq.hi, doubled_exponent)",
        "disc_upper = _largest_int_with_power_at_most(t_sq.lo, doubled_exponent)",
        "compute_bounds_pass takes the cutoff from the lower, unsound end of the threshold enclosure",
    ),
    Mutant(
        "src/hypeuler/search_bounds.py",
        "enclosure_decisive=(lo_cut == disc_upper),",
        "enclosure_decisive=True,",
        "compute_bounds_pass calls every pass decisive",
    ),
    Mutant(
        "src/hypeuler/search_bounds.py",
        "if not growth.strictly_greater_than(1):",
        "if False:",
        "high_degree_exclusion accepts a per-degree growth factor of at most 1",
    ),
    Mutant(
        "src/hypeuler/search_bounds.py",
        "if not at_five.strictly_greater_than(1):",
        "if False:",
        "high_degree_exclusion accepts a degree-5 value of at most 1",
    ),
    Mutant(
        "src/hypeuler/verifier.py",
        "if type(claimed) is not type(expected) or claimed != expected:",
        "if claimed != expected:",
        "_compare accepts a leaf equal in value but of another JSON type (11.0 for 11)",
    ),
    Mutant(
        "src/hypeuler/verifier.py",
        "if missing or extra:",
        "if missing:",
        "_compare accepts an object with a key the rebuild lacks",
    ),
    Mutant(
        "src/hypeuler/verifier.py",
        "if len(claimed) != len(expected):",
        "if len(claimed) > len(expected):",
        "_compare accepts a list shorter than the rebuilt one",
    ),
    Mutant(
        "src/hypeuler/verifier.py",
        "check(section_ranks == ranks,",
        "check(True,",
        "the verifier accepts sections that do not cover the requested ranks",
    ),
    Mutant(
        "src/hypeuler/verifier.py",
        "all(a < b for a, b in zip(ranks, ranks[1:]))",
        "all(a <= b for a, b in zip(ranks, ranks[1:]))",
        "the verifier accepts a requested rank stated twice",
    ),
    Mutant(
        "src/hypeuler/certificate.py",
        "if len(obj) < len(pairs):",
        "if False:",
        "read_certificate keeps the last of a JSON object's duplicated keys",
    ),
    Mutant(
        "src/hypeuler/search_bounds.py",
        "bad = [f for f in fields if f.h != 1]",
        "bad = [f for f in fields if f.h > 2]",
        "enumerate_candidates lets a pass-one survivor of class number 2 through",
    ),
    Mutant(
        "src/hypeuler/euler_char.py",
        "if datum.field.h != 1:",
        "if datum.field.h < 1:",
        "reciprocal_integer_obstruction decides a field of class number above 1",
    ),
    Mutant(
        "src/hypeuler/local_factors.py",
        "if at2 <= 4:",
        "if at2 < 4:",
        "minimum_proof accepts a factor whose value at q = 2 is exactly 4",
    ),
    Mutant(
        "src/hypeuler/local_factors.py",
        "if any(c < 0 for c in shifted):",
        "if any(c < -1 for c in shifted):",
        "minimum_proof accepts a shifted coefficient of -1",
    ),
    Mutant(
        "src/hypeuler/search_bounds.py",
        "calibrate_oracle(r)  # raises LocalFactorError unless each closed form is Prasad's factor",
        "pass",
        "certify_section certifies without proving the closed forms equal to Prasad's order formula",
    ),
    Mutant(
        "src/hypeuler/search_bounds.py",
        "excluded=p.disc_upper < floor",
        "excluded=p.disc_upper <= floor",
        "_low_degree_rows excludes a degree whose cutoff is the smallest discriminant itself",
    ),
    Mutant(
        "src/hypeuler/offline.py",
        "return cycles if norm_minus_one else cycles // 2",
        "return cycles",
        "quadratic_class_number returns the narrow class number",
    ),
    Mutant(
        "src/hypeuler/field_tables.py",
        "if (rec.degree, rec.disc) in seen:",
        "if False:",
        "the table loader accepts two records of one degree and discriminant",
    ),
    Mutant(
        "src/hypeuler/field_tables.py",
        "if rec.disc < 1 or rec.h < 1:",
        "if rec.disc < 1:",
        "the table loader accepts a class number of 0",
    ),
    Mutant(
        "src/hypeuler/field_tables.py",
        "if rec.degree < 2:",
        "if rec.degree < 1:",
        "the table loader accepts a record of degree 1",
    ),
    Mutant(
        "src/hypeuler/field_path.py",
        "if gap % 2 != 0:",
        "if False:",
        "_order_formula halves an odd dimension gap",
    ),
    Mutant(
        "src/hypeuler/exact_arith.py",
        "return (-(-m >> drop) if up else m >> drop), e + drop",
        "return m >> drop, e + drop",
        "_round_mantissa rounds an upper end down",
    ),
    Mutant(
        "src/hypeuler/exact_arith.py",
        "-(-(1 << k_hi) // lo)",
        "(1 << k_hi) // lo",
        "reciprocal rounds the upper end of 1/x down",
    ),
    Mutant(
        "src/hypeuler/exact_arith.py",
        "RationalInterval(lo, hi + 1, ",
        "RationalInterval(lo, hi, ",
        "sqrt takes the floor of the square root as its upper end",
    ),
    Mutant(
        "src/hypeuler/exact_arith.py",
        "up = up != negative",
        "up = up",
        "_pow_mantissa rounds an odd power of a negative mantissa the wrong way",
    ),
    Mutant(
        "src/hypeuler/exact_arith.py",
        "if k % 2 == 0 and lo < 0:",
        "if False:",
        "pow_int takes an even power of an interval with a negative end from the powers of its ends",
    ),
    Mutant(
        "src/hypeuler/exact_arith.py",
        "if hi - lo >= 1 << max(0, 4 - bits - e):",
        "if False:",
        "pi_enclosure returns an enclosure wider than asked for",
    ),
    Mutant(
        "src/hypeuler/search_bounds.py",
        "query(table, d, p1.disc_upper)",
        "query(table, d, p1.disc_upper - 1)",
        "enumerate_candidates drops a field exactly at the pass-one cutoff",
    ),
    Mutant(
        "src/hypeuler/search_bounds.py",
        "if exact not in enclosure:",
        "if False:",
        "dual_path_check accepts an enclosure that misses the exact value",
    ),
    Mutant(
        "src/hypeuler/search_bounds.py",
        "if enclosure.width > exact * Fraction(2) ** (8 - precision_bits):",
        "if False:",
        "dual_path_check accepts an enclosure wider than its precision allows",
    ),
    Mutant(
        "src/hypeuler/local_factors.py",
        "_check_q(q)",
        "pass",
        "calibrate_oracle accepts a q that is not a prime power",
    ),
    Mutant(
        "src/hypeuler/field_tables.py",
        'raise TableError(f"{rec.label}: every quadratic field is abelian")',
        "pass",
        "the table loader accepts a quadratic record marked non-abelian",
    ),
    Mutant(
        "src/hypeuler/field_tables.py",
        "if rec.degree == 3 and not rec.abelian and math.isqrt(rec.disc) ** 2 == rec.disc:",
        "if False:",
        "the table loader accepts a cubic record of square discriminant marked non-abelian",
    ),
    Mutant(
        "src/hypeuler/numeric_path.py",
        "shift = max(0, min(scale, hi.bit_length() - prec - 1))",
        "shift = max(0, min(scale, hi.bit_length() - prec + 1))",
        "chi_principal_numeric rounds its product 2 bits coarser",
        equivalent="it still rounds outward, and its width stays inside dual_path_check's 2^(8 - P) bound",
    ),
)

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, dest / name)


def run_tests(tree: Path, *args: str) -> list[str]:
    """The failing tests of a pytest run in ``tree``, in the order reported."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *args],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return FAILED.findall(run.stdout)


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.file}: the old text does not occur exactly once: {mutant.old!r}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        known = run_tests(base)
        print(f"unmutated: {len(known)} failing test(s), deselected below: {', '.join(known) or 'none'}")
        deselect = [arg for test in known for arg in ("--deselect", test)]
        survived = 0
        for k, mutant in enumerate(MUTANTS, start=1):
            if mutant.equivalent:
                print(f"{k}. {mutant.file}: {mutant.breaks}: equivalent: {mutant.equivalent}")
                continue
            tree = Path(tmp) / f"mutant{k}"
            shutil.copytree(base, tree)
            apply(tree, mutant)
            failing = run_tests(tree, "-x", "--ignore", SELF_TEST, *deselect)
            survived += not failing
            verdict = f"killed by {failing[0]}" if failing else "survived"
            print(f"{k}. {mutant.file}: {mutant.breaks}: {verdict}")
            shutil.rmtree(tree)
    run = sum(not mutant.equivalent for mutant in MUTANTS)
    print(f"{run - survived} of {run} killed, {len(MUTANTS) - run} equivalent")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
