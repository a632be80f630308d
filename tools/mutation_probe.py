"""Mutation probe of the proof path and the verifier: does some test fail on each mutant?

Each mutant replaces one exact text of one source file.  The probe copies
the sources and the tests into a temporary directory, runs the tests there
once unmutated (the tests that fail already are deselected from every
mutant's run), then, for each mutant in turn, applies it to a fresh copy and
runs ``pytest -x``.  It prints ``killed`` with the first failing test, or
``survived``.  About 30 s per mutant, so it is not part of the test suite;
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
            tree = Path(tmp) / f"mutant{k}"
            shutil.copytree(base, tree)
            apply(tree, mutant)
            failing = run_tests(tree, "-x", "--ignore", SELF_TEST, *deselect)
            survived += not failing
            verdict = f"killed by {failing[0]}" if failing else "survived"
            print(f"{k}. {mutant.file}: {mutant.breaks}: {verdict}")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
