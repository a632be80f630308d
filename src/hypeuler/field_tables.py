"""Bundled totally-real number-field dataset: loading and querying (its
independent validation, ``validate_table``, is in ``offline``).

The dataset is part of the trusted base of every certificate, so the file
format is plain text (diffable, auditable) with a detached SHA-256 checksum
over the canonicalized content.

Schema (version ``hypeuler-fields v1``)::

    hypeuler-fields v1
    # comments start with '#'
    # completeness: <degree> <bound>     (structured directive)
    # source: <free-form provenance>
    label|degree|disc|h|totally_real|abelian|conductor|char_gen

with booleans as ``1``/``0``, ``conductor`` an integer or ``-``, and
``char_gen`` either ``-`` or ``g:e:ord`` meaning the field's character
group is generated by the character sending the residue ``g`` to
``zeta_ord^e``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from pathlib import Path

# SHA-256 from the builtin module, so that no process loads OpenSSL through
# hashlib (its start-up cost is in README); the module is private, and is
# named _sha2 from Python 3.12, hence the fallbacks.  local_factors imports
# this name too.
for _module in ("_sha256", "_sha2", "hashlib"):
    try:
        sha256 = __import__(_module).sha256
        break
    except ImportError:
        pass

HEADER = "hypeuler-fields v1"
REQUIRED_COMPLETENESS = {2: 1000, 3: 1000, 4: 1000}

# Smallest totally real field discriminant per degree, used as a sanity
# floor when validating records (standard tables; degree 2 is Q(sqrt 5)).
MINIMAL_DISCRIMINANT = {2: 5, 3: 49, 4: 725, 5: 14641, 6: 300125}


class TableError(Exception):
    """A table that is unreadable or invalid, or a query past its completeness bound."""


# A table row, valid by membership in a table that ``parse_table_text``
# returned: ``_check_record_invariants`` is the one check of its fields.
# ``char_gen`` is (generator residue, image exponent, order) or None.
NumberFieldRecord = namedtuple(
    "NumberFieldRecord", "label degree disc h totally_real abelian conductor char_gen", defaults=(None, None)
)


class FieldTable(namedtuple("FieldTable", "records completeness source checksum")):
    __slots__ = ()

    def _index(self, *key: int) -> int:
        """The index of the first record whose (degree, disc) is at least ``key``, by bisection:
        ``records`` are sorted by (degree, disc, label), as ``parse_table_text`` builds them."""
        return bisect_left(self.records, key, key=lambda rec: (rec.degree, rec.disc))

    def by_disc(self, degree: int, disc: int) -> NumberFieldRecord | None:
        i = self._index(degree, disc)
        return self.records[i] if i < self._index(degree, disc + 1) else None

    def minimal_disc(self, degree: int) -> int | None:
        i = self._index(degree)
        return self.records[i].disc if i < self._index(degree + 1) else None


# ---------------------------------------------------------------------------
# Parsing and checksums
# ---------------------------------------------------------------------------


def canonicalize(text: str) -> str:
    """Canonical form used for checksumming: lines stripped of trailing
    whitespace, joined by newlines, with one trailing newline."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"


def checksum_of_text(text: str) -> str:
    return sha256(canonicalize(text).encode("utf-8")).hexdigest()


def is_fundamental_discriminant(D: int) -> bool:
    """Fundamental discriminant of a real quadratic field (D > 1)."""

    def squarefree(n: int) -> bool:  # for n not divisible by 4: trial division by odd d only
        d = 3
        while d * d <= n:
            if n % (d * d) == 0:
                return False
            d += 2
        return True

    if D <= 1:
        return False
    if D % 4 == 1:
        return squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


def _parse_bool(token: str, idx: int) -> bool:
    if token == "1":
        return True
    if token == "0":
        return False
    raise TableError(f"line {idx}: boolean field must be 0 or 1, got {token!r}")


def parse_table_text(text: str, checksum: str | None = None) -> FieldTable:
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise TableError(f"missing or wrong header line (expected {HEADER!r})")
    completeness: dict[int, int] = {}
    source = ""
    records: list[NumberFieldRecord] = []
    for idx, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("completeness:"):
                try:
                    deg_s, bound_s = body.removeprefix("completeness:").split()
                    completeness[int(deg_s)] = int(bound_s)
                except ValueError as exc:
                    raise TableError(f"line {idx}: malformed completeness directive") from exc
            elif body.startswith("source:"):
                source = body.removeprefix("source:").strip()
            continue
        parts = line.split("|")
        if len(parts) != 8:
            raise TableError(f"line {idx}: expected 8 fields, got {len(parts)}")
        label, deg_s, disc_s, h_s, tr_s, ab_s, cond_s, cg_s = parts
        try:
            degree, disc, h = int(deg_s), int(disc_s), int(h_s)
        except ValueError as exc:
            raise TableError(f"line {idx}: non-integer numeric field") from exc
        try:
            conductor = None if cond_s == "-" else int(cond_s)
        except ValueError as exc:
            raise TableError(f"line {idx}: malformed conductor {cond_s!r}") from exc
        char_gen = None
        if cg_s != "-":
            try:
                g, e, order = (int(t) for t in cg_s.split(":"))
            except ValueError as exc:
                raise TableError(f"line {idx}: malformed char_gen {cg_s!r}") from exc
            char_gen = (g, e, order)
        records.append(
            NumberFieldRecord(label, degree, disc, h, _parse_bool(tr_s, idx), _parse_bool(ab_s, idx), conductor, char_gen)
        )
    for degree, bound in REQUIRED_COMPLETENESS.items():
        if completeness.get(degree, 0) < bound:
            raise TableError(
                f"completeness bound for degree {degree} must cover at least {bound}"
            )
    table = FieldTable(
        records=tuple(sorted(records, key=lambda r: (r.degree, r.disc, r.label))),
        completeness=completeness,
        source=source,
        checksum=checksum if checksum is not None else checksum_of_text(text),
    )
    _check_record_invariants(table)
    return table


def _check_record_invariants(table: FieldTable) -> None:
    """Every check of a table row: a record that passes is valid, and no
    code that reads it checks it again."""
    seen: set[tuple[int, int]] = set()
    for rec in table.records:
        if rec.degree < 2:
            raise TableError(f"{rec.label}: degree must be at least 2")
        if rec.disc < 1 or rec.h < 1:
            raise TableError(f"{rec.label}: discriminant and class number must be positive")
        if rec.conductor is not None and rec.conductor < 1:
            raise TableError(f"{rec.label}: conductor {rec.conductor} must be positive")
        if (rec.degree, rec.disc) in seen:
            raise TableError(f"{rec.label}: duplicate record for degree {rec.degree}, disc {rec.disc}")
        seen.add((rec.degree, rec.disc))
        if not rec.totally_real:
            raise TableError(f"{rec.label}: all bundled records must be totally real")
        if rec.disc % 4 not in (0, 1):
            raise TableError(
                f"{rec.label}: discriminant {rec.disc} violates the 0/1 mod 4 congruence"
            )
        floor = MINIMAL_DISCRIMINANT.get(rec.degree)
        if floor is not None and rec.disc < floor:
            raise TableError(
                f"{rec.label}: disc {rec.disc} below the minimal totally real "
                f"degree-{rec.degree} discriminant {floor}"
            )
        if rec.degree == 2:
            if not rec.abelian:
                raise TableError(f"{rec.label}: every quadratic field is abelian")
            if not is_fundamental_discriminant(rec.disc):
                raise TableError(f"{rec.label}: {rec.disc} is not a fundamental discriminant")
            if rec.conductor != rec.disc:
                raise TableError(f"{rec.label}: quadratic conductor must equal the discriminant")
        if rec.degree == 3 and not rec.abelian and math.isqrt(rec.disc) ** 2 == rec.disc:
            raise TableError(f"{rec.label}: a cubic field of square discriminant {rec.disc} is cyclic, so abelian")
        if rec.degree == 3 and rec.abelian:
            if rec.conductor is None or rec.conductor**2 != rec.disc:
                raise TableError(
                    f"{rec.label}: cyclic cubic must satisfy conductor^2 = disc"
                )
            if rec.char_gen is None:
                raise TableError(f"{rec.label}: cyclic cubic record needs character data")
            g, e, order = rec.char_gen
            if order != 3 or math.gcd(g, rec.conductor) != 1 or e % order == 0:
                raise TableError(f"{rec.label}: invalid character generator data")


def bundled_table_path() -> Path:
    return Path(__file__).parent / "data" / "fields_v1.txt"


def _read_text(p: Path) -> str:
    try:
        return p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, or not UTF-8
        raise TableError(f"cannot read {p}: {exc}") from exc


def load_table(path: str | Path | None = None) -> FieldTable:
    """Load and fully validate a field table; default is the bundled one.

    The detached checksum file ``<path>.sha256`` must be present and match.
    Every failure, a file that cannot be read included, is a TableError.
    """
    p = Path(path) if path is not None else bundled_table_path()
    text = _read_text(p)
    digest = checksum_of_text(text)
    sha_path = p.with_name(p.name + ".sha256")
    if not sha_path.exists():
        raise TableError(f"missing checksum file {sha_path}")
    recorded = next(iter(_read_text(sha_path).split()), None)
    if recorded is None:
        raise TableError(f"empty checksum file {sha_path}")
    if recorded != digest:
        raise TableError(f"checksum mismatch for {p}: recorded {recorded}, computed {digest}")
    return parse_table_text(text, checksum=digest)


def query(table: FieldTable, degree: int, max_disc: int) -> list[NumberFieldRecord]:
    """All totally real records of the given degree with disc <= max_disc.

    Refuses to answer (rather than silently truncating) when the request
    reaches beyond the table's asserted completeness bound.
    """
    bound = table.completeness.get(degree)
    if bound is None:
        raise TableError(f"table states no completeness bound for degree {degree}, asked for {max_disc}")
    if max_disc > bound:
        raise TableError(f"table is only complete for degree {degree} up to {bound}, asked for {max_disc}")
    return list(table.records[table._index(degree) : table._index(degree, max_disc + 1)])
