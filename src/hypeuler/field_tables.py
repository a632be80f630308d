"""Bundled totally-real number-field dataset: loading, querying, validation.

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

import hashlib
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .exact_arith import _int_nthroot

HEADER = "hypeuler-fields v1"
REQUIRED_COMPLETENESS = {2: 1000, 3: 1000, 4: 1000}

# Smallest totally real field discriminant per degree, used as a sanity
# floor when validating records (standard tables; degree 2 is Q(sqrt 5)).
MINIMAL_DISCRIMINANT = {2: 5, 3: 49, 4: 725, 5: 14641, 6: 300125}


class TableError(Exception):
    """Base class for dataset errors."""


class TableFormatError(TableError):
    """The file does not parse under the v1 schema."""


class TableInvariantError(TableError):
    """A parsed record violates a dataset invariant."""


class ChecksumError(TableError):
    """The detached checksum does not match the canonicalized content."""


class CompletenessError(TableError):
    """A query reached beyond the asserted completeness bound."""


@dataclass(frozen=True)
class NumberFieldRecord:
    label: str
    degree: int
    disc: int
    h: int
    totally_real: bool
    abelian: bool
    conductor: int | None = None
    char_gen: tuple[int, int, int] | None = None  # (generator residue, image exponent, order)

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise TableInvariantError(f"{self.label}: degree must be at least 2")
        if self.disc < 1 or self.h < 1:
            raise TableInvariantError(f"{self.label}: discriminant and class number must be positive")


@dataclass(frozen=True)
class FieldTable:
    records: tuple[NumberFieldRecord, ...]
    completeness: dict[int, int]
    source: str
    checksum: str

    def by_disc(self, degree: int, disc: int) -> NumberFieldRecord | None:
        for rec in self.records:
            if rec.degree == degree and rec.disc == disc:
                return rec
        return None

    def minimal_disc(self, degree: int) -> int | None:
        discs = [r.disc for r in self.records if r.degree == degree]
        return min(discs) if discs else None


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
    return hashlib.sha256(canonicalize(text).encode("utf-8")).hexdigest()


def is_fundamental_discriminant(D: int) -> bool:
    """Fundamental discriminant of a real quadratic field (D > 1)."""

    def squarefree(n: int) -> bool:
        d = 2
        while d * d <= n:
            if n % (d * d) == 0:
                return False
            d += 1
        return True

    if D <= 1:
        return False
    if D % 4 == 1:
        return squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


def _parse_bool(token: str, where: str) -> bool:
    if token == "1":
        return True
    if token == "0":
        return False
    raise TableFormatError(f"{where}: boolean field must be 0 or 1, got {token!r}")


def parse_table_text(text: str, checksum: str | None = None) -> FieldTable:
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise TableFormatError(f"missing or wrong header line (expected {HEADER!r})")
    completeness: dict[int, int] = {}
    source = ""
    records: list[NumberFieldRecord] = []
    seen: set[tuple[int, int]] = set()
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
                    raise TableFormatError(f"line {idx}: malformed completeness directive") from exc
            elif body.startswith("source:"):
                source = body.removeprefix("source:").strip()
            continue
        parts = line.split("|")
        if len(parts) != 8:
            raise TableFormatError(f"line {idx}: expected 8 fields, got {len(parts)}")
        label, deg_s, disc_s, h_s, tr_s, ab_s, cond_s, cg_s = parts
        try:
            degree, disc, h = int(deg_s), int(disc_s), int(h_s)
        except ValueError as exc:
            raise TableFormatError(f"line {idx}: non-integer numeric field") from exc
        conductor = None if cond_s == "-" else int(cond_s)
        char_gen = None
        if cg_s != "-":
            try:
                g, e, order = (int(t) for t in cg_s.split(":"))
            except ValueError as exc:
                raise TableFormatError(f"line {idx}: malformed char_gen {cg_s!r}") from exc
            char_gen = (g, e, order)
        rec = NumberFieldRecord(
            label=label,
            degree=degree,
            disc=disc,
            h=h,
            totally_real=_parse_bool(tr_s, f"line {idx}"),
            abelian=_parse_bool(ab_s, f"line {idx}"),
            conductor=conductor,
            char_gen=char_gen,
        )
        key = (degree, disc)
        if key in seen:
            raise TableInvariantError(f"line {idx}: duplicate record for degree {degree}, disc {disc}")
        seen.add(key)
        records.append(rec)
    for degree, bound in REQUIRED_COMPLETENESS.items():
        if completeness.get(degree, 0) < bound:
            raise TableInvariantError(
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
    for rec in table.records:
        if not rec.totally_real:
            raise TableInvariantError(f"{rec.label}: all bundled records must be totally real")
        if rec.disc % 4 not in (0, 1):
            raise TableInvariantError(
                f"{rec.label}: discriminant {rec.disc} violates the 0/1 mod 4 congruence"
            )
        floor = MINIMAL_DISCRIMINANT.get(rec.degree)
        if floor is not None and rec.disc < floor:
            raise TableInvariantError(
                f"{rec.label}: disc {rec.disc} below the minimal totally real "
                f"degree-{rec.degree} discriminant {floor}"
            )
        if rec.degree == 2:
            if not is_fundamental_discriminant(rec.disc):
                raise TableInvariantError(f"{rec.label}: {rec.disc} is not a fundamental discriminant")
            if rec.conductor != rec.disc:
                raise TableInvariantError(f"{rec.label}: quadratic conductor must equal the discriminant")
        if rec.degree == 3 and rec.abelian:
            if rec.conductor is None or rec.conductor**2 != rec.disc:
                raise TableInvariantError(
                    f"{rec.label}: cyclic cubic must satisfy conductor^2 = disc"
                )
            if rec.char_gen is None:
                raise TableInvariantError(f"{rec.label}: cyclic cubic record needs character data")
            g, e, order = rec.char_gen
            if order != 3 or math.gcd(g, rec.conductor) != 1 or e % order == 0:
                raise TableInvariantError(f"{rec.label}: invalid character generator data")


def bundled_table_path() -> Path:
    return Path(str(resources.files("hypeuler").joinpath("data/fields_v1.txt")))


def load_table(path: str | Path | None = None) -> FieldTable:
    """Load and fully validate a field table; default is the bundled one.

    The detached checksum file ``<path>.sha256`` must be present and match.
    """
    p = Path(path) if path is not None else bundled_table_path()
    if not p.exists():
        raise TableFormatError(f"field table not found: {p}")
    text = p.read_text(encoding="utf-8")
    digest = checksum_of_text(text)
    sha_path = p.with_name(p.name + ".sha256")
    if not sha_path.exists():
        raise ChecksumError(f"missing checksum file {sha_path}")
    recorded = sha_path.read_text(encoding="utf-8").split()[0]
    if recorded != digest:
        raise ChecksumError(f"checksum mismatch for {p}: recorded {recorded}, computed {digest}")
    return parse_table_text(text, checksum=digest)


def query(table: FieldTable, degree: int, max_disc: int) -> list[NumberFieldRecord]:
    """All totally real records of the given degree with disc <= max_disc.

    Refuses to answer (rather than silently truncating) when the request
    reaches beyond the table's asserted completeness bound.
    """
    bound = table.completeness.get(degree)
    if bound is None or max_disc > bound:
        raise CompletenessError(
            f"table is only complete for degree {degree} up to {bound}, asked for {max_disc}"
        )
    return [r for r in table.records if r.degree == degree and r.disc <= max_disc]


# ---------------------------------------------------------------------------
# Independent class-number oracle for real quadratic fields
# ---------------------------------------------------------------------------


def _pell_minimal(m: int) -> tuple[int, int]:
    """Minimal (x, y), y >= 1, with x^2 - m y^2 = +-1, via the continued
    fraction of sqrt(m) (m not a perfect square)."""
    a0 = math.isqrt(m)
    if a0 * a0 == m:
        raise TableInvariantError(f"{m} is a perfect square")
    P, Q = 0, 1
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    a = a0
    while True:
        P = a * Q - P
        Q = (m - P * P) // Q
        a = (P + a0) // Q
        if Q == 1:
            return p, q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev


def fundamental_unit(D: int) -> tuple[int, int]:
    """(t, u) with the fundamental unit of the order of discriminant D
    equal to (t + u sqrt(D)) / 2 (t, u > 0).

    For D = 4m this is the Pell unit of Z[sqrt(m)]; for D = 1 mod 4 the
    half-integral solutions of t^2 - D u^2 = +-4 are searched below the
    cube-root bound implied by the unit index, falling back to the Pell
    unit when none exists.
    """
    if D % 4 == 0:
        x, y = _pell_minimal(D // 4)
        return 2 * x, y
    if D % 4 != 1:
        raise TableInvariantError(f"{D} is not a discriminant")
    x, y = _pell_minimal(D)
    # If the maximal order has index 3 over Z[sqrt(D)] units, u is tiny.
    u_bound = _int_cube_bound(2 * y)
    for u in range(1, u_bound + 1):
        for sign in (-4, 4):
            t2 = D * u * u + sign
            if t2 > 0:
                t = math.isqrt(t2)
                if t * t == t2 and (t - u * D) % 2 == 0:
                    return t, u
    return 2 * x, 2 * y


def _int_cube_bound(n: int) -> int:
    """ceil(n^(1/3)) + 2, in exact integer arithmetic for any n >= 0."""
    c = _int_nthroot(n, 3)
    return c + (c**3 < n) + 2


def quadratic_class_number(D: int) -> int:
    """Class number of the real quadratic field of fundamental
    discriminant D, by the classical analytic class number formula
    h = sqrt(D) L(1, chi_D) / (2 log eps_D)."""
    from mpmath import mp, mpf, log, sin, pi as mp_pi, sqrt as mp_sqrt

    from .characters_zeta import kronecker_character

    if not is_fundamental_discriminant(D):
        raise TableInvariantError(f"{D} is not a fundamental discriminant")
    chi = kronecker_character(D)
    old_dps = mp.dps
    mp.dps = 60
    try:
        t, u = fundamental_unit(D)
        log_eps = log((mpf(t) + mpf(u) * mp_sqrt(D)) / 2)
        acc = mpf(0)
        for a in range(1, D):
            e = chi.exponent_of(a)
            if e is None:
                continue
            sgn = 1 if e == 0 else -1
            acc -= sgn * log(sin(mp_pi * a / D))
        h_real = acc / (2 * log_eps)
        h = int(round(float(h_real)))
        if abs(h_real - h) > mpf("1e-25") or h < 1:
            raise TableInvariantError(f"class number formula did not converge for D={D}: {h_real}")
        return h
    finally:
        mp.dps = old_dps


@dataclass
class ValidationReport:
    ok: bool
    issues: list[str] = field(default_factory=list)


def validate_table(table: FieldTable, oracle_disc_limit: int = 100) -> ValidationReport:
    """Re-check all dataset invariants, and recompute quadratic class
    numbers up to ``oracle_disc_limit`` with the independent oracle."""
    issues: list[str] = []
    try:
        _check_record_invariants(table)
    except TableInvariantError as exc:
        issues.append(str(exc))
    seen: set[tuple[int, int]] = set()
    for rec in table.records:
        key = (rec.degree, rec.disc)
        if key in seen:
            issues.append(f"duplicate record for degree {rec.degree}, disc {rec.disc}")
        seen.add(key)
    for rec in table.records:
        if rec.degree == 2 and rec.disc <= oracle_disc_limit:
            try:
                h = quadratic_class_number(rec.disc)
            except TableError as exc:
                issues.append(f"{rec.label}: class number oracle failed: {exc}")
                continue
            if h != rec.h:
                issues.append(f"{rec.label}: recorded h={rec.h} but oracle computed h={h}")
    return ValidationReport(ok=not issues, issues=issues)
