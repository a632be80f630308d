"""Certificate assembly, deterministic serialization, report rendering,
and verification by rebuilding.

A certificate is a plain JSON tree in which every rational is an exact
``num/den`` string; it states each bound by its integer cutoff, not by the
working enclosure behind it, and no floating point number appears anywhere.
Given the bundled dataset, the verifier rebuilds the certificate with the
writer itself and compares the two JSON trees leaf by leaf, field verdicts
included, so the format is stated once, here in the writer, and there is
one verification path; it reports the first divergence by its path.  The rebuild runs the certifier's own code,
so it shows that a certificate is what this code writes, not that the code
is right.  Both refuse a rank above ``MAX_RANK`` before computing any of
its evidence.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .exact_arith import format_rational
from .field_tables import FieldTable
from .local_factors import table_fingerprint
from .search_bounds import VERDICT_CERTIFIED, CertificateSection, certify_section, dual_path_check

CERTIFICATE_FORMAT = "hypeuler-certificate v4"

# The working precision of the dual-path self-check when none is given, and
# the least one a certificate may be made at (which keeps the self-check's
# width bound 2^(8 - P) at or below 2^-56).
DEFAULT_PRECISION_BITS = 192
MIN_PRECISION_BITS = 64

# The largest rank certified, a bound on cost (a section takes about 0.03 s
# at r = 100, 0.35 s at 200 and 6 s at 400), so a huge rank fails at once.
MAX_RANK = 100


class CertificateError(Exception):
    pass


def _bounds_pass_json(p) -> dict:
    return {
        "mode": p.mode.value,
        "disc_upper": p.disc_upper,
        "doubled_exponent": p.doubled_exponent,
        "enclosure_decisive": p.enclosure_decisive,
    }


def section_to_json(section: CertificateSection) -> dict:
    out: dict = {
        "r": section.r,
        "n": 2 * section.r,
        "kind": section.kind,
        "verdict": section.verdict,
        "notes": list(section.notes),
    }
    if section.local_factor_proof is not None:
        proof = section.local_factor_proof
        out["local_factors"] = {
            "minimum_at_q2": format_rational(proof.minimum),
            "entries": [
                {
                    "type": e.type.slug(),
                    "description": e.type.describe(section.r),
                    "polynomial": [str(c) for c in e.polynomial],
                    "value_at_q2": format_rational(e.value_at_two),
                }
                for e in proof.entries
            ],
        }
    if section.enumeration is not None:
        out["bounds"] = [
            {
                "degree": a.degree,
                "pass_one": _bounds_pass_json(a.pass_one),
                "pass_two": _bounds_pass_json(a.pass_two),
                "pass_one_discs": list(a.pass_one_discs),
                "pass_two_discs": list(a.pass_two_discs),
            }
            for a in section.enumeration.audits
        ]
        out["candidates"] = [
            {"label": rec.label, "degree": rec.degree, "disc": rec.disc, "h": rec.h}
            for rec in section.enumeration.records
        ]
    if section.high_degree is not None:
        hd = section.high_degree
        out["high_degree"] = {  # the degree >= 5 checks raise unless they hold
            "low_degree": [
                {
                    "degree": row.degree,
                    "disc_upper": row.disc_upper,
                    "minimal_disc": row.minimal_disc,
                    "excluded": row.excluded,
                }
                for row in hd.low_degree
            ],
        }
    out["verdicts"] = [
        {
            "label": v.record.label,
            "degree": v.record.degree,
            "disc": v.record.disc,
            "h": v.record.h,
            "zeta_values": [format_rational(z) for z in v.obstruction.zeta_values],
            "product": format_rational(v.obstruction.product),
            "odd_numerator": str(v.obstruction.odd_numerator),
            "witness": v.obstruction.witness,
            "conclusion": v.conclusion,
            "euler": {
                "chi_lambda": format_rational(v.euler.chi_lambda),
                "index_divisor": v.euler.index_divisor,
                "chi_gamma_lower": format_rational(v.euler.chi_gamma_lower),
                "two_exponent": v.euler.two_exponent,
            },
        }
        for v in section.verdicts
    ]
    return out


def axioms(dataset_checksum: str) -> list[dict]:
    return [
        {
            "id": "discriminant-floor",
            "statement": "every totally real number field of degree d >= 5 has |disc| > 6.5^d",
            "source": "Odlyzko-type discriminant bounds (published tables)",
        },
        {
            "id": "maximal-type-table",
            "statement": "the local factor of a maximal parahoric subgroup with reductive quotient M "
            "of a rank-r odd orthogonal group G over a residue field of size q is "
            "|G(F_q)| / (|M(F_q)| q^((dim G - dim M)/2)), and the reductive quotients of the "
            "maximal parahoric types are those of the fingerprinted table",
            "source": "G. Prasad, Volumes of S-arithmetic quotients of semi-simple groups, "
            "Publ. Math. IHES 69 (1989), section 2 and Thm 3.7; J. Tits, Reductive groups over "
            "local fields, Corvallis 1979 (Proc. Sympos. Pure Math. 33), sections 3-4",
            "fingerprint": table_fingerprint(),
        },
        {
            "id": "field-dataset",
            "statement": "bundled totally real field invariants (discriminant, class number, "
            "abelian character data) with stated completeness bounds",
            "checksum": dataset_checksum,
        },
    ]


def _dataset_json(table: FieldTable) -> dict:
    return {
        "checksum": table.checksum,
        "source": table.source,
        "completeness": {str(k): v for k, v in sorted(table.completeness.items())},
    }


def build_certificate(
    sections: list[dict],
    table: FieldTable,
    requested: list[int],
    status: str = "complete",
    error: str | None = None,
) -> dict:
    """Assemble a certificate from sections serialized by ``section_to_json``,
    in rank order."""
    cert: dict = {
        "format": CERTIFICATE_FORMAT,
        "tool": {"name": "hypeuler", "version": __version__},
        "dataset": _dataset_json(table),
        "axioms": axioms(table.checksum),
        "parameters": {"requested_r": sorted(set(requested))},
        "sections": sections,
        "overall": {str(s["n"]): s["verdict"] for s in sections},
        "status": status,
    }
    if error is not None:
        cert["error"] = error
    return cert


def serialize_certificate(cert: dict) -> str:
    return json.dumps(cert, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def read_certificate(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError: bad JSON, or an integer past the digit limit; RecursionError: nesting past the parser's depth
    except (OSError, ValueError, RecursionError) as exc:
        raise CertificateError(f"cannot read certificate {path}: {exc}") from exc


def _section(r: int, table: FieldTable) -> CertificateSection:
    """The section of rank r; ValueError above ``MAX_RANK``, before any
    work, naming the rank by ``_quote`` (one past the int-to-str digit limit
    by its bit length)."""
    if r > MAX_RANK:
        raise ValueError(f"rank {_quote(r)} is above {MAX_RANK}, the largest rank certified")
    return certify_section(r, table)


def run_certification(
    requested_r: list[int],
    table: FieldTable,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> tuple[dict, int]:
    """Certify every requested rank; returns (certificate, exit code).

    Exit codes: 0 all certified, 2 at least one rank inconclusive,
    1 internal error (the certificate is then partial, status failed).
    Each rank's section, the verifier's rebuild, is self-checked by
    ``dual_path_check`` at ``precision_bits`` (no certificate byte depends on
    it) and serialized inside the rank's own failure envelope, so an error
    at any step names the rank.  Raises ValueError, before any rank runs,
    when ``precision_bits`` is not an integer of at least ``MIN_PRECISION_BITS``.
    """
    if type(precision_bits) is not int or precision_bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be an integer of at least MIN_PRECISION_BITS = "
            f"{MIN_PRECISION_BITS}, got {precision_bits!r}"
        )
    sections: list[dict] = []
    for r in sorted(set(requested_r)):
        try:
            section = _section(r, table)
            dual_path_check(section, precision_bits)
            sections.append(section_to_json(section))
        except Exception as exc:  # embed the failure, per the exit-code contract
            cert = build_certificate(
                sections, table, requested_r, status="failed", error=f"r={_quote(r)}: {type(exc).__name__}: {exc}"
            )
            return cert, 1
    cert = build_certificate(sections, table, requested_r)
    code = 0 if all(s["verdict"] == VERDICT_CERTIFIED for s in sections) else 2
    return cert, code


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


class VerificationOutcome(NamedTuple):
    ok: bool
    checks: int
    divergence: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class _Divergence(Exception):
    """A claim of the certificate differs from its recomputation."""


# What a missing key or a value of the wrong shape raises while a claim is read.
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError)


class _Checks:
    """Counts the checks made and raises the first divergence."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, ok: bool, divergence: str, *claimed) -> None:
        """Count one check; a failed one raises ``divergence`` with each claimed value ``_quote``d into its ``{}``."""
        self.count += 1
        if not ok:
            raise _Divergence(divergence.format(*map(_quote, claimed)))


def verify_certificate(cert: dict, table: FieldTable) -> VerificationOutcome:
    """Check a certificate by rebuilding it with the writer and comparing.

    First, guards that must hold before anything is recomputed: the
    ``format`` is this one, ``tool.version`` is a string,
    ``parameters.requested_r`` is a strictly increasing list of integers
    >= 2 and the sections are exactly those ranks.  Then the expected
    certificate is rebuilt from ``table`` by the certifier's own calls,
    ``certify_section`` per rank (which re-proves, by ``calibrate_oracle``,
    that each local factor's closed form is Prasad's order formula) and
    ``build_certificate``, with the claimed ``tool.version``, the one
    unpinned value, copied in; certify adds only the unrecorded dual-path
    self-check.  The two JSON trees are compared leaf by leaf, each leaf
    one check, and the first difference is named by its path: a missing or
    unexpected key, a list of another length, or a leaf of another JSON
    type or value (so 5, 5.0 and true differ, and a rational must be the
    reduced ``num/den`` string the writer gives), quoting at most 200
    characters of any one value (and an int too long to print by its bit
    length).  A certificate that verifies is the one this code writes,
    which proves no more than the code does.

    A missing key or malformed value, and a rank whose evidence the
    certifier cannot recompute (any rank above ``MAX_RANK``),
    are reported as divergences, never raised.
    """
    check = _Checks()
    try:
        _verify(cert, table, check)
    except _Divergence as exc:
        return VerificationOutcome(ok=False, checks=check.count, divergence=str(exc))
    except _MALFORMED as exc:  # a missing key, a value of the wrong shape, or dict keys that cannot be sorted
        divergence = f"malformed certificate ({type(exc).__name__}: {_quote(exc, str)})"
        return VerificationOutcome(ok=False, checks=check.count, divergence=divergence)
    return VerificationOutcome(ok=True, checks=check.count)


def _verify(cert: dict, table: FieldTable, check: _Checks) -> None:
    fmt = cert.get("format")
    check(fmt == CERTIFICATE_FORMAT, "unknown certificate format {}", fmt)
    version = cert["tool"]["version"]
    check(type(version) is str, "tool.version {} is not a string", version)
    ranks = list(cert["parameters"]["requested_r"])
    section_ranks = [sec["r"] for sec in cert["sections"]]
    check(all(type(r) is int and r >= 2 for r in ranks), "requested ranks {} are not all integers >= 2", ranks)
    check(all(a < b for a, b in zip(ranks, ranks[1:])), "requested ranks {} are not strictly increasing", ranks)
    check(section_ranks == ranks, "sections cover ranks {}, requested ranks are {}", section_ranks, ranks)
    sections = []
    for r in ranks:
        try:  # any error of the certifier itself, such as a rank above MAX_RANK
            sections.append(section_to_json(_section(r, table)))
        except Exception as exc:
            failure = f"{type(exc).__name__}: {_quote(exc, str)}"
            raise _Divergence(f"section r={_quote(r)}: cannot recompute the evidence ({failure})") from None
    expected = build_certificate(sections, table, ranks)
    expected["tool"]["version"] = version
    _compare(cert, expected, "", check)


def _quote(value, text=repr) -> str:
    """``text(value)``, a list entry by entry, cut to 200 characters and its
    length, so a divergence stays short whatever a claim holds.  Never raises."""
    shown = f"[{', '.join(_render(v, text) for v in value)}]" if type(value) is list else _render(value, text)
    return shown if len(shown) <= 200 else f"{shown[:200]}… ({len(shown)} characters)"


def _render(value, text) -> str:
    """``text(value)``; a value it cannot render (an int past the int-to-str
    digit limit, a set, a list nested too deep) by its bit length or type."""
    try:
        return text(value)
    except Exception:  # whatever an in-process certificate holds, a divergence is returned, never raised
        return f"an integer of {value.bit_length()} bits" if type(value) is int else f"a {type(value).__name__}"


def _show(value) -> str:
    """A leaf as JSON text, a container by its JSON type."""
    return "an object" if type(value) is dict else "a list" if type(value) is list else _quote(value, json.dumps)


def _compare(claimed, expected, where: str, check: _Checks) -> None:
    """Compare the claimed JSON value at path ``where`` with the expected one,
    in the expected key order."""
    if type(expected) is dict and type(claimed) is dict:
        missing, extra = sorted(expected.keys() - claimed.keys()), sorted(claimed.keys() - expected.keys())
        if missing or extra:
            raise _Divergence(f"{where or 'certificate'} keys: missing {_quote(missing)}, unexpected {_quote(extra)}")
        for key, value in expected.items():
            _compare(claimed[key], value, f"{where}.{key}" if where else key, check)
    elif type(expected) is list and type(claimed) is list:
        if len(claimed) != len(expected):
            raise _Divergence(f"{where} has {len(claimed)} entries, recomputed {len(expected)}")
        for i, (a, b) in enumerate(zip(claimed, expected)):
            _compare(a, b, f"{where}[{i}]", check)
    else:
        check.count += 1  # the message is built only for a divergence
        if type(claimed) is not type(expected) or claimed != expected:
            raise _Divergence(f"{where} is {_show(claimed)}, recomputed {_show(expected)}")


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _collect_zeta_matrix(cert: dict) -> dict[tuple[int, int], list[str]]:
    rows: dict[tuple[int, int], list[str]] = {}
    for sec in cert.get("sections", []):
        for v in sec.get("verdicts", []):
            key = (v["degree"], v["disc"])
            if key not in rows or len(v["zeta_values"]) > len(rows[key]):
                rows[key] = list(v["zeta_values"])
    return rows


def render_report(cert: dict) -> str:
    """Human-readable summary of a certificate."""
    lines: list[str] = []
    lines.append("hypeuler certification report")
    lines.append("=" * 60)
    tool = cert.get("tool", {})
    lines.append(f"tool: {tool.get('name', '?')} {tool.get('version', '?')}")
    lines.append(f"dataset checksum: {cert.get('dataset', {}).get('checksum', '?')}")
    lines.append(f"status: {cert.get('status', '?')}")
    if cert.get("error"):
        lines.append(f"error: {cert['error']}")
    sections = cert.get("sections", [])
    if not sections:
        lines.append("")
        lines.append("(no sections)")
        return "\n".join(lines) + "\n"

    for sec in sections:
        lines.append("")
        lines.append(f"dimension n = {sec['n']} (rank r = {sec['r']}, {sec['kind']})")
        lines.append("-" * 60)
        if "bounds" in sec:
            for b in sec["bounds"]:
                lines.append(
                    f"  degree {b['degree']}: |D| <= {b['pass_one']['disc_upper']} "
                    f"(first pass), <= {b['pass_two']['disc_upper']} (class number one); "
                    f"survivors {list(b['pass_two_discs'])}"
                )
        if "high_degree" in sec:
            for row in sec["high_degree"]["low_degree"]:
                status = "excluded" if row["excluded"] else "NOT excluded"
                lines.append(
                    f"  degree {row['degree']}: bound {row['disc_upper']} vs smallest "
                    f"disc {row['minimal_disc']} -> {status}"
                )
            lines.append("  degrees >= 5 excluded against the 6.5^d discriminant floor")
        if "local_factors" in sec:
            lf = sec["local_factors"]
            lines.append(
                f"  local factors: {len(lf['entries'])} maximal types, all integer "
                f"polynomials, minimum at q=2 is {lf['minimum_at_q2']}"
            )
        for v in sec.get("verdicts", []):
            zrow = ", ".join(v["zeta_values"])
            lines.append(f"  D={v['disc']} (degree {v['degree']}, h={v['h']}): {zrow}")
            if v["witness"] is not None:
                lines.append(
                    f"    -> obstructed: prime {v['witness']} divides the numerator "
                    f"{v['odd_numerator']} of the zeta product {v['product']}"
                )
            else:
                lines.append(
                    f"    -> unobstructed: zeta product {v['product']} has trivial "
                    "numerator, no odd-prime witness exists"
                )
        for note in sec.get("notes", []):
            lines.append(f"  note: {note}")
        lines.append(f"  verdict: {sec['verdict']}")

    matrix = _collect_zeta_matrix(cert)
    if matrix:
        lines.append("")
        lines.append("special values zeta_k(1-2j) of the candidate fields")
        lines.append("-" * 60)
        for (degree, disc), zs in sorted(matrix.items()):
            lines.append(f"  d={degree} D={disc}: " + ", ".join(zs))

    lines.append("")
    lines.append("overall verdicts")
    lines.append("-" * 60)
    for n, verdict in sorted(cert.get("overall", {}).items(), key=lambda kv: int(kv[0])):
        lines.append(f"  n = {n}: {verdict}")
    return "\n".join(lines) + "\n"
