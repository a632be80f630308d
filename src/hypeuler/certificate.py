"""Certificate assembly, deterministic serialization, report rendering,
and verification by rebuilding.

A certificate is a plain JSON tree in which every rational is an exact
``num/den`` string; it states each bound by its integer cutoff, not by the
working enclosure behind it, and no floating point number appears anywhere.
``serialize_certificate`` states its bytes (sorted keys, two-space indent,
a final newline, the bytes of ``json.dumps(cert, indent=2,
sort_keys=True, ensure_ascii=False)``) and refuses, by TypeError, any value
that is not a dict with str keys, a list, a str, an int, a bool or None, so
a float cannot be written.
Given the bundled dataset, the verifier rebuilds the certificate with the
writer itself and compares the two JSON trees leaf by leaf, field verdicts
included, so the format is stated once, here in the writer, and there is
one verification path; it reports the first divergence by its path.  The rebuild runs the certifier's own code,
so it shows that a certificate is what this code writes, not that the code
is right.  Both refuse a rank above ``MAX_RANK`` before computing any of
its evidence.  The verifier's walk is in ``verifier``, and the writer of
the certificate's text and the report in ``report``; ``verify_certificate``,
``serialize_certificate`` and ``render_report`` import them when first
called.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .exact_arith import format_rational
from .field_tables import FieldTable
from .local_factors import table_fingerprint
from .search_bounds import VERDICT_CERTIFIED, CertificateSection, certify_section

if TYPE_CHECKING:
    from .verifier import VerificationOutcome

CERTIFICATE_FORMAT = "hypeuler-certificate v4"

# ``run_certification``'s precision when none is given, and the least it
# accepts; no certify step reads it.
DEFAULT_PRECISION_BITS = 192
MIN_PRECISION_BITS = 64

# The largest rank certified, a bound on cost (a section takes about 0.003 s
# at r = 100, 0.045 s at 200 and 0.48 s at 400), so a huge rank fails at once.
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
    """The certificate's bytes, by ``report.json_text``, and a final newline."""
    from .report import json_text

    return json_text(cert) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; ValueError naming a key the object repeats,
    whose earlier values ``json.loads`` would drop unseen."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {_quote(key)}")
            seen.add(key)
    return obj


def read_certificate(path: str | Path) -> dict:
    import json

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
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
    Each rank's section, the verifier's rebuild, is serialized inside the
    rank's own failure envelope, so an error at any step names the rank.
    No certify step reads ``precision_bits``, which must still be an integer
    of at least ``MIN_PRECISION_BITS``: else ValueError, before any rank runs.
    """
    if type(precision_bits) is not int or precision_bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be an integer of at least MIN_PRECISION_BITS = "
            f"{MIN_PRECISION_BITS}, got {precision_bits!r}"
        )
    sections: list[dict] = []
    for r in sorted(set(requested_r)):
        try:
            sections.append(section_to_json(_section(r, table)))
        except Exception as exc:  # embed the failure, per the exit-code contract
            cert = build_certificate(
                sections, table, requested_r, status="failed", error=f"r={_quote(r)}: {type(exc).__name__}: {exc}"
            )
            return cert, 1
    cert = build_certificate(sections, table, requested_r)
    code = 0 if all(s["verdict"] == VERDICT_CERTIFIED for s in sections) else 2
    return cert, code


# ---------------------------------------------------------------------------
# Verification and the report: each entry point imports, when first called,
# the module that holds its body, so a process compiles only its own mode
# ---------------------------------------------------------------------------


def verify_certificate(cert: dict, table: FieldTable) -> VerificationOutcome:
    """Check a certificate by rebuilding it with the writer and comparing.

    First, guards that must hold before anything is recomputed: the
    certificate is a JSON object, its ``format`` is this one,
    ``tool.version`` is a string,
    ``parameters.requested_r`` is a strictly increasing list of integers
    >= 2 and the sections are exactly those ranks.  Then the expected
    certificate is rebuilt from ``table`` by the certifier's own calls,
    ``certify_section`` per rank (which re-proves, by ``calibrate_oracle``,
    that each local factor's closed form is Prasad's order formula) and
    ``build_certificate``, with the claimed ``tool.version``, the one
    unpinned value, copied in.  The two JSON trees are compared leaf by
    leaf, each leaf one check, and the first difference is named by its
    path: a missing or unexpected key, a list of another length, or a leaf
    of another JSON type or value (so 5, 5.0 and true differ, and a rational
    must be the reduced ``num/den`` string the writer gives), quoting at
    most 200 characters of any one value (and an int too long to print by
    its bit length).  A certificate that verifies is the one this code
    writes, which proves no more than the code does.

    A missing key or malformed value, and a rank whose evidence the
    certifier cannot recompute (any rank above ``MAX_RANK``),
    are reported as divergences, never raised.
    """
    from .verifier import verify

    return verify(cert, table)


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


def render_report(cert: dict) -> str:
    """Human-readable summary of a certificate, by ``report.render``."""
    from .report import render

    return render(cert)
