"""Certificate assembly, deterministic serialization, report rendering,
and independent re-verification.

A certificate is a plain JSON tree in which every rational is an exact
``num/den`` string and every interval a pair of such strings; no floating
point number appears anywhere.  Given the bundled dataset, the verifier
recomputes every arithmetic claim (zeta special values, local factor
polynomials and minima, bound cutoffs, reduced products, and that each
witness is the smallest prime factor of its numerator) from scratch and
reports the first divergence.  Both refuse a rank above
``MAX_SERIALIZABLE_RANK`` before computing any of its evidence.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .exact_arith import (
    RationalInterval,
    dyadic_round,
    format_rational,
    parse_rational,
    two_adic_valuation,
)
from .euler_char import chi_lambda_from_product, index_divisor
from .field_tables import FieldTable, load_table
from .local_factors import table_fingerprint
from .characters_zeta import zeta_k_special
from .search_bounds import VERDICT_CERTIFIED, CertificateSection, certify_section

CERTIFICATE_FORMAT = "hypeuler-certificate v1"

# The working precision of the dual path when none is given, and the least
# one a certificate may be made or verified at (which keeps the dual-path
# width bound at or below 2^-56).
DEFAULT_PRECISION_BITS = 192
MIN_PRECISION_BITS = 64

INTERVAL_SIG_BITS = 128  # significant bits of each serialized enclosure end
RELATIVE_WIDTH_SIG_BITS = 32  # significant bits of a dual path's relative_width, rounded up
MAX_SERIALIZABLE_RANK = 27  # from rank 28 on, value_at_degree_five passes the int-to-str digit limit


# The keys of a complete certificate (a failed one adds "error") and of its parameters.
_CERTIFICATE_KEYS = {"format", "tool", "dataset", "axioms", "parameters", "sections", "overall", "status"}
_PARAMETER_KEYS = {"precision_bits", "requested_r"}
# The keys of a field verdict and of its "euler" and "dual_path" records.
_VERDICT_KEYS = set("label degree disc h zeta_values product odd_numerator witness conclusion euler dual_path".split())
_EULER_KEYS = {"chi_lambda", "index_divisor", "chi_gamma_lower", "two_exponent"}
_DUAL_PATH_KEYS = {"enclosure", "contains_exact", "relative_width"}


class CertificateError(Exception):
    pass


def _interval_json(iv: RationalInterval) -> list[str]:
    # A certificate needs fewer bits than the working precision; store an
    # outward-rounded enclosure (still rigorous).
    rounded = iv.outward_round(sig_bits=INTERVAL_SIG_BITS)
    return [format_rational(rounded.lo), format_rational(rounded.hi)]


def _bounds_pass_json(p) -> dict:
    return {
        "mode": p.mode.value,
        "disc_upper": p.disc_upper,
        "doubled_exponent": p.doubled_exponent,
        "threshold_squared": _interval_json(p.threshold_squared),
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
                    "shifted_nonnegative": True,  # minimum_proof raises otherwise
                }
                for e in proof.entries
            ],
            "calibration": {k: format_rational(v) for k, v in sorted((section.calibration or {}).items())},
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
        out["high_degree"] = {
            "growth_factor": _interval_json(hd.growth_factor),
            "value_at_degree_five": _interval_json(hd.value_at_degree_five),
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
            "dual_path": None
            if v.dual_path is None
            else {
                "enclosure": _interval_json(v.dual_path.enclosure),
                "contains_exact": True,  # field_verdict raises otherwise
                "relative_width": format_rational(
                    dyadic_round(v.dual_path.relative_width, RELATIVE_WIDTH_SIG_BITS, up=True)
                ),
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
            "statement": "closed-form local factors for the maximal parahoric types of rank-r "
            "odd orthogonal groups, as fingerprinted polynomials in the residue size",
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
    precision_bits: int,
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
        "parameters": {
            "precision_bits": precision_bits,
            "requested_r": sorted(set(requested)),
        },
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
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an integer past the digit limit
        raise CertificateError(f"cannot read certificate {path}: {exc}") from exc


def _section(r: int, table: FieldTable, precision_bits: int | None) -> dict:
    """The serialized section of rank r; ValueError above ``MAX_SERIALIZABLE_RANK``, before any work."""
    if r > MAX_SERIALIZABLE_RANK:
        raise ValueError(f"rank {r} is above {MAX_SERIALIZABLE_RANK}, the largest rank whose section serializes")
    return section_to_json(certify_section(r, table, precision_bits))


def run_certification(
    requested_r: list[int],
    table: FieldTable,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> tuple[dict, int]:
    """Certify every requested rank; returns (certificate, exit code).

    Exit codes: 0 all certified, 2 at least one rank inconclusive,
    1 internal error (the certificate is then partial, status failed).
    Each rank is certified and serialized inside its own failure envelope,
    so an error at either step names the rank.

    Raises ValueError, before any rank runs, when ``precision_bits`` is not
    an integer of at least ``MIN_PRECISION_BITS``: the verifier rejects a
    certificate made below that floor.
    """
    if type(precision_bits) is not int or precision_bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be an integer of at least MIN_PRECISION_BITS = "
            f"{MIN_PRECISION_BITS}, got {precision_bits!r}"
        )
    sections: list[dict] = []
    for r in sorted(set(requested_r)):
        try:
            sections.append(_section(r, table, precision_bits))
        except Exception as exc:  # embed the failure, per the exit-code contract
            cert = build_certificate(
                sections, table, precision_bits, requested_r, status="failed",
                error=f"r={r}: {type(exc).__name__}: {exc}",
            )
            return cert, 1
    cert = build_certificate(sections, table, precision_bits, requested_r)
    code = 0 if all(s["verdict"] == VERDICT_CERTIFIED for s in sections) else 2
    return cert, code


# ---------------------------------------------------------------------------
# Independent verification
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
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError, ZeroDivisionError)


def _same(a, b) -> bool:
    """Equality of JSON values that also tells 5, 5.0 and true apart."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class _Checks:
    """Counts the checks made and raises the first divergence."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, ok: bool, divergence: str) -> None:
        self.count += 1
        if not ok:
            raise _Divergence(divergence)

    def keys(self, node: dict, known, what: str) -> None:
        """Check that ``node`` has exactly the keys ``known``, naming the others after ``what``."""
        missing, extra = sorted(known - node.keys()), sorted(node.keys() - known)
        self(not missing and not extra, f"{what} missing {missing}, unexpected {extra}")


def verify_certificate(cert: dict | str | Path, table: FieldTable | None = None) -> VerificationOutcome:
    """Recompute every arithmetic claim of a certificate from scratch.

    The top-level keys and the ``parameters`` keys must be exactly those
    that ``build_certificate`` writes for a complete certificate (so no
    ``error``), the tool must be named ``hypeuler``, and
    ``parameters.requested_r`` must be strictly increasing.  The tool's
    ``version`` must be a string but is otherwise unpinned: a certificate
    made by another version verifies if its evidence does.

    The sections must be exactly the requested ranks.  Each section's
    recorded evidence (kind, bound audits, candidates, high-degree rows,
    local factors, field list and verdict) must equal what the certification
    driver recomputes for that rank, without the dual path.  Each field
    verdict's zeta row, reduced product, witness and Euler data are also
    re-derived here on their own; its keys and those of its ``euler`` and
    ``dual_path`` records must be those ``section_to_json`` writes, its
    integers ints and its rationals reduced ``num/den`` strings.  The
    dataset and the axioms must be those of the table in use.  These
    comparisons tell 5, 5.0 and true apart.  Every field verdict at
    rank >= 3 must carry a dual-path enclosure (rank 2 has none), which must
    contain the exact value and have a relative width of at most
    2^(8 - min(P, INTERVAL_SIG_BITS)) for ``parameters.precision_bits`` P,
    which must be at least ``MIN_PRECISION_BITS`` (so the bound is at most
    2^-56; see ``_dual_path_width_bound``), and the recorded
    ``relative_width`` must lie in (0, cap], cap the recorded enclosure's
    relative width rounded up to ``RELATIVE_WIDTH_SIG_BITS``.  A missing key
    or malformed value, and a rank whose evidence the certifier cannot
    recompute (any rank above ``MAX_SERIALIZABLE_RANK``), are reported as
    divergences, never raised.

    Unpinned slack, changing no verdict: ``relative_width`` anywhere in
    (0, cap] (2^-400 verifies, and so does +2 on the numerator of an honest
    one); ``parameters.precision_bits``, any integer at or above the floor
    at every rank, since the bound uses min(P, INTERVAL_SIG_BITS) and an
    honest serialized enclosure is about 2^-127 relative wide; and a
    dual-path enclosure widened but still valid and within the width bound
    (+2 on the numerator of its upper end verifies).
    """
    if isinstance(cert, (str, Path)):
        cert = read_certificate(cert)
    check = _Checks()
    try:
        _verify(cert, table if table is not None else load_table(), check)
    except _Divergence as exc:
        return VerificationOutcome(ok=False, checks=check.count, divergence=str(exc))
    return VerificationOutcome(ok=True, checks=check.count)


def _verify(cert: dict, table: FieldTable, check: _Checks) -> None:
    try:
        fmt = cert.get("format")
        check(fmt == CERTIFICATE_FORMAT, f"unknown certificate format {fmt!r}")
        check.keys(cert, _CERTIFICATE_KEYS, "certificate keys:")
        tool = cert["tool"]
        check(tool.keys() == {"name", "version"} and tool["name"] == "hypeuler", f"tool {tool!r} is not hypeuler")
        check(type(tool["version"]) is str, f"tool.version {tool['version']!r} is not a string")
        dataset, known = cert["dataset"], _dataset_json(table)
        for key, value in known.items():
            check(_same(dataset[key], value), f"dataset {key} does not match the table in use")
        check(dataset.keys() == known.keys(), f"dataset has unexpected keys {sorted(dataset.keys() - known.keys())}")
        check(_same(cert["axioms"], axioms(table.checksum)), "axioms differ from those of the table in use")
        check(cert["status"] == "complete", f"certificate status is {cert['status']!r}")
        parameters = cert["parameters"]
        check(parameters.keys() == _PARAMETER_KEYS, f"parameters has keys {sorted(parameters)}")
        precision = parameters["precision_bits"]
        check(type(precision) is int, f"parameters.precision_bits {precision!r} is not an integer")
        check(
            precision >= MIN_PRECISION_BITS,
            f"parameters.precision_bits {precision} is below the floor of {MIN_PRECISION_BITS} bits",
        )
        width_bound = _dual_path_width_bound(precision)
        ranks = list(parameters["requested_r"])
        sections = list(cert["sections"])
        section_ranks = [sec["r"] for sec in sections]
        overall = dict(cert["overall"])
    except _MALFORMED as exc:
        raise _Divergence(f"malformed certificate ({type(exc).__name__}: {exc})") from None
    check(all(type(r) is int and r >= 2 for r in ranks), f"requested ranks {ranks} are not all integers >= 2")
    check(all(a < b for a, b in zip(ranks, ranks[1:])), f"requested ranks {ranks} are not strictly increasing")
    check(section_ranks == ranks, f"sections cover ranks {section_ranks}, requested ranks are {ranks}")
    dims = [str(2 * r) for r in ranks]
    check(set(overall) == set(dims), f"overall verdicts cover dimensions {list(overall)}, requested {dims}")
    for sec, r in zip(sections, ranks):
        tag = f"section r={r}"
        try:  # any error of the certifier itself, such as a rank above MAX_SERIALIZABLE_RANK
            expected = _section(r, table, None)
        except Exception as exc:
            raise _Divergence(f"{tag}: cannot recompute the evidence ({type(exc).__name__}: {exc})") from None
        try:
            _verify_section(sec, expected, table, check, tag, width_bound)
            check(overall[str(2 * r)] == sec["verdict"], f"{tag}: overall map disagrees with section verdict")
        except _MALFORMED as exc:
            raise _Divergence(f"{tag}: malformed entry ({type(exc).__name__}: {exc})") from None


def _verify_section(
    sec: dict, expected: dict, table: FieldTable, check: _Checks, tag: str, width_bound: Fraction
) -> None:
    check.keys(sec, expected.keys(), f"{tag}: evidence")
    for claimed, known in zip(sec.get("bounds", []), expected.get("bounds", [])):
        for key in ("pass_one", "pass_two"):
            check(
                claimed[key]["disc_upper"] == known[key]["disc_upper"],
                f"{tag}: degree {known['degree']} {key} cutoff "
                f"{claimed[key]['disc_upper']} != recomputed {known[key]['disc_upper']}",
            )
    known_entries = expected.get("local_factors", {}).get("entries", [])
    known_polynomials = {e["type"]: e["polynomial"] for e in known_entries}
    for e in sec.get("local_factors", {}).get("entries", []):
        check(
            known_polynomials.get(e["type"]) == e["polynomial"],
            f"{tag}: polynomial mismatch for type {e['type']}",
        )
    for key in sorted(expected.keys() - {"verdicts"}):
        check(_same(sec[key], expected[key]), f"{tag}: {key} differs from the recomputed evidence")
    fields = [(v["label"], v["conclusion"]) for v in sec["verdicts"]]
    known_fields = [(v["label"], v["conclusion"]) for v in expected["verdicts"]]
    check(fields == known_fields, f"{tag}: field verdicts {fields} differ from the recomputed {known_fields}")
    for v in sec["verdicts"]:
        _verify_field(v, expected["r"], table, check, tag, width_bound)


def _dual_path_width_bound(precision_bits: int) -> Fraction:
    """The largest relative width accepted for a dual-path enclosure at
    working precision ``precision_bits``: 2^(8 - min(precision_bits, S)),
    S = ``INTERVAL_SIG_BITS`` = 128.

    Each zeta factor is enclosed to width 2^-precision_bits, and the
    serialization at S significant bits widens each end by under 2^(1 - S)
    relative, so an honest enclosure stays below
    2^(1 - min(precision_bits, S)) on every rank in use; the bound
    leaves 7 bits of room and still rejects any enclosure that says
    nothing, such as [0, 10^100].
    """
    return Fraction(2) ** (8 - min(precision_bits, INTERVAL_SIG_BITS))


def _verify_field(v: dict, r: int, table: FieldTable, check: _Checks, tag: str, width_bound: Fraction) -> None:
    """Re-derive one field verdict: zeta row, reduced product, witness and
    Euler data, and the recorded dual-path enclosure's containment and
    width."""
    label = v["label"]

    def rational(text: str, name: str) -> Fraction:
        x = parse_rational(text) if type(text) is str else None
        check(x is not None and format_rational(x) == text, f"{tag}: {label}: {name} {text!r} is not a reduced num/den")
        return x

    euler = v["euler"]
    check.keys(v, _VERDICT_KEYS, f"{tag}: malformed verdict {label}: keys")
    check.keys(euler, _EULER_KEYS, f"{tag}: malformed verdict {label}: euler keys")
    for node, key in ((v, "degree"), (v, "disc"), (v, "h"), (euler, "index_divisor")):
        check(type(node[key]) is int, f"{tag}: {label}: {key} {node[key]!r} is not an integer")
    rec = table.by_disc(v["degree"], v["disc"])
    check(
        rec is not None and rec.label == label and rec.h == v["h"],
        f"{tag}: field {label} not found in dataset as recorded",
    )
    zetas = [rational(z, "zeta value") for z in v["zeta_values"]]
    check(len(zetas) == r, f"{tag}: {label}: expected {r} zeta values")
    for j, claimed in enumerate(zetas, start=1):
        recomputed = zeta_k_special(rec, j)
        check(
            recomputed == claimed,
            f"{tag}: zeta value for field {label}, j={j}: certificate says "
            f"{format_rational(claimed)}, recomputed {format_rational(recomputed)}",
        )
    product = Fraction(1)
    for z in zetas:
        product *= abs(z)
    check(product == rational(v["product"], "product"), f"{tag}: {label}: reduced zeta product mismatch")
    num = product.numerator
    odd = num >> ((num & -num).bit_length() - 1)
    check(str(odd) == v["odd_numerator"], f"{tag}: {label}: odd numerator mismatch")
    witness = v["witness"]
    if witness is None:
        check(
            odd == 1 and v["conclusion"] == "unobstructed",
            f"{tag}: {label}: missing witness despite nontrivial numerator",
        )
    else:
        # An odd divisor w > 2 of ``odd`` with no odd divisor d of ``odd`` in
        # 3 <= d < min(w, isqrt(odd) + 1) is its smallest prime factor: a
        # composite w has a factor at most its square root, and a smaller
        # prime p above that root would make p * w > odd divide odd.
        check(type(witness) is int and witness > 2, f"{tag}: {label}: witness {witness!r} is not an integer > 2")
        check(
            odd % witness == 0,
            f"{tag}: {label}: witness {witness} is not an odd prime factor of {odd}: it does not divide it",
        )
        check(v["conclusion"] == "obstructed", f"{tag}: {label}: witness present but not obstructed")
        smaller = next((d for d in range(3, min(witness, isqrt(odd) + 1), 2) if odd % d == 0), None)
        check(
            smaller is None,
            f"{tag}: {label}: witness {witness} is not the smallest prime factor of {odd}: {smaller} divides it",
        )
    chi = chi_lambda_from_product(product, r, v["degree"])
    check(chi == rational(euler["chi_lambda"], "chi_lambda"), f"{tag}: {label}: chi(Lambda) mismatch")
    divisor = euler["index_divisor"]
    check(divisor == index_divisor(v["h"], v["degree"]), f"{tag}: {label}: index divisor mismatch")
    check(
        chi / divisor == rational(euler["chi_gamma_lower"], "chi_gamma_lower"),
        f"{tag}: {label}: chi(Gamma) lower bound mismatch",
    )
    two_exponent = -two_adic_valuation(chi / divisor)
    check(
        type(euler["two_exponent"]) is int and euler["two_exponent"] == two_exponent,
        f"{tag}: {label}: two_exponent {euler['two_exponent']!r} != recomputed {two_exponent}",
    )
    dual = v["dual_path"]
    # The certifier records a dual-path check for every field at rank >= 3
    # and none at rank 2.
    check(
        (dual is not None) == (r >= 3),
        f"{tag}: {label}: dual-path record is {'missing' if dual is None else 'unexpected at rank 2'}",
    )
    if dual is not None:
        check.keys(dual, _DUAL_PATH_KEYS, f"{tag}: malformed verdict {label}: dual_path keys")
        lo, hi = (rational(s, "enclosure end") for s in dual["enclosure"])
        check(lo <= chi <= hi, f"{tag}: {label}: recorded enclosure misses the exact value")
        check(dual["contains_exact"] is True, f"{tag}: {label}: contains_exact is not true")
        check(
            (hi - lo) / chi <= width_bound,
            f"{tag}: {label}: recorded enclosure's relative width exceeds {format_rational(width_bound)}",
        )
        # The recorded enclosure contains the working one and rounding up is
        # monotone, so an honest relative_width is at most this cap (<= width_bound).
        cap = dyadic_round((hi - lo) / chi, RELATIVE_WIDTH_SIG_BITS, up=True)
        relative_width = rational(dual["relative_width"], "relative_width")
        check(
            0 < relative_width <= cap,
            f"{tag}: {label}: relative_width {dual['relative_width']!r} is not a positive rational "
            f"at most the recorded enclosure's rounded relative width {format_rational(cap)}",
        )


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
