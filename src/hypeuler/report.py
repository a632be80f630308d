"""The plain-text report of a certificate (see ``certificate.render_report``,
which imports this module when first called, so a verify process never
compiles it).  It reads only the certificate's JSON tree.
"""

from __future__ import annotations


def _collect_zeta_matrix(cert: dict) -> dict[tuple[int, int], list[str]]:
    rows: dict[tuple[int, int], list[str]] = {}
    for sec in cert.get("sections", []):
        for v in sec.get("verdicts", []):
            key = (v["degree"], v["disc"])
            if key not in rows or len(v["zeta_values"]) > len(rows[key]):
                rows[key] = list(v["zeta_values"])
    return rows


def render(cert: dict) -> str:
    """The body of ``certificate.render_report``."""
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
