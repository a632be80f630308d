"""Self-test of the benchmark harness (about 15 s).

Usage (from the repository root): python3 perfbench/selftest.py

Checks, on the headline workload:
- spans nest inside their parents and every self time is at least 0;
- traced call counts repeat exactly between two traced runs;
- a certificate with one witness changed, or with a section missing its
  keys, counts as a failed operation and does not raise.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from run import ROOT, Child, Cli, FlagOrder, Gate, layer_metrics, load_expected, warm_up


def check_nesting(dump: dict) -> None:
    spans = dump["spans"]
    for i, (_, start, end, parent) in enumerate(spans):
        assert start <= end, f"span {i} ends before it starts"
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, f"span {i} leaves its parent {parent}"
    roots = [s for s in spans if s[3] < 0]
    assert len(roots) == 1, f"expected one root span, found {len(roots)}"


def traced_calls(cli: Cli, flags: list[str]) -> dict[str, float]:
    child = cli.certify(flags, traced=True)
    assert child.code == 0, child.stderr
    dump = cli.span_dump()
    check_nesting(dump)
    metrics = layer_metrics(dump, "certify")
    negative = {k: v for k, v in metrics.items() if k.endswith("self_s") and v < 0}
    assert not negative, f"negative self times: {negative}"
    return {k: v for k, v in metrics.items() if k.endswith(".calls")}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        cli = Cli(Path(tmp))
        warm_up(cli)
        order = FlagOrder("headline", 7)
        first = traced_calls(cli, order.next())
        second = traced_calls(cli, order.next())
        assert first == second, "traced calls counts differ between two runs"
        print(f"ok: spans nest, self times >= 0, {len(first)} call counts repeat exactly")

        cert = json.loads(cli.cert.read_bytes())
        verdict = cert["sections"][0]["verdicts"][0]
        verdict["witness"] = 3 if verdict["witness"] != 3 else 5
        cli.cert.write_text(json.dumps(cert), encoding="utf-8")
        gate = Gate(load_expected("headline"))
        exited_ok = Child(code=0, wall_s=0.0, rss_mb=0.0, stdout="", stderr="")
        gate.certify(exited_ok, cli.cert, "tampered certificate")
        gate.verify(cli.verify(), "verify of tampered certificate")
        assert gate.attempted == 2 and len(gate.failures) == 2, gate.failures
        print("ok: a changed witness fails both the decisive-content gate and the verifier")

        del cert["sections"][1]["kind"]
        for data in (json.dumps(cert).encode(), b"not json", b"[]"):
            assert Gate(load_expected("headline")).check_certificate(data) is not None
        print("ok: malformed certificates are failures, not exceptions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
