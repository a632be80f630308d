"""End-to-end benchmark of the hypeuler CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload headline --seed 1 --seconds 25 --trace 0

One client runs a closed loop with no concurrency: each iteration starts a
fresh ``python3 -m hypeuler`` process to certify, then a fresh
``python3 -m hypeuler --verify`` process on the certificate it just wrote,
the way a user runs them.  Every operation is checked (see ``Gate``).

--trace 0 prints the end-to-end metrics (median over the iterations of the
run); --trace 1 runs the CLI under perfbench/tracer.py and prints per-layer
metrics instead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  ``--workload all`` runs
every workload in turn.

The seed only permutes the order of the --n/--r flags, differently in each
iteration; the CLI sorts ranks, so the proof work and the certificate bytes
must not change with it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracer import ROOT as ROOT_SPAN, SPANNED

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_DIR = BENCH_DIR / "expected"
TRACER = BENCH_DIR / "tracer.py"

# workload -> (CLI flag, values); the sweep is the no-flag default (r = 3..12).
WORKLOADS: dict[str, tuple[str | None, tuple[int, ...]]] = {
    "headline": ("--n", (6, 8, 10)),
    "sweep": (None, ()),
    "high_rank": ("--r", (13, 14, 15)),
}
SETUP_SAMPLES = 7
OP_TIMEOUT_S = 60.0
PROBE_NOMINAL_S = 0.11  # host_probe's wall time on the nominal host, about its median
SETUP_CODE = "import hypeuler; hypeuler.load_table(); print(hypeuler.__file__)"
VERIFIED = re.compile(r"^certificate verified: (\d+) checks passed$", re.MULTILINE)


class BenchError(Exception):
    """The checkout cannot be benchmarked (no result is printed)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int | None  # None on timeout
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    scaled_s: float = 0.0  # wall_s at the nominal host speed, see Cli


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], workdir: Path, timeout: float = OP_TIMEOUT_S) -> Child:
    """Run one process to completion; wall time and peak RSS are its own."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdout=out, stderr=err)
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # WNOWAIT leaves the child unreaped, so the timer can never
            # signal a recycled pid; wait4 then reaps it with its rusage.
            # os.kill, not proc.kill: Popen would reap the child itself.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=None if timed_out.is_set() else proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def host_probe() -> float:
    """Wall seconds of a fixed piece of pure-Python work: exact Fraction
    arithmetic on growing integers and dict updates, the kinds of work the
    CLI does."""
    start = time.perf_counter()
    x = Fraction(1)
    for k in range(1, 1600):
        x = x * Fraction(2 * k + 1, 2 * k) + Fraction(1, k * k + 1)
    counts: dict[int, int] = {}
    for i in range(400_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - start


class Cli:
    """Fresh processes (the CLI, traced or not, and the set-up sample)
    writing into one working directory.

    A shared host can change speed by 1.5x over minutes (seen on a 2-vCPU
    Xeon virtual machine), every process slowing alike, which would swamp a
    bound on raw wall time.  So a host probe runs right before and right
    after each process, and ``Child.scaled_s`` is its wall time times
    PROBE_NOMINAL_S over the mean of the two probes: the wall time on a
    host where the probe takes PROBE_NOMINAL_S.  Every process goes through ``_run``, so the probe
    after one process is the probe before the next."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.cert = workdir / "cert.json"
        self.report = workdir / "report.txt"
        self.spans = workdir / "spans.json"
        self.probes = [host_probe()]

    def _run(self, argv: list[str]) -> Child:
        child = run_child(argv, self.workdir)
        self.probes.append(host_probe())
        child.scaled_s = child.wall_s * PROBE_NOMINAL_S / statistics.mean(self.probes[-2:])
        return child

    def _cli(self, traced: bool, args: list[str]) -> Child:
        self.spans.unlink(missing_ok=True)
        head = [str(TRACER), str(self.spans)] if traced else ["-m", "hypeuler"]
        return self._run([sys.executable, *head, *args])

    def setup(self) -> Child:
        """A fresh interpreter that imports hypeuler and loads the table."""
        return self._run([sys.executable, "-c", SETUP_CODE])

    def certify(self, flags: list[str], traced: bool = False) -> Child:
        self.cert.unlink(missing_ok=True)
        return self._cli(traced, [*flags, "--out", str(self.cert), "--report", str(self.report)])

    def verify(self, traced: bool = False) -> Child:
        return self._cli(traced, ["--verify", str(self.cert)])

    def span_dump(self) -> dict:
        return json.loads(self.spans.read_text(encoding="utf-8"))


def warm_up(cli: Cli) -> None:
    """Import the checkout's hypeuler once (compiles bytecode), and make
    sure it is the checkout's and not an installed copy."""
    if not (SRC / "hypeuler" / "__init__.py").is_file():
        raise BenchError(f"no hypeuler sources under {SRC}")
    child = cli.setup()
    if child.code != 0:
        raise BenchError(f"cannot import hypeuler: {child.stderr.strip()}")
    if not Path(child.stdout.strip()).resolve().is_relative_to(SRC):
        raise BenchError(f"hypeuler imported from {child.stdout.strip()}, not {SRC}")


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def decisive_content(cert: dict) -> list[dict]:
    """What a speedup must leave unchanged: verdicts, cutoffs, candidates,
    zeta rows and witnesses.  Enclosure strings are left out on purpose."""
    sections = []
    for sec in cert["sections"]:
        hd = sec.get("high_degree")
        sections.append({
            "r": sec["r"],
            "kind": sec["kind"],
            "verdict": sec["verdict"],
            "bounds": [
                {
                    "degree": b["degree"],
                    "pass_one": b["pass_one"]["disc_upper"],
                    "pass_two": b["pass_two"]["disc_upper"],
                    "pass_one_discs": b["pass_one_discs"],
                    "pass_two_discs": b["pass_two_discs"],
                }
                for b in sec.get("bounds", [])
            ],
            "candidates": sec.get("candidates", []),
            "verdicts": [
                {
                    "label": v["label"],
                    "zeta_values": v["zeta_values"],
                    "odd_numerator": v["odd_numerator"],
                    "witness": v["witness"],
                }
                for v in sec.get("verdicts", [])
            ],
            "high_degree": None if hd is None else hd["low_degree"],
        })
    return sections


def load_expected(workload: str) -> list[dict]:
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text(encoding="utf-8"))


@dataclass
class Gate:
    """Counts operations (one certify or one verify) and the ones that fail."""

    expected: list[dict]
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    cert_sha256: str | None = None  # of the first certificate of the run

    def _record(self, what: str, reason: str | None) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")
            print(f"FAILED {what}: {reason}", file=sys.stderr)
        return reason is None

    def certify(self, child: Child, cert_path: Path, what: str = "certify") -> bytes | None:
        """Check one certify run; returns the certificate bytes if it passed."""
        reason, data = None, None
        if child.code is None:
            reason = f"timed out after {OP_TIMEOUT_S:.0f} s"
        elif child.code != 0:
            reason = f"exit code {child.code}: {child.stderr.strip()[-300:]}"
        else:
            try:
                data = cert_path.read_bytes()
            except OSError as exc:
                reason = f"no certificate: {exc}"
            else:
                reason = self.check_certificate(data)
        return data if self._record(what, reason) else None

    def check_certificate(self, data: bytes) -> str | None:
        digest = hashlib.sha256(data).hexdigest()
        if self.cert_sha256 is None:
            self.cert_sha256 = digest
        elif digest != self.cert_sha256:
            return "certificate bytes differ from the run's first certificate"
        try:
            content = decisive_content(json.loads(data))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"malformed certificate: {type(exc).__name__}: {exc}"
        if content != self.expected:
            return "decisive content differs from the expected values"
        return None

    def verify(self, child: Child, what: str = "verify") -> int | None:
        """Check one verify run; returns the verifier's check count if it passed."""
        match = VERIFIED.search(child.stdout)
        if child.code is None:
            reason = f"timed out after {OP_TIMEOUT_S:.0f} s"
        elif child.code != 0 or match is None:
            reason = f"exit code {child.code}: {child.stderr.strip()[-300:]}"
        else:
            reason = None
        return int(match.group(1)) if self._record(what, reason) else None


# ---------------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------------


class FlagOrder:
    """The seed's only effect: a fresh permutation of the flags per iteration."""

    def __init__(self, workload: str, seed: int) -> None:
        self.flag, self.values = WORKLOADS[workload]
        self.rng = random.Random(seed)

    def next(self) -> list[str]:
        args: list[str] = []
        for v in self.rng.sample(self.values, len(self.values)):
            args += [self.flag, str(v)]
        return args


def measure(workload: str, seed: int, seconds: float, cli: Cli) -> tuple[Gate, dict, list[str]]:
    """Untraced run: certify/verify pairs for ``seconds``, each after one
    set-up sample, then more set-up samples up to SETUP_SAMPLES.  Spreading
    the set-up samples over the run keeps them from sharing one slow spell
    of the host."""
    gate = Gate(load_expected(workload))
    order = FlagOrder(workload, seed)
    samples: dict[str, list[Child]] = {"certify_s": [], "verify_s": [], "setup_s": []}
    orders: list[str] = []
    start = time.perf_counter()
    while True:
        samples["setup_s"].append(cli.setup())
        flags = order.next()
        orders.append(" ".join(flags) or "(default)")
        c = cli.certify(flags)
        samples["certify_s"].append(c)
        if gate.certify(c, cli.cert) is not None:
            v = cli.verify()
            samples["verify_s"].append(v)
            gate.verify(v)
        if time.perf_counter() - start >= seconds:
            break
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        samples["setup_s"].append(cli.setup())
    metrics = {
        name: (statistics.median(c.scaled_s for c in children) if children else 0.0, "s")
        for name, children in samples.items()
    }
    metrics["peak_rss_mb"] = (max(c.rss_mb for c in samples["certify_s"] + samples["verify_s"]), "MiB")
    notes = []
    for name, children in samples.items():
        if children:
            walls = [c.wall_s for c in children]
            notes.append(
                f"{name}: {len(children)} samples, raw wall median {statistics.median(walls):.4f} s "
                f"(min {min(walls):.4f}, max {max(walls):.4f})"
            )
    notes.append(
        f"host probe: {len(cli.probes)} samples, median {statistics.median(cli.probes):.4f} s "
        f"(min {min(cli.probes):.4f}, max {max(cli.probes):.4f}; nominal {PROBE_NOMINAL_S} s)"
    )
    notes.append(f"flag orders: {'; '.join(orders)}")
    return gate, metrics, notes


def layer_metrics(dump: dict, phase: str) -> dict[str, float]:
    """calls and self_s per spanned function, plus the root's inclusive time."""
    names, spans = dump["names"], dump["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    for i, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        if parent < 0:
            out[f"{phase}.{name}.s"] = (end - start) / 1e9
            continue
        out[f"{phase}.{name}.calls"] = out.get(f"{phase}.{name}.calls", 0) + 1
        key = f"{phase}.{name}.self_s"
        out[key] = out.get(key, 0.0) + (end - start - child_ns[i]) / 1e9
    return out


def hurwitz_useful_ratio(dump: dict) -> float:
    """Share of Hurwitz evaluations in the final escalation round of their
    zeta_k_numeric call; 0 when there are none."""
    names, spans = dump["names"], dump["spans"]
    terms = {int(k): v for k, v in dump["hurwitz_terms"].items()}
    if not terms:
        return 0.0
    by_call: dict[int, list[int]] = {}
    for idx, t in terms.items():
        owner = spans[idx][3]
        while owner >= 0 and names[spans[owner][0]] != "characters_zeta.zeta_k_numeric":
            owner = spans[owner][3]
        by_call.setdefault(owner, []).append(t)
    useful = sum(ts.count(max(ts)) for ts in by_call.values())
    return useful / len(terms)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for phase in ("certify", "verify"):
        out.append((f"{phase}.{ROOT_SPAN}.s", "s"))
        for module, functions in SPANNED.items():
            for fn in functions:
                out += [(f"{phase}.{module}.{fn}.calls", "count"), (f"{phase}.{module}.{fn}.self_s", "s")]
    out += [
        ("exact_arith.interval_bits_max", "bits"),
        ("characters_zeta.hurwitz_useful_ratio", "ratio"),
        ("certificate.cert_bytes", "bytes"),
        ("certificate.verify_checks", "count"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


def trace(workload: str, seed: int, seconds: float, cli: Cli) -> tuple[Gate, dict, list[str]]:
    """Traced run: one untraced certify for the overhead baseline, then
    traced certify/verify pairs, each in a fresh interpreter, for ``seconds``."""
    gate = Gate(load_expected(workload))
    order = FlagOrder(workload, seed)
    start = time.perf_counter()
    c = cli.certify(order.next())
    gate.certify(c, cli.cert, "untraced certify")
    untraced_s = c.scaled_s
    rounds: list[dict[str, float]] = []
    traced_s: list[float] = []
    derived: dict[str, float] = {}
    while True:
        c = cli.certify(order.next(), traced=True)
        data = gate.certify(c, cli.cert, "traced certify")
        if data is not None:
            traced_s.append(c.scaled_s)
            certify_dump = cli.span_dump()
            v = cli.verify(traced=True)
            checks = gate.verify(v, "traced verify")
            if checks is not None:
                verify_dump = cli.span_dump()
                rounds.append(layer_metrics(certify_dump, "certify") | layer_metrics(verify_dump, "verify"))
                derived = {
                    "exact_arith.interval_bits_max": max(
                        certify_dump["interval_bits_max"], verify_dump["interval_bits_max"]
                    ),
                    "characters_zeta.hurwitz_useful_ratio": hurwitz_useful_ratio(certify_dump),
                    "certificate.cert_bytes": len(data),
                    "certificate.verify_checks": checks,
                }
        if time.perf_counter() - start >= seconds:
            break
    counts = [{k: v for k, v in r.items() if k.endswith(".calls")} for r in rounds]
    if any(cnt != counts[0] for cnt in counts[1:]):
        gate.failures.append("traced calls counts differ between iterations")
    if traced_s:
        derived["trace.overhead_frac"] = statistics.median(traced_s) / untraced_s - 1
    metrics: dict[str, tuple[float, str]] = {}
    for name, unit in per_layer_names():
        if name in derived:
            metrics[name] = (derived[name], unit)
        elif not rounds:
            metrics[name] = (0, unit)
        elif name.endswith(".calls"):
            metrics[name] = (counts[0].get(name, 0), unit)
        else:
            metrics[name] = (statistics.median(r.get(name, 0) for r in rounds), unit)
    notes = [f"traced iterations: {len(rounds)}", f"untraced certify (scaled): {untraced_s:.4f} s"]
    return gate, metrics, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple[Gate, dict]:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        cli = Cli(Path(tmp))
        warm_up(cli)
        gate, metrics, notes = (trace if traced else measure)(workload, seed, seconds, cli)
    print(f"workload {workload}, seed {seed}, {'traced' if traced else 'untraced'}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_frac = {len(gate.failures) / max(gate.attempted, 1):.6g} "
          f"({len(gate.failures)} failed of {gate.attempted} operations)")
    print(f"  certificate sha256: {gate.cert_sha256}")
    return gate, metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, failed = 0, 0
    metrics: dict[str, dict] = {}
    try:
        for w in names:
            gate, m = run_workload(w, args.seed, args.seconds, bool(args.trace))
            attempted += gate.attempted
            failed += len(gate.failures)
            prefix = f"{w}." if args.workload == "all" else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
