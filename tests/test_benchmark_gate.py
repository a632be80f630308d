"""The benchmark's correctness gate holds on fresh certificates: for each
workload of ``perfbench/run.py``, ``decisive_content`` of the certificate
the CLI writes equals ``perfbench/expected/<workload>.json``.  So a format
change that the benchmark would refuse fails here first.  The benchmark
files are only read: no bytecode is written next to them."""

import importlib.util
import sys
from pathlib import Path

import pytest

import hypeuler
from hypeuler.certificate import read_certificate
from hypeuler.cli import main

PERFBENCH = Path(hypeuler.__file__).resolve().parents[2] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` as a module, with ``perfbench/`` on ``sys.path`` for its ``tracer`` import."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.delitem(sys.modules, "tracer", raising=False)
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["headline", "sweep", "high_rank"])
def test_fresh_certificate_passes_the_gate(bench, workload, tmp_path, monkeypatch):
    assert workload in bench.WORKLOADS
    flag, values = bench.WORKLOADS[workload]
    argv = [arg for v in values for arg in (flag, str(v))]
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "c.json", "--report", "r.txt"]) == 0
    assert bench.decisive_content(read_certificate("c.json")) == bench.load_expected(workload)
