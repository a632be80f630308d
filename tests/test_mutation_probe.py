"""The mutation probe (``tools/mutation_probe.py``) keeps up with the code:
each mutant's old text occurs exactly once in its file, and nowhere else
in ``src/``, and only the one listed mutant is marked equivalent.  Running
the probe itself takes about 30 s per mutant, so it stays out of the test
suite."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def probe():
    spec = importlib.util.spec_from_file_location("mutation_probe", ROOT / "tools" / "mutation_probe.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.setitem(sys.modules, spec.name, module)  # its NamedTuple looks its module up
        spec.loader.exec_module(module)
    return module


def test_each_old_text_occurs_once_in_src(probe):
    sources = {path: path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")}
    assert len(probe.MUTANTS) == 37
    equivalent = [mutant.breaks for mutant in probe.MUTANTS if mutant.equivalent]
    assert equivalent == ["chi_principal_numeric rounds its product 2 bits coarser"]
    for mutant in probe.MUTANTS:
        assert mutant.old != mutant.new
        assert {path: text.count(mutant.old) for path, text in sources.items() if mutant.old in text} == {
            ROOT / mutant.file: 1
        }, mutant.old
