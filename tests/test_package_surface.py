"""Guard for the package surface: ``import hypeuler`` holds ``__version__``
and ``load_table`` and loads only the dataset loader, not the proof engine,
and the benchmark's set-up command still runs against it."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import hypeuler

SRC = Path(hypeuler.__file__).resolve().parents[1]
PERFBENCH_RUN = SRC.parent / "perfbench" / "run.py"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def test_package_defines_only_version_and_load_table():
    # each submodule is bound on the package once anything imports it
    public = {name for name, value in vars(hypeuler).items() if name[0] != "_" and type(value) is not ModuleType}
    assert public == {"load_table"}
    assert hypeuler.load_table.__module__ == "hypeuler.field_tables"
    assert isinstance(hypeuler.__version__, str)


def test_import_loads_only_the_dataset_loader():
    code = (
        "import sys\n"
        "import hypeuler\n"
        "hypeuler.load_table()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hypeuler'))\n"
        "print([m for m in ('fractions', 'decimal') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], env=ENV, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["['hypeuler', 'hypeuler.field_tables']", "[]"]


def setup_code() -> str:
    """``SETUP_CODE`` of ``perfbench/run.py``, read without importing the file."""
    for node in ast.parse(PERFBENCH_RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SETUP_CODE"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SETUP_CODE in {PERFBENCH_RUN}")


def test_benchmark_setup_command_runs():
    out = subprocess.run([sys.executable, "-c", setup_code()], env=ENV, capture_output=True, text=True, check=True)
    assert Path(out.stdout.strip()).resolve().is_relative_to(SRC)
