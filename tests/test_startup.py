"""Guard for the start-up of a process: the table checksum and the type-table
fingerprint take SHA-256 from the builtin module, so neither a certify nor a
verify loads OpenSSL through ``hashlib``; without that module the same
digests come from ``hashlib``.  Each mode loads only its own modules: a
verify neither the numeric path nor the report, and a certify neither the
verifier's walk nor the numeric path, which no certify runs.  A run whose
ranks have no field to decide, certify or verify, does not load the field
path either, and only a rank-2 run loads the code that no rank >= 3 runs
(``offline``); the names the acceptance suite still reads from the modules
that code came from are the objects of its new home.  No module a run loads
builds a ``typing.ForwardRef`` at import.  The CLI reads the plain flag
forms of these runs itself, so neither mode loads ``argparse``, nor the
``gettext`` and ``locale`` it would bring; only the help and a refused
command line do.  A certify writes its certificate without the ``json``
module, which only a verify loads, to read one.  A process started through
``cli.run`` freezes the run's objects before it exits, and changes nothing
else a run does."""

import ast
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypeuler
from hypeuler import characters_zeta, cli, field_path, offline
from hypeuler.euler_char import ArithmeticDatum
from hypeuler.field_tables import bundled_table_path, canonicalize, checksum_of_text
from hypeuler.local_factors import table_fingerprint

SRC = Path(hypeuler.__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
HAS_BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2"))


def run_python(code: str, *args: str) -> list[str]:
    out = subprocess.run([sys.executable, "-S", "-c", code, *args], env=ENV, capture_output=True, text=True, check=True)
    return out.stdout.split("\n")


def test_digests_equal_hashlib():
    text = bundled_table_path().read_text(encoding="utf-8")
    assert checksum_of_text(text) == hashlib.sha256(canonicalize(text).encode("utf-8")).hexdigest()
    assert checksum_of_text(text) == hypeuler.load_table().checksum


@pytest.mark.skipif(not HAS_BUILTIN_SHA256, reason="no builtin SHA-256 module")
def test_certify_and_verify_do_not_load_hashlib(tmp_path):
    code = (
        "import sys\n"
        "from hypeuler.cli import main\n"
        "out, report = sys.argv[1:]\n"
        "assert main(['--n', '6', '--out', out, '--report', report]) == 0\n"
        "assert main(['--verify', out]) == 0\n"
        "print([m for m in ('hashlib', '_hashlib') if m in sys.modules])"
    )
    lines = run_python(code, str(tmp_path / "cert.json"), str(tmp_path / "report.txt"))
    assert lines[-2] == "[]"


def test_hashlib_fallback_gives_the_same_digests():
    code = (
        "import sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "import hashlib\n"
        "from hypeuler import field_tables, local_factors\n"
        "assert field_tables.sha256 is hashlib.sha256 is local_factors.sha256\n"
        "print(field_tables.load_table().checksum)\n"
        "print(local_factors.table_fingerprint())"
    )
    assert run_python(code)[:2] == [hypeuler.load_table().checksum, table_fingerprint()]


def cli_modules(*args: str, exit_code: int = 0) -> list[str]:
    """The modules a fresh ``python -S`` process has loaded after one CLI
    run, which must exit with ``exit_code``."""
    code = (
        "import sys\n"
        "from hypeuler.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "modules = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps([code, modules]))"
    )
    code, modules = json.loads(run_python(code, *args)[-2])
    assert code == exit_code
    return modules


@pytest.fixture(scope="module")
def headline_modules(tmp_path_factory):
    """The modules of a headline certify, and of a verify of its certificate."""
    tmp = tmp_path_factory.mktemp("headline")
    cert = str(tmp / "cert.json")
    certify = cli_modules("--n", "6", "--n", "8", "--n", "10", "--out", cert, "--report", str(tmp / "report.txt"))
    return certify, cli_modules("--verify", cert)


@pytest.fixture(scope="module")
def sweep_modules(tmp_path_factory):
    """The modules of a no-flag sweep certify, and of a verify of its certificate."""
    tmp = tmp_path_factory.mktemp("sweep")
    cert = str(tmp / "cert.json")
    return cli_modules("--out", cert, "--report", str(tmp / "report.txt")), cli_modules("--verify", cert)


@pytest.fixture(scope="module")
def high_rank_modules(tmp_path_factory):
    """The modules of a certify of ranks 13..15, and of a verify of its certificate."""
    tmp = tmp_path_factory.mktemp("high_rank")
    cert = str(tmp / "cert.json")
    certify = cli_modules("--r", "13", "--r", "14", "--r", "15", "--out", cert, "--report", str(tmp / "report.txt"))
    return certify, cli_modules("--verify", cert)


def test_headline_and_sweep_certify_load_neither_verifier_nor_numeric_path(headline_modules, sweep_modules):
    # both have field verdicts, and certify encloses none of them
    for certify in (headline_modules[0], sweep_modules[0]):
        assert "hypeuler.verifier" not in certify and "hypeuler.numeric_path" not in certify
        assert {"hypeuler.report", "hypeuler.field_path"} <= set(certify)


def test_headline_verify_loads_neither_numeric_path_nor_report(headline_modules):
    _, verify = headline_modules
    assert "hypeuler.numeric_path" not in verify and "hypeuler.report" not in verify
    assert {"hypeuler.verifier", "hypeuler.field_path"} <= set(verify)


JSON_MODULES = {"json", "json.decoder", "json.encoder", "json.scanner", "_json"}


def test_certify_loads_no_json_and_verify_no_writer(headline_modules, sweep_modules, high_rank_modules):
    # report.json_text writes the certificate; a verify reads it with json.loads and compiles no writer
    for certify, verify in (headline_modules, sweep_modules, high_rank_modules):
        assert not JSON_MODULES & set(certify)
        assert "json" in verify and "hypeuler.report" not in verify


def test_high_rank_certify_loads_no_numeric_path(high_rank_modules):
    # certify encloses no value at any rank, so it never needs the numeric path
    certify, _ = high_rank_modules
    assert "hypeuler.numeric_path" not in certify and "hypeuler.verifier" not in certify


def test_high_rank_certify_and_verify_load_no_field_path(high_rank_modules):
    # every field at ranks 13..15 is excluded by the bounds alone
    for modules in high_rank_modules:
        assert "hypeuler.field_path" not in modules and "hypeuler.certificate" in modules


def test_benchmark_runs_load_no_offline_code(headline_modules, sweep_modules, high_rank_modules):
    # certify and verify of every rank >= 3 run none of it
    for modules in (*headline_modules, *sweep_modules, *high_rank_modules):
        assert "hypeuler.offline" not in modules


def test_rank_two_scan_loads_the_field_path_and_offline_code(tmp_path):
    modules = cli_modules("--n", "4", "--out", str(tmp_path / "c.json"), "--report", str(tmp_path / "r.txt"),
                          exit_code=2)
    assert {"hypeuler.field_path", "hypeuler.offline"} <= set(modules)


def test_imports_build_no_forward_reference():
    # typing.NamedTuple builds one per annotated field at class creation
    code = (
        "import typing\n"
        "built = []\n"
        "init = typing.ForwardRef.__init__\n"
        "typing.ForwardRef.__init__ = lambda self, *a, **k: built.append(a) or init(self, *a, **k)\n"
        "import hypeuler.cli, hypeuler.field_path, hypeuler.report, hypeuler.verifier\n"
        "print(len(built))"
    )
    assert run_python(code)[-2] == "0"


def acceptance_names_read_from_old_modules() -> dict[str, dict]:
    """module -> each name ``tests/test_acceptance.py`` imports from it that
    the module does not define (its ``__getattr__`` serves it), with the
    module that defines the object it serves."""
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    served: dict[str, dict] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith("hypeuler."):
            module = importlib.import_module(node.module)
            names = [a.name for a in node.names if a.name not in vars(module)]
            served[node.module] = {name: sys.modules[getattr(module, name).__module__] for name in names}
    return {name: homes for name, homes in served.items() if homes}


def test_acceptance_names_are_the_field_path_objects():
    served = acceptance_names_read_from_old_modules()
    assert served == {
        "hypeuler.characters_zeta": {"kronecker_character": field_path, "trivial_character": field_path},
        "hypeuler.euler_char": {"chi_principal_exact": offline},
        "hypeuler.exact_arith": {"RatPolynomial": offline, "bernoulli_number": field_path, "poly_exact_divide": offline},
        "hypeuler.local_factors": {"local_factor_polynomial": offline},
    }
    for module, homes in served.items():
        for name, home in homes.items():
            assert getattr(importlib.import_module(module), name) is vars(home)[name], (module, name)
    # one Bernoulli memo and one zeta-value cache, whichever module a caller reads
    from hypeuler.euler_char import chi_principal_exact
    from hypeuler.exact_arith import bernoulli_number

    bernoulli_number(120)
    assert len(field_path._BERNOULLI[0]) > 120
    characters_zeta.zeta_k_special.cache_clear()
    chi_principal_exact(ArithmeticDatum(hypeuler.load_table().by_disc(2, 997), 4))
    assert characters_zeta.zeta_k_special.cache_info().currsize == 4


def test_headline_loads_no_argparse_gettext_or_locale(headline_modules, sweep_modules, high_rank_modules):
    # and neither does any other benchmark run: the sweep, the high ranks, and each one's verify
    for modules in (*headline_modules, *sweep_modules, *high_rank_modules):
        assert not {"argparse", "gettext", "locale"} & set(modules)


# An atexit hook that reports whether the heap is frozen, then a start the way
# ``python -m`` starts a module.
EXIT_PROBE = (
    "import atexit, gc, runpy, sys\n"
    "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
    "runpy.run_module(sys.argv.pop(1), run_name='__main__', alter_sys=True)"
)


@pytest.mark.parametrize("module", ["hypeuler", "hypeuler.cli"])
@pytest.mark.parametrize(
    "args, exit_code",
    [(("--r", "13"), 0), (("--r", "13", "--n", "6"), 1), (("--n", "4"), 2)],
    ids=["certified", "usage-error", "inconclusive"],
)
def test_process_exits_frozen_and_otherwise_as_main(module, args, exit_code, tmp_path, monkeypatch, capsys):
    """``python -m hypeuler`` (and ``-m hypeuler.cli``) freezes the heap before
    the exit's atexit hooks run, and exits with the code, output and files of
    an in-process ``cli.main``, which leaves the freeze count as it was."""
    argv = [*args, "--out", "cert.json", "--report", "report.txt"]
    child_dir, own_dir = tmp_path / "child", tmp_path / "in_process"
    child_dir.mkdir()
    own_dir.mkdir()
    child = subprocess.run([sys.executable, "-S", "-c", EXIT_PROBE, module, *argv], cwd=child_dir, env=ENV,
                           capture_output=True, text=True)
    monkeypatch.chdir(own_dir)
    frozen = gc.get_freeze_count()
    assert cli.main(argv) == child.returncode == exit_code
    assert gc.get_freeze_count() == frozen
    out, err = capsys.readouterr()
    assert (child.stdout, child.stderr) == (out + "True\n", err)
    files = [{path.name: path.read_bytes() for path in folder.iterdir()} for folder in (child_dir, own_dir)]
    assert files[0] == files[1] and bool(files[0]) == (exit_code != 1)


def test_installed_script_starts_through_run():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["scripts"] == {"hypeuler": "hypeuler.cli:run"}
