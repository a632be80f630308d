"""Guard for the start-up of a process: the table checksum and the type-table
fingerprint take SHA-256 from the builtin module, so neither a certify nor a
verify loads OpenSSL through ``hashlib``; without that module the same
digests come from ``hashlib``.  Each mode loads only its own modules: a
verify neither the numeric path nor the report, a certify not the verifier's
walk, and a certify with no field verdict not the numeric path.  The CLI
parses its flags itself, so neither mode loads ``argparse``, nor the
``gettext`` and ``locale`` it would bring."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypeuler
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


def cli_modules(*args: str) -> list[str]:
    """The modules a fresh ``python -S`` process has loaded after one CLI
    run, which must exit 0."""
    code = (
        "import json, sys\n"
        "from hypeuler.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    code, modules = json.loads(run_python(code, *args)[-2])
    assert code == 0
    return modules


@pytest.fixture(scope="module")
def headline_modules(tmp_path_factory):
    """The modules of a headline certify, and of a verify of its certificate."""
    tmp = tmp_path_factory.mktemp("headline")
    cert = str(tmp / "cert.json")
    certify = cli_modules("--n", "6", "--n", "8", "--n", "10", "--out", cert, "--report", str(tmp / "report.txt"))
    return certify, cli_modules("--verify", cert)


def test_headline_certify_loads_no_verifier(headline_modules):
    certify, _ = headline_modules
    assert "hypeuler.verifier" not in certify
    assert {"hypeuler.numeric_path", "hypeuler.report"} <= set(certify)


def test_headline_verify_loads_neither_numeric_path_nor_report(headline_modules):
    _, verify = headline_modules
    assert "hypeuler.numeric_path" not in verify and "hypeuler.report" not in verify
    assert "hypeuler.verifier" in verify


def test_high_rank_certify_loads_no_numeric_path(tmp_path):
    # ranks 13..15 have no field verdict, so the dual-path self-check encloses nothing
    modules = cli_modules("--r", "13", "--r", "14", "--r", "15", "--out", str(tmp_path / "c.json"),
                          "--report", str(tmp_path / "r.txt"))
    assert "hypeuler.numeric_path" not in modules and "hypeuler.verifier" not in modules


def test_headline_loads_no_argparse_gettext_or_locale(headline_modules):
    for modules in headline_modules:
        assert not {"argparse", "gettext", "locale"} & set(modules)
