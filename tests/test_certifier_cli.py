import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypeuler import certificate, cli, field_path, local_factors, search_bounds
from hypeuler.certificate import (
    MAX_RANK,
    MIN_PRECISION_BITS,
    CertificateError,
    _dataset_json,
    axioms,
    read_certificate,
    render_report,
    run_certification,
    section_to_json,
    serialize_certificate,
    verify_certificate,
)
from hypeuler.cli import main
from hypeuler.euler_char import chi_principal_numeric
from hypeuler.field_tables import bundled_table_path, checksum_of_text, load_table, parse_table_text
from hypeuler.search_bounds import certify_section


@pytest.fixture(scope="module")
def table():
    return load_table()


@pytest.fixture(scope="module")
def theorem_cert(table):
    cert, code = run_certification([3, 4, 5], table, precision_bits=128)
    assert code == 0
    return cert


def clone(cert):
    return json.loads(json.dumps(cert))


def hypeuler_env():
    """The environment of a fresh ``python -m hypeuler`` on this checkout's
    sources, with Python's default buffering of standard output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_hypeuler(*args, stdout=subprocess.PIPE):
    """``python -m hypeuler`` in a fresh process, its standard output
    captured unless ``stdout`` names a file to write."""
    return subprocess.run([sys.executable, "-m", "hypeuler", *args], env=hypeuler_env(), stdout=stdout,
                          stderr=subprocess.PIPE, text=True)


class TestRunCertification:
    def test_theorem_ranks_certified(self, theorem_cert):
        assert theorem_cert["status"] == "complete"
        assert theorem_cert["overall"] == {
            "6": "nonexistence certified",
            "8": "nonexistence certified",
            "10": "nonexistence certified",
        }

    def test_dimension_four_inconclusive(self, table):
        cert, code = run_certification([2], table, precision_bits=128)
        assert code == 2
        assert cert["overall"]["4"] == "inconclusive"

    def test_no_floats_anywhere(self, theorem_cert):
        def walk(node):
            if isinstance(node, float):
                raise AssertionError("float found in certificate")
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(theorem_cert)

    def test_serialization_deterministic(self, theorem_cert, table):
        again, _ = run_certification([3, 4, 5], table, precision_bits=128)
        assert serialize_certificate(theorem_cert) == serialize_certificate(again)

    def test_precision_changes_no_byte(self, table):
        # no certify step reads the precision, not even one past the numeric
        # path's reach (about 800 bits), at every rank with a field verdict
        # and at rank 13 with none
        ranks = [3, 4, 5, 6, 13]
        default, code = run_certification(ranks, table)
        assert code == 0 and default["parameters"] == {"requested_r": ranks}
        for bits in (64, 192, 65536):
            cert, code = run_certification(ranks, table, precision_bits=bits)
            assert code == 0 and serialize_certificate(cert) == serialize_certificate(default)

    def test_internal_error_yields_partial_failed_cert(self, table):
        cert, code = run_certification([1], table)  # rank 1 is out of contract
        assert code == 1
        assert cert["status"] == "failed"
        assert "r=1" in cert["error"]

    @pytest.mark.parametrize(("argv", "exit_code"), [(["--n", "6", "--n", "8", "--n", "10"], 0), (["--n", "4"], 2)])
    def test_verify_rebuilds_by_the_certify_calls(self, argv, exit_code, tmp_path, monkeypatch, capsys):
        # certify and --verify call the driver alike, and neither encloses a
        # recorded verdict along the transcendental path
        calls, enclosed = [], []

        def driver(r, table):
            calls.append((r, table))
            return certify_section(r, table)

        def dual_path(datum, precision_bits):
            enclosed.append((datum.field.label, datum.r))
            return chi_principal_numeric(datum, precision_bits)

        monkeypatch.setattr(certificate, "certify_section", driver)
        monkeypatch.setattr(search_bounds, "chi_principal_numeric", dual_path)
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "c.json", "--report", "r.txt"]) == exit_code
        certified = calls[:]
        calls.clear()
        recorded = [(v["label"], sec["r"]) for sec in read_certificate("c.json")["sections"] for v in sec["verdicts"]]
        assert recorded and enclosed == []
        assert main(["--verify", "c.json"]) == 0
        assert calls == certified and enclosed == []


class TestVerifier:
    def test_fresh_certificate_verifies(self, theorem_cert, table):
        outcome = verify_certificate(clone(theorem_cert), table)
        assert outcome.ok, outcome.divergence
        assert outcome.checks > 100

    def test_zeta_tamper_named(self, theorem_cert, table):
        bad = clone(theorem_cert)
        bad["sections"][0]["verdicts"][0]["zeta_values"][2] = "67/631"
        outcome = verify_certificate(bad, table)
        assert not outcome.ok
        assert outcome.divergence == 'sections[0].verdicts[0].zeta_values[2] is "67/631", recomputed "67/630"'

    def test_nonprime_witness_rejected(self, theorem_cert, table):
        bad = clone(theorem_cert)
        bad["sections"][0]["verdicts"][0]["witness"] = 9
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and outcome.divergence == "sections[0].verdicts[0].witness is 9, recomputed 67"

    def test_wrong_witness_prime_rejected(self, theorem_cert, table):
        bad = clone(theorem_cert)
        bad["sections"][0]["verdicts"][0]["witness"] = 71  # prime, but not a divisor
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and outcome.divergence == "sections[0].verdicts[0].witness is 71, recomputed 67"

    def test_bound_tamper_named(self, theorem_cert, table):
        bad = clone(theorem_cert)
        bad["sections"][0]["bounds"][0]["pass_one"]["disc_upper"] = 29
        outcome = verify_certificate(bad, table)
        assert not outcome.ok
        assert outcome.divergence == "sections[0].bounds[0].pass_one.disc_upper is 29, recomputed 28"

    @pytest.mark.parametrize(
        ("verdict", "witness", "named"),
        [
            (1, 361, "sections[0].verdicts[1].witness is 361, recomputed 11"),  # 19^2
            (1, 209, "sections[0].verdicts[1].witness is 209, recomputed 11"),  # 11 * 19
            (1, 19, "sections[0].verdicts[1].witness is 19, recomputed 11"),
            (4, 5791, "sections[0].verdicts[4].witness is 5791, recomputed 41"),
            (1, 13, "sections[0].verdicts[1].witness is 13, recomputed 11"),
            (1, 1, "sections[0].verdicts[1].witness is 1, recomputed 11"),
            (1, -11, "sections[0].verdicts[1].witness is -11, recomputed 11"),
            (1, "11", 'sections[0].verdicts[1].witness is "11", recomputed 11'),
            (1, True, "sections[0].verdicts[1].witness is true, recomputed 11"),
            (1, 11.0, "sections[0].verdicts[1].witness is 11.0, recomputed 11"),
        ],
    )
    def test_wrong_witness_named(self, theorem_cert, table, verdict, witness, named):
        # 2.2.8.1 at r = 3 has odd numerator 3971 = 11 * 19^2, 2.2.17.1 has 237431 = 41 * 5791
        bad = clone(theorem_cert)
        bad["sections"][0]["verdicts"][verdict]["witness"] = witness
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and outcome.divergence == named

    def test_rank_two_dual_path_rejected(self, table):
        # no verdict records a dual path, at rank 2 as at any other
        cert, _ = run_certification([2], table, precision_bits=128)
        cert["sections"][0]["verdicts"][0]["dual_path"] = {"enclosure": ["0", "1"], "relative_width": "1"}
        outcome = verify_certificate(cert, table)
        assert not outcome.ok
        assert outcome.divergence == "sections[0].verdicts[0] keys: missing [], unexpected ['dual_path']"

    def test_verdict_flip_rejected(self, theorem_cert, table):
        bad = clone(theorem_cert)
        bad["sections"][0]["verdicts"][0]["witness"] = None
        bad["sections"][0]["verdicts"][0]["conclusion"] = "unobstructed"
        outcome = verify_certificate(bad, table)
        assert not outcome.ok

    def test_missing_sections_rejected(self, theorem_cert, table):
        bad = clone(theorem_cert)
        bad["parameters"]["requested_r"] = [3]
        bad["sections"] = []
        bad["overall"] = {"6": "nonexistence certified"}
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and "sections cover ranks []" in outcome.divergence

    def test_stripped_section_rejected(self, theorem_cert, table):
        bad = clone(theorem_cert)
        sec = bad["sections"][0]
        for key in ("bounds", "candidates", "local_factors", "high_degree"):
            del sec[key]
        sec["verdicts"] = sec["verdicts"][:1]
        outcome = verify_certificate(bad, table)
        assert not outcome.ok
        assert outcome.divergence == (
            "sections[0] keys: missing ['bounds', 'candidates', 'high_degree', 'local_factors'], unexpected []"
        )

    def test_missing_key_is_named_divergence(self, theorem_cert, table):
        bad = clone(theorem_cert)
        del bad["sections"][0]["verdicts"][0]["euler"]
        outcome = verify_certificate(bad, table)
        assert not outcome.ok
        assert outcome.divergence == "sections[0].verdicts[0] keys: missing ['euler'], unexpected []"

    @pytest.mark.parametrize(
        ("path", "value", "named"),
        [
            (("axioms", 0, "statement"), "every field is small", "axioms"),
            (("axioms",), [], "axioms"),
            (("dataset", "source"), "elsewhere", 'dataset.source is "elsewhere", recomputed "'),
            (("dataset", "completeness", "2"), 5000, "dataset.completeness.2 is 5000, recomputed 1000"),
            (("dataset", "completeness"), None, "dataset.completeness is null, recomputed an object"),
            (("sections", 0, "verdicts", 0, "euler", "two_exponent"), 1, "two_exponent"),
            (("sections", 0, "verdicts", 0, "euler", "two_exponent"), "11", "two_exponent"),
            (
                ("sections", 0, "verdicts", 0, "euler", "chi_lambda"),
                "1/2",
                'sections[0].verdicts[0].euler.chi_lambda is "1/2", recomputed "67/36288000"',
            ),
            (
                ("sections", 0, "verdicts", 0, "euler", "chi_gamma_lower"),
                "1/2",
                'sections[0].verdicts[0].euler.chi_gamma_lower is "1/2", recomputed "67/145152000"',
            ),
            (
                ("sections", 0, "verdicts", 0, "euler", "index_divisor"),
                8,
                "sections[0].verdicts[0].euler.index_divisor is 8, recomputed 4",
            ),
        ],
    )
    def test_replaced_claim_named(self, theorem_cert, table, path, value, named):
        bad = clone(theorem_cert)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and named in outcome.divergence

    def test_duplicated_verdict_two_exponent_rejected(self, theorem_cert, table):
        # the two_exponent of one field copied onto another
        bad = clone(theorem_cert)
        verdicts = bad["sections"][0]["verdicts"]
        donor = next(v for v in verdicts if v["euler"]["two_exponent"] != verdicts[0]["euler"]["two_exponent"])
        verdicts[0]["euler"]["two_exponent"] = donor["euler"]["two_exponent"]
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and "two_exponent" in outcome.divergence

    def test_extra_dataset_key_rejected(self, theorem_cert, table):
        bad = clone(theorem_cert)
        bad["dataset"]["note"] = "extra"
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and "dataset keys: missing [], unexpected ['note']" in outcome.divergence

    def test_local_factor_tamper_rejected(self, theorem_cert, table):
        bad = clone(theorem_cert)
        bad["sections"][0]["local_factors"]["entries"][0]["polynomial"][0] = "2"
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and "polynomial" in outcome.divergence


def json_leaves(node):
    """The number of values in a JSON tree that are neither objects nor lists."""
    if type(node) is dict:
        return sum(json_leaves(v) for v in node.values())
    if type(node) is list:
        return sum(json_leaves(v) for v in node)
    return 1


@pytest.mark.parametrize(
    "ranks", [[3, 4, 5], list(range(3, 13)), [13, 14, 15], [2]], ids=["headline", "sweep", "high-rank", "rank-2"]
)
def test_each_leaf_is_one_check(table, ranks):
    # five guard checks (format, version, rank types, rank order, section
    # ranks), then one per compared leaf, field verdicts included
    cert, _ = run_certification(ranks, table)
    outcome = verify_certificate(cert, table)
    assert outcome.ok, outcome.divergence
    assert outcome.checks == 5 + json_leaves(cert)


@pytest.fixture(scope="module")
def rank_three_cert(table):
    cert, code = run_certification([3], table)
    assert code == 0
    return cert


def local_factor_mutations(cert):
    """One perturbed copy of the certificate per leaf of the rank-3
    local-factor block, with the leaf's path."""
    lf = cert["sections"][0]["local_factors"]
    paths = [("minimum_at_q2",)]
    for k, e in enumerate(lf["entries"]):
        paths += [("entries", k, "polynomial", i) for i in range(len(e["polynomial"]))]
        paths.append(("entries", k, "value_at_q2"))
    for path in paths:
        bad = clone(cert)
        node = bad["sections"][0]["local_factors"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = str(int(node[path[-1]]) + 1)
        yield path, bad


class TestPrecisionFloor:
    @pytest.mark.parametrize("bits", [8, -3, 63])
    def test_library_below_floor_raises(self, bits, table):
        with pytest.raises(ValueError, match=f"MIN_PRECISION_BITS = 64, got {bits}"):
            run_certification([3], table, precision_bits=bits)

    def test_library_floor_certifies(self, table):
        cert, code = run_certification([3], table, precision_bits=MIN_PRECISION_BITS)
        assert code == 0 and cert["status"] == "complete"
        assert verify_certificate(cert, table).ok


class TestTopLevelKeys:
    """The certificate's own keys, its tool and its parameters are pinned;
    only the tool's version string is free."""

    @pytest.mark.parametrize(
        ("mutate", "named"),
        [
            (
                lambda c: c.update(format="hypeuler-certificate v1"),
                "unknown certificate format 'hypeuler-certificate v1'",
            ),
            (
                lambda c: c.update(format="hypeuler-certificate v2"),
                "unknown certificate format 'hypeuler-certificate v2'",
            ),
            (lambda c: c["tool"].update(version=2), "tool.version 2 is not a string"),
            (lambda c: c["tool"].update(name="other"), 'tool.name is "other", recomputed "hypeuler"'),
            (lambda c: c.pop("tool"), "malformed certificate (KeyError: 'tool')"),
            (lambda c: c.update(note="extra"), "certificate keys: missing [], unexpected ['note']"),
            (lambda c: c.update(error="r=3: none"), "certificate keys: missing [], unexpected ['error']"),
            (lambda c: c["parameters"].update(seed=1), "parameters keys: missing [], unexpected ['seed']"),
            (
                lambda c: c["parameters"].update(precision_bits=192),
                "parameters keys: missing [], unexpected ['precision_bits']",
            ),
            (
                lambda c: c["parameters"].update(requested_r=[3, 3]),
                "requested ranks [3, 3] are not strictly increasing",
            ),
            (
                lambda c: c.update(sections=[], overall={}) or c["parameters"].update(requested_r=[]),
                "parameters.requested_r is empty: the certificate claims no rank",
            ),
        ],
        ids=[
            "v1-format", "v2-format", "changed-version", "changed-name", "deleted-tool", "extra-key", "error-key",
            "extra-parameter", "precision-parameter", "duplicate-rank", "no-rank",
        ],
    )
    def test_mutation_is_named_divergence(self, rank_three_cert, table, mutate, named):
        bad = clone(rank_three_cert)
        mutate(bad)
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and named in outcome.divergence

    @pytest.mark.parametrize(
        ("cert", "named"),
        [([], "a list"), ("x", '"x"'), (5, "5"), (None, "null")],
        ids=["list", "string", "number", "null"],
    )
    def test_non_object_certificate_named(self, table, cert, named):
        # refused before any check is counted, like a certificate that claims no rank
        assert verify_certificate(cert, table) == (False, 0, f"certificate is {named}, not an object")

    def test_version_string_is_unpinned(self, rank_three_cert, table):
        cert = clone(rank_three_cert)
        cert["tool"]["version"] = "0.0.1"
        assert verify_certificate(cert, table).ok

    def test_repeated_rank_recorded_once(self, rank_three_cert, table):
        cert, code = run_certification([3, 3], table)
        assert code == 0 and cert["parameters"]["requested_r"] == [3]
        assert serialize_certificate(cert) == serialize_certificate(rank_three_cert)


@pytest.fixture(scope="module")
def rank_thirteen_cert(table):
    cert, code = run_certification([13], table)
    assert code == 0
    return cert


class TestDivergenceLength:
    """A divergence quotes an excerpt of a long claimed value or key list,
    after the path or guard text that names it."""

    @pytest.mark.parametrize(
        ("mutate", "lead", "tail"),
        [
            (
                lambda c: c["parameters"].update(requested_r=[13] * 100_000),
                "requested ranks [13, 13, ",
                "… (400000 characters) are not strictly increasing",
            ),
            (
                lambda c: c.update(status="x" * 10**6),
                'status is "xxx',
                '… (1000002 characters), recomputed "complete"',
            ),
            (lambda c: c.update(format="y" * 10**6), "unknown certificate format 'yyy", "… (1000002 characters)"),
            (
                lambda c: c.update({"z" * 10**6: 1}),
                "certificate keys: missing [], unexpected ['zzz",
                "… (1000004 characters)",
            ),
        ],
        ids=["requested-ranks", "status", "format", "key"],
    )
    def test_long_claim_is_excerpted(self, rank_thirteen_cert, table, mutate, lead, tail):
        bad = clone(rank_thirteen_cert)
        mutate(bad)
        outcome = verify_certificate(bad, table)
        assert not outcome.ok
        assert len(outcome.divergence) < 500
        assert outcome.divergence.startswith(lead) and outcome.divergence.endswith(tail)


class TestOverLimitInt:
    """An int past the int-to-str digit limit (only a certificate built in
    process can hold one) is a divergence quoting it by its bit length,
    never an exception."""

    HUGE = 10**5000  # 16610 bits

    @pytest.mark.parametrize(
        ("rank", "mutate", "divergence"),
        [
            (
                13,
                lambda c: c["parameters"].update(requested_r=[TestOverLimitInt.HUGE]),
                "sections cover ranks [13], requested ranks are [an integer of 16610 bits]",
            ),
            (
                13,
                lambda c: c["sections"][0].update(r=TestOverLimitInt.HUGE),
                "sections cover ranks [an integer of 16610 bits], requested ranks are [13]",
            ),
            (
                3,
                lambda c: c["sections"][0]["verdicts"][0].update(witness=TestOverLimitInt.HUGE),
                "sections[0].verdicts[0].witness is an integer of 16610 bits, recomputed 67",
            ),
        ],
        ids=["requested-rank", "section-rank", "witness"],
    )
    def test_named_divergence(self, rank_three_cert, rank_thirteen_cert, table, rank, mutate, divergence):
        bad = clone(rank_three_cert if rank == 3 else rank_thirteen_cert)
        mutate(bad)
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and outcome.divergence == divergence


class TestWriterBlock:
    """A top-level block that ``build_certificate`` adds is checked by the
    verifier with no code of its own."""

    @pytest.fixture
    def tailed_cert(self, table, monkeypatch):
        build = certificate.build_certificate

        def with_tail(*args, **kwargs):
            return {**build(*args, **kwargs), "tail": {"from_r": 8}}

        monkeypatch.setattr(certificate, "build_certificate", with_tail)
        cert, code = run_certification([3], table)
        assert code == 0 and cert["tail"] == {"from_r": 8}
        return cert

    def test_block_verifies(self, tailed_cert, table):
        outcome = verify_certificate(clone(tailed_cert), table)
        assert outcome.ok, outcome.divergence

    @pytest.mark.parametrize(
        ("mutate", "named"),
        [
            (lambda c: c.pop("tail"), "certificate keys: missing ['tail'], unexpected []"),
            (lambda c: c["tail"].update(from_r=7), "tail.from_r is 7, recomputed 8"),
        ],
        ids=["deleted", "from-r-7"],
    )
    def test_altered_block_is_named(self, tailed_cert, table, mutate, named):
        bad = clone(tailed_cert)
        mutate(bad)
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and outcome.divergence == named


def first_verdict(cert):
    return cert["sections"][0]["verdicts"][0]


class TestVerdictShape:
    """A field verdict's keys, integers and rationals are pinned to what
    ``section_to_json`` writes, like every other leaf: evidence compares by
    JSON type and value, so a float, a padded or an unreduced rational diverges."""

    @pytest.mark.parametrize(
        ("mutate", "named"),
        [
            (
                lambda c: first_verdict(c).update(note=1),
                "sections[0].verdicts[0] keys: missing [], unexpected ['note']",
            ),
            (
                lambda c: first_verdict(c)["euler"].update(note=1),
                "sections[0].verdicts[0].euler keys: missing [], unexpected ['note']",
            ),
            (
                lambda c: first_verdict(c).update(dual_path=None),
                "sections[0].verdicts[0] keys: missing [], unexpected ['dual_path']",
            ),
            (lambda c: first_verdict(c).update(h=1.0), "sections[0].verdicts[0].h is 1.0, recomputed 1"),
            (lambda c: first_verdict(c).update(disc=5.0), "sections[0].verdicts[0].disc is 5.0, recomputed 5"),
            (
                lambda c: first_verdict(c)["euler"].update(index_divisor=4.0),
                "sections[0].verdicts[0].euler.index_divisor is 4.0, recomputed 4",
            ),
            (
                lambda c: first_verdict(c)["zeta_values"].__setitem__(0, " 1/30 "),
                'sections[0].verdicts[0].zeta_values[0] is " 1/30 ", recomputed "1/30"',
            ),
            (
                lambda c: first_verdict(c)["zeta_values"].__setitem__(0, "2/60"),
                'sections[0].verdicts[0].zeta_values[0] is "2/60", recomputed "1/30"',
            ),
            (
                lambda c: first_verdict(c)["euler"].update(chi_lambda="1e-60"),
                'sections[0].verdicts[0].euler.chi_lambda is "1e-60", recomputed "67/36288000"',
            ),
            (
                lambda c: c["sections"][0]["candidates"][0].update(disc=5.0),
                "sections[0].candidates[0].disc is 5.0, recomputed 5",
            ),
            (lambda c: c["sections"][0].update(r=3.0), "sections[0].r is 3.0, recomputed 3"),
            (
                lambda c: c["dataset"]["completeness"].update({"2": 1000.0}),
                "dataset.completeness.2 is 1000.0, recomputed 1000",
            ),
        ],
        ids=[
            "verdict-key", "euler-key", "dual-path-key", "float-h", "float-disc", "float-index-divisor",
            "padded-rational", "unreduced-rational", "float-text-rational", "float-candidate-disc", "float-rank",
            "float-completeness",
        ],
    )
    def test_mutation_is_named_divergence(self, rank_three_cert, table, mutate, named):
        bad = clone(rank_three_cert)
        mutate(bad)
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and outcome.divergence == named


def oversized_integer_certificate(cert, path):
    """``cert`` written with a 5,000-digit first verdict ``disc``, past the
    JSON reader's integer-digit limit."""
    bad = clone(cert)
    first_verdict(bad)["disc"] = "oversized"
    text = serialize_certificate(bad).replace('"disc": "oversized"', '"disc": 1' + "0" * 4999)
    path.write_text(text, encoding="utf-8")
    return path


def test_oversized_integer_is_certificate_error(rank_three_cert, tmp_path):
    path = oversized_integer_certificate(rank_three_cert, tmp_path / "c.json")
    with pytest.raises(CertificateError, match="cannot read certificate"):
        read_certificate(path)


def duplicated_key_certificate(cert, path):
    """``cert`` written with its first ``"witness"`` key stated twice, a
    non-prime 9 before the real witness, which ``json.loads`` alone keeps."""
    text = serialize_certificate(cert)
    assert '"witness": 67,' in text
    path.write_text(text.replace('"witness": 67,', '"witness": 9, "witness": 67,', 1), encoding="utf-8")
    return path


def test_duplicated_key_is_certificate_error(rank_three_cert, tmp_path):
    path = duplicated_key_certificate(rank_three_cert, tmp_path / "c.json")
    with pytest.raises(CertificateError, match=re.escape(f"cannot read certificate {path}: duplicate key 'witness'")):
        read_certificate(path)


def deeply_nested_certificate(path):
    """A file of 200,000 nested JSON lists, past the JSON reader's depth."""
    path.write_text("[" * 200_000, encoding="utf-8")
    return path


def test_deeply_nested_file_is_certificate_error(tmp_path):
    path = deeply_nested_certificate(tmp_path / "c.json")
    with pytest.raises(CertificateError, match=re.escape(f"cannot read certificate {path}: maximum recursion depth")):
        read_certificate(path)


def relabelled_certificate(cert, r):
    """``cert`` (one rank-3 section) relabelled as rank r."""
    bad = clone(cert)
    bad["parameters"]["requested_r"] = [r]
    bad["sections"][0].update(r=r, n=2 * r)
    bad["overall"] = {str(2 * r): bad["sections"][0]["verdict"]}
    return bad


class TestUnrecomputableRank:
    def test_certifier_guard_is_named_divergence(self, rank_three_cert):
        # a --fields table whose only rank-3 survivor has h = 2: the
        # certifier's pass-one guard raises while the verifier recomputes
        doctored = parse_table_text(
            "hypeuler-fields v1\n# completeness: 2 1000\n# completeness: 3 1000\n"
            "# completeness: 4 1000\n2.2.5.1|2|5|2|1|1|5|-\n"
        )
        cert = clone(rank_three_cert)
        cert["dataset"], cert["axioms"] = _dataset_json(doctored), axioms(doctored.checksum)
        outcome = verify_certificate(cert, doctored)
        assert not outcome.ok
        assert outcome.divergence == (
            "section r=3: cannot recompute the evidence (SearchError: "
            "r=3, degree 2: pass-one survivors with h > 1: 2.2.5.1 (h=2))"
        )


class TestRankCeiling:
    """Ranks above ``MAX_RANK`` are refused before any of their evidence is
    computed, which would take time growing without bound in r."""

    def test_ceiling_is_the_largest_rank_certified(self, table):
        assert MAX_RANK == 100
        assert section_to_json(certify_section(MAX_RANK, table))["r"] == MAX_RANK

    def test_bound_exclusion_section_size_is_flat_in_rank(self, table):
        # no working enclosure is recorded, so only r, n and the cutoffs (1 at
        # rank 13, 0 from rank 14 on) differ: the section does not grow with r
        def text(r):
            section = section_to_json(certify_section(r, table))
            assert (section["r"], section["n"], section["kind"]) == (r, 2 * r, "bound-exclusion")
            return json.dumps({**section, "r": 0, "n": 0}, sort_keys=True)

        r13, r50, r100 = text(13), text(50), text(100)
        assert r50 == r100
        assert r13.replace('"disc_upper": 1,', '"disc_upper": 0,') == r50

    @pytest.mark.parametrize("r", [MAX_RANK + 1, 300, 10**6, 10**100], ids=["101", "300", "1e6", "1e100"])
    def test_relabelled_rank_fails_fast(self, rank_three_cert, table, r):
        bad = relabelled_certificate(rank_three_cert, r)
        start = time.perf_counter()
        outcome = verify_certificate(bad, table)
        assert time.perf_counter() - start < 0.1
        assert not outcome.ok
        assert outcome.divergence == (
            f"section r={r}: cannot recompute the evidence "
            f"(ValueError: rank {r} is above 100, the largest rank certified)"
        )

    @pytest.mark.parametrize("r", [MAX_RANK + 1, 1000])
    def test_certifying_above_limit_fails_fast(self, table, monkeypatch, r):
        def driver(r, table):
            raise AssertionError(f"rank {r} was certified")

        monkeypatch.setattr(certificate, "certify_section", driver)  # refused before any work
        start = time.perf_counter()
        cert, code = run_certification([r], table)
        assert time.perf_counter() - start < 0.1
        assert code == 1 and cert["status"] == "failed" and cert["sections"] == []
        assert cert["error"] == f"r={r}: ValueError: rank {r} is above 100, the largest rank certified"

    def test_certifying_past_digit_limit_fails(self, table):
        # the rank cannot be printed, so both messages name it by its bit length
        cert, code = run_certification([10**5000], table)
        assert code == 1 and cert["status"] == "failed" and cert["sections"] == []
        assert cert["error"] == (
            "r=an integer of 16610 bits: ValueError: rank an integer of 16610 bits is above 100, "
            "the largest rank certified"
        )

    def test_verifying_past_digit_limit_names_the_ceiling(self, rank_three_cert, table):
        bad = clone(rank_three_cert)  # not relabelled_certificate: n = 2r would have to be printed
        bad["parameters"]["requested_r"] = [10**5000]
        bad["sections"][0]["r"] = 10**5000
        outcome = verify_certificate(bad, table)
        assert not outcome.ok
        assert outcome.divergence == (
            "section r=an integer of 16610 bits: cannot recompute the evidence (ValueError: rank an "
            "integer of 16610 bits is above 100, the largest rank certified)"
        )


class TestGoldenBytes:
    """The certificate and report bytes of the headline ranks, of rank 2, of
    the default sweep, of ranks 13 to 15 and of every rank up to MAX_RANK at
    the default precision, as the CLI writes them for ``--n 6 --n 8 --n 10``,
    ``--n 4``, no flags, ``--r 13 --r 14 --r 15`` and ``--max-r 100``.  A
    deliberate change of the certificate or report format updates these
    hashes together with a CHANGES.md entry."""

    @pytest.mark.parametrize(
        ("ranks", "cert_sha256", "report_sha256"),
        [
            (
                [3, 4, 5],
                "ef75145272b01197105abfafb3734cd85ae4c0dac0c8f11bb2792b622dbea65f",
                "9c46600b8410af4cca40b96f697e1b7df083fa41bcdd17e359cce4f5e425fcbc",
            ),
            (
                [2],
                "61cef236eeb84cd243f0a8d4a686aa138ee98e03ec7a09316941be1465532491",
                "159cf5e4ae2716243cd8f8aab98ca90d369b070416ac1a696fe2a644137c9333",
            ),
            (
                list(range(3, 13)),
                "debb3237fdc5dbd0de6435c7e7abb9fe2e1bcb661754e5a921897cfe0a97785c",
                "1cd2bf2fab2f5f32458763e8eb9932b5830000ee6950da284f0435d66bab7f46",
            ),
            (
                [13, 14, 15],
                "2aa6ca215081df405f2e4e94ece34d4b7fe042706868561221f9c3086c136e78",
                "58ea92e988fd03d1499707ba8b9bcf78809469d7e90429385845f4faa43c3353",
            ),
            (
                list(range(3, MAX_RANK + 1)),
                "a4e1893bd9823930da3467eac34fa47bd3c9fb7feb2263f214832fa1ef696854",
                "5defb46be713781ba166923d50075c4ad697411b968a38b3595ae168ce024f0a",
            ),
        ],
    )
    def test_bytes_pinned(self, table, ranks, cert_sha256, report_sha256):
        cert, _ = run_certification(ranks, table)
        assert hashlib.sha256(serialize_certificate(cert).encode("utf-8")).hexdigest() == cert_sha256
        assert hashlib.sha256(render_report(cert).encode("utf-8")).hexdigest() == report_sha256


# strs of every control character, the two characters JSON escapes besides
# them, DEL, a lone surrogate, non-ASCII and astral characters, and any other
json_strs = st.text(
    st.sampled_from([*map(chr, range(32)), '"', "\\", "\x7f", "\ud800", "é", "\u2028", "\U0001f600"])
    | st.characters(),
    max_size=8,
)
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**80), 10**80) | json_strs,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(json_strs, children, max_size=4),
    max_leaves=30,
)


def json_dumps_text(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


class TestJsonText:
    """``serialize_certificate`` writes the bytes of ``json.dumps(cert,
    indent=2, sort_keys=True, ensure_ascii=False)`` and a newline, without
    the json module, and refuses every value a JSON tree of dicts with str
    keys, lists, strs, ints, bools and None does not hold."""

    @settings(max_examples=400, deadline=None)
    @given(json_trees)
    def test_trees_are_written_as_json_writes_them(self, tree):
        assert serialize_certificate(tree) == json_dumps_text(tree)

    @pytest.mark.parametrize(
        "ranks",
        [[3, 4, 5], list(range(3, 13)), [13, 14, 15], [2], list(range(3, MAX_RANK + 1))],
        ids=["headline", "sweep", "high_rank", "n4", "max_r_100"],
    )
    def test_certificates_are_written_as_json_writes_them(self, table, ranks):
        cert, _ = run_certification(ranks, table)
        assert serialize_certificate(cert) == json_dumps_text(cert)

    @pytest.mark.parametrize(
        ("value", "kind"),
        [
            (0.5, "float"),
            ((1, 2), "tuple"),
            (Fraction(1, 2), "Fraction"),
            ({1}, "set"),
            ({1: "a"}, "int"),
            ({True: "a"}, "bool"),
            ({None: "a"}, "NoneType"),
        ],
    )
    def test_other_values_and_keys_raise(self, theorem_cert, value, kind):
        bad = clone(theorem_cert)
        bad["sections"][0]["notes"].append(value)
        with pytest.raises(TypeError, match=rf" {kind}$"):
            serialize_certificate(bad)
        with pytest.raises(TypeError, match=rf" {kind}$"):
            serialize_certificate(value)


class TestLocalFactorMutations:
    def test_every_leaf_is_a_named_divergence(self, rank_three_cert, table):
        assert verify_certificate(rank_three_cert, table).ok
        mutated = 0
        for path, bad in local_factor_mutations(rank_three_cert):
            outcome = verify_certificate(bad, table)
            assert not outcome.ok, path
            where = "sections[0].local_factors" + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)
            assert outcome.divergence.startswith(f"{where} is "), (path, outcome.divergence)
            mutated += 1
        # 8 types: 46 coefficients, 8 values, 1 minimum
        assert mutated == 55

    def test_closed_form_off_prasad_is_named(self, rank_three_cert, table, monkeypatch):
        # the verifier re-proves each closed form through certify_section
        closed = field_path._closed_form
        target = local_factors.enumerate_maximal_types(3)[-1]  # q^3 - 1, now written q^3 + 1
        monkeypatch.setattr(field_path, "_closed_form", lambda t, r: ([(3, 1)], []) if t == target else closed(t, r))
        outcome = verify_certificate(rank_three_cert, table)
        assert not outcome.ok
        assert outcome.divergence == (
            f"section r=3: cannot recompute the evidence (LocalFactorError: {target.slug()} at rank 3: "
            "closed form differs from Prasad's order formula)"
        )


class TestReport:
    def test_report_contains_zeta_rows(self, theorem_cert):
        report = render_report(theorem_cert)
        assert "D=5 (degree 2, h=1): 1/30, 1/60, 67/630, 361/120, 412751/1650" in report
        assert "d=3 D=49: -1/21, 79/210, -7393/63" in report
        assert "n = 6: nonexistence certified" in report

    def test_inconclusive_report_flags_trivial_numerator(self, table):
        cert, _ = run_certification([2], table, precision_bits=128)
        report = render_report(cert)
        assert "unobstructed" in report and "trivial" in report

    def test_empty_certificate_renders_header_only(self, table):
        cert, _ = run_certification([], table)
        report = render_report(cert)
        assert report.startswith("hypeuler certification report")
        assert "(no sections)" in report


OUT, REPORT = "hypeuler_certificate.json", "hypeuler_report.txt"


class TestFlagParsing:
    """Each command line maps to the ranks certified and the two paths
    written, to exit 1 with its error under the usage line, or (None) to the
    help.  ``argparse`` defines the command line; the plain forms every real
    run uses are read without it, and read as it reads them."""

    PARSES = [
        (["--n=6"], ([3], OUT, REPORT)),
        (["--n", "8", "--n", "6"], ([4, 3], OUT, REPORT)),
        (["--r=3", "--out=c.json", "--report=r.txt"], ([3], "c.json", "r.txt")),
        (["--max", "4", "--rep", "r.txt"], ([3, 4], OUT, "r.txt")),
        (["--r", "3", "--o", "c.json", "--re=r.txt"], ([3], "c.json", "r.txt")),
        (["--max-r", "3", "--max-r", "4"], ([3, 4], OUT, REPORT)),
        (["--out", "-", "--r", "3"], ([3], "-", REPORT)),
        (["--r", "3", "--ou=--"], ([3], "--", REPORT)),
        (["--n", "-4"], "dimension must be an even integer >= 4, got -4"),
        (["--r=-3"], "rank must be at least 2, got -3"),
        (["--out"], "argument --out: expected one argument"),
        (["--out", "--r", "3"], "argument --out: expected one argument"),
        (["--out", "-x"], "argument --out: expected one argument"),
        (["--r", "x"], "argument --r: invalid int value: 'x'"),
        (["--r=--"], "argument --r: invalid int value: '--'"),
        (["--max-r", "4.0"], "argument --max-r: invalid int value: '4.0'"),
        (["--r", "1" * 5000], f"argument --r: invalid int value: '{'1' * 5000}'"),
        (["--r", "3", "stray"], "unrecognized arguments: stray"),
        (["--r", "3", "--", "--n", "6"], "unrecognized arguments: -- --n 6"),
        (["--=x"], "ambiguous option: --=x could match --help, --n, --r, --fields, --out, --report, --max-r, "
                   "--verify"),
        (["--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
        (["-h"], None),
        (["-hh"], None),
        (["--r", "3", "--he", "--r", "x"], None),
    ]

    @pytest.mark.parametrize("argv, outcome", PARSES, ids=[" ".join(argv)[:40] for argv, _ in PARSES])
    def test_parse(self, argv, outcome, tmp_path, monkeypatch, capsys):
        requested = []

        def certify(ranks, table):
            requested.append(ranks)
            return run_certification([], table)

        monkeypatch.setattr(cli, "run_certification", certify)
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        if isinstance(outcome, tuple):
            ranks, out, report = outcome
            assert code == 0 and requested == [ranks]
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted([out, report])
            return
        assert requested == [] and list(tmp_path.iterdir()) == []
        if outcome is None:
            assert code == 0 and captured.out.startswith("usage: hypeuler [-h] [--n N] [--r R]")
            assert "show this help message and exit" in captured.out and captured.err == ""
        else:
            assert code == 1 and captured.out == ""
            usage, error = captured.err.split("\nerror: ")
            assert usage.startswith("usage: hypeuler [-h]") and error == f"{outcome}\n"

    FAST = [
        ["--n", "6", "--n", "8", "--n", "10", "--out", "c.json", "--report", "r.txt"],
        ["--out", "c.json", "--report", "r.txt"],
        ["--r", "13", "--r", "14", "--r", "15", "--out", "c.json", "--report", "r.txt"],
        ["--verify", "c.json"],
        ["--n=6"],
        ["--r=-3"],
        ["--r", "1_0"],
        ["--fields", "t.txt", "--verify=c.json"],
        ["--out=--"],
        ["--max-r", "3", "--max-r", "4"],
        [],
    ]

    @pytest.mark.parametrize("argv", FAST, ids=[" ".join(argv)[:40] for argv in FAST])
    def test_plain_forms_read_as_argparse_reads_them(self, argv, monkeypatch):
        expected = vars(cli._parser().parse_args(argv))
        monkeypatch.setattr(cli, "_parser", None)  # the plain forms build no parser
        assert cli._parse(argv) == expected


class TestCliProcess:
    def test_theorem_dimensions_exit_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["--n", "6", "--n", "8", "--n", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "n = 6: nonexistence certified" in out
        assert Path("hypeuler_certificate.json").exists()
        assert Path("hypeuler_report.txt").exists()

    def test_dimension_four_exit_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--n", "4"]) == 2

    def test_last_unobstructed_candidate_exit_two(self, table, tmp_path, monkeypatch, capsys):
        # every bundled candidate at r = 3 is obstructed; patched, the last
        # one is not, so the section is inconclusive
        last = search_bounds.enumerate_candidates(3, table).records[-1]
        obstruction = search_bounds.reciprocal_integer_obstruction

        def last_unobstructed(datum):
            verdict = obstruction(datum)
            return verdict._replace(witness=None) if datum.field == last else verdict

        monkeypatch.setattr(search_bounds, "reciprocal_integer_obstruction", last_unobstructed)
        section = certify_section(3, table)
        assert [v.conclusion for v in section.verdicts][-2:] == ["obstructed", "unobstructed"]
        assert section.verdict == "inconclusive"
        monkeypatch.chdir(tmp_path)
        assert main(["--n", "6"]) == 2
        assert "n = 6: inconclusive" in capsys.readouterr().out

    def test_odd_dimension_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--n", "7"]) == 1
        assert "even integer" in capsys.readouterr().err

    def test_n_and_r_mutually_exclusive(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--n", "6", "--r", "3"]) == 1

    def test_verify_round_trip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "3", "--out", "c.json", "--report", "r.txt"]) == 0
        assert main(["--verify", "c.json"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_detects_tamper(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "3", "--out", "c.json", "--report", "r.txt"]) == 0
        cert = read_certificate("c.json")
        cert["sections"][0]["verdicts"][0]["zeta_values"][0] = "1/31"
        Path("c.json").write_text(json.dumps(cert), encoding="utf-8")
        assert main(["--verify", "c.json"]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_verify_malformed_exits_one(self, theorem_cert, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        bad = clone(theorem_cert)
        del bad["sections"][1]["verdicts"][0]["euler"]
        Path("c.json").write_text(json.dumps(bad), encoding="utf-8")
        assert main(["--verify", "c.json"]) == 1
        assert "FAILED: sections[1].verdicts[0] keys: missing ['euler'], unexpected []" in capsys.readouterr().err

    def test_verify_oversized_integer_exits_one(self, rank_three_cert, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        oversized_integer_certificate(rank_three_cert, tmp_path / "c.json")
        assert main(["--verify", "c.json"]) == 1
        assert "cannot read certificate c.json" in capsys.readouterr().err

    def test_verify_duplicated_key_exits_one(self, rank_three_cert, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        duplicated_key_certificate(rank_three_cert, tmp_path / "c.json")
        assert main(["--verify", "c.json"]) == 1
        assert capsys.readouterr() == ("", "error: cannot read certificate c.json: duplicate key 'witness'\n")

    def test_verify_deeply_nested_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        deeply_nested_certificate(tmp_path / "c.json")
        assert main(["--verify", "c.json"]) == 1
        assert "error: cannot read certificate c.json: maximum recursion depth" in capsys.readouterr().err

    def test_verify_unrecomputable_rank_exits_one(self, rank_three_cert, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(serialize_certificate(relabelled_certificate(rank_three_cert, MAX_RANK + 1)), encoding="utf-8")
        run = run_hypeuler("--verify", str(path))
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        assert "FAILED: section r=101: cannot recompute the evidence (ValueError: " in run.stderr

    @pytest.mark.parametrize("flag, value", [("--n", "6"), ("--r", "3")])
    def test_max_r_with_explicit_ranks_usage_error(self, flag, value, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([flag, value, "--max-r", "20"]) == 1
        assert "error: --max-r cannot be combined with --n or --r" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["2", "101", "1000"])
    def test_max_r_out_of_range_usage_error(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--max-r", value]) == 1
        assert f"error: --max-r must be from 3 to {MAX_RANK}, the largest rank certified" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_help_shows_defaults(self, capsys):
        assert main(["-h"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "(default 12; only without --n or --r)" in text
        assert "certificate output path (default hypeuler_certificate.json)" in text
        assert "report output path (default hypeuler_report.txt)" in text

    def test_verify_missing_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--verify", "nope.json"]) == 1

    CERTIFY_ONLY = {"--n": "6", "--r": "3", "--max-r": "5", "--out": "x.json", "--report": "x.txt"}

    @pytest.mark.parametrize("flag", CERTIFY_ONLY)
    def test_verify_with_rank_usage_error(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "13", "--out", "c.json", "--report", "r.txt"]) == 0
        capsys.readouterr()
        assert main(["--verify", "c.json", flag, self.CERTIFY_ONLY[flag]]) == 1
        captured = capsys.readouterr()
        assert (
            "error: --verify cannot be combined with --n, --r, --max-r, --out or --report"
            in captured.err
        )
        assert "verified" not in captured.out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "r.txt"]

    def test_verify_with_fields(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "13", "--out", "c.json", "--report", "r.txt"]) == 0
        assert main(["--verify", "c.json", "--fields", str(bundled_table_path())]) == 0
        assert "certificate verified" in capsys.readouterr().out

    def test_unwritable_out_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "missing" / "c.json"
        assert main(["--r", "13", "--out", str(out), "--report", "r.txt"]) == 1
        assert f"error: cannot write {out}: No such file or directory" in capsys.readouterr().err
        assert not Path("r.txt").exists()

    def test_unwritable_report_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "13", "--out", "c.json", "--report", str(tmp_path)]) == 1
        assert f"error: cannot write {tmp_path}: Is a directory" in capsys.readouterr().err
        assert main(["--verify", "c.json"]) == 0

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("mode", ["certify", "verify", "help"])
    def test_unwritable_stdout_exits_one(self, mode, tmp_path):
        # a full standard output is named like an unwritable --out, after any files are written
        cert = str(tmp_path / "c.json")
        certify = ("--r", "13", "--out", cert, "--report", str(tmp_path / "r.txt"))
        if mode == "verify":
            assert run_hypeuler(*certify).returncode == 0
        args = {"certify": certify, "verify": ("--verify", cert), "help": ("-h",)}[mode]
        with open("/dev/full", "w") as full:
            run = run_hypeuler(*args, stdout=full)
        assert run.returncode == 1
        assert run.stderr == "error: cannot write standard output: No space left on device\n"
        if mode != "help":
            assert read_certificate(cert)["status"] == "complete"

    def test_closed_stdout_pipe_exits_one(self, tmp_path):
        # the reader of the pipe is gone before the first line is written
        cert = str(tmp_path / "c.json")
        with subprocess.Popen([sys.executable, "-m", "hypeuler", "--r", "13", "--out", cert,
                               "--report", str(tmp_path / "r.txt")], env=hypeuler_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            proc.stdout.close()
            stderr = proc.stderr.read()
        assert proc.returncode == 1
        assert stderr == "error: cannot write standard output: Broken pipe\n"
        assert read_certificate(cert)["status"] == "complete"

    def test_symlink_loop_out_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("loop").symlink_to("loop")
        assert main(["--r", "13", "--out", "loop", "--report", "r.txt"]) == 1
        assert "error: cannot write loop: Too many levels of symbolic links" in capsys.readouterr().err

    def test_byte_identical_across_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "3", "--out", "a.json", "--report", "ra.txt"]) == 0
        assert main(["--r", "3", "--out", "b.json", "--report", "rb.txt"]) == 0
        assert Path("a.json").read_bytes() == Path("b.json").read_bytes()
        assert Path("ra.txt").read_bytes() == Path("rb.txt").read_bytes()

    @pytest.mark.parametrize("r", (28, 29, 30))
    def test_ranks_past_the_old_ceiling_certify(self, r, tmp_path, monkeypatch, capsys):
        # a section records no working enclosure, so no number in it nears
        # the int-to-str digit limit at any rank up to MAX_RANK
        monkeypatch.chdir(tmp_path)
        assert main(["--r", str(r), "--out", "c.json", "--report", "r.txt"]) == 0
        cert = read_certificate("c.json")
        assert cert["status"] == "complete" and [s["r"] for s in cert["sections"]] == [r]
        assert f"n = {2 * r}: nonexistence certified" in capsys.readouterr().out
        assert main(["--verify", "c.json"]) == 0

    def test_internal_error_fails_inside_envelope(self, tmp_path, monkeypatch, capsys):
        # an error at rank 4: a partial certificate with rank 3 and status
        # failed, a report and exit 1, not a traceback
        def driver(r, table):
            if r == 4:
                raise ValueError("injected")
            return certify_section(r, table)

        monkeypatch.setattr(certificate, "certify_section", driver)
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "3", "--r", "4", "--out", "c.json", "--report", "r.txt"]) == 1
        cert = read_certificate("c.json")
        assert cert["status"] == "failed" and [s["r"] for s in cert["sections"]] == [3]
        assert cert["error"] == "r=4: ValueError: injected"
        assert "error: r=4: ValueError: injected" in Path("r.txt").read_text(encoding="utf-8")
        assert "error: r=4: ValueError: injected" in capsys.readouterr().err

    def test_max_r_100_certifies_and_verifies(self, tmp_path):
        c, r = str(tmp_path / "c.json"), str(tmp_path / "r.txt")
        run = run_hypeuler("--max-r", "100", "--out", c, "--report", r)
        assert run.returncode == 0, run.stderr
        assert "n = 200: nonexistence certified" in run.stdout
        run = run_hypeuler("--verify", c)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("certificate verified: ")

    @pytest.mark.parametrize("report", ["same.txt", "./same.txt", "sub/../same.txt", "link/same.txt"])
    def test_out_and_report_same_file_usage_error(self, report, tmp_path, monkeypatch, capsys):
        # the report would overwrite the certificate, which then fails to verify
        monkeypatch.chdir(tmp_path)
        Path("sub").mkdir()
        Path("link").symlink_to(tmp_path)
        assert main(["--r", "13", "--out", "same.txt", "--report", report]) == 1
        assert "error: --out and --report name the same file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "sub"]

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    @pytest.mark.parametrize("target", ["fields.txt", "fields.txt.sha256", "link/fields.txt", "link/fields.txt.sha256"])
    def test_output_naming_the_table_usage_error(self, flag, target, tmp_path, monkeypatch, capsys):
        # writing over the table or its checksum would break every later run
        monkeypatch.chdir(tmp_path)
        Path("link").symlink_to(tmp_path)
        table = bundled_table_path()
        files = {"fields.txt": table.read_bytes(), "fields.txt.sha256": Path(f"{table}.sha256").read_bytes()}
        for name, data in files.items():
            Path(name).write_bytes(data)
        other = "--report" if flag == "--out" else "--out"
        assert main(["--r", "13", "--fields", "fields.txt", flag, target, other, "other.txt"]) == 1
        assert f"error: {flag} names the field table or its checksum file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fields.txt", "fields.txt.sha256", "link"]
        assert all(Path(name).read_bytes() == data for name, data in files.items())

    @pytest.mark.parametrize("suffix", ["", ".sha256"])
    def test_output_naming_the_bundled_table_usage_error(self, suffix, tmp_path, monkeypatch, capsys):
        # without --fields the bundled table is read; a stand-in keeps the real one out of reach
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "bundled_table_path", lambda: tmp_path / "fields_v1.txt")
        assert main(["--r", "13", "--report", f"fields_v1.txt{suffix}"]) == 1
        assert "error: --report names the field table or its checksum file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_precision_flag_is_gone(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "3", "--precision", "128"]) == 1
        assert "unrecognized arguments: --precision 128" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_fields_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "3", "--fields", "missing.txt"]) == 1

    @pytest.mark.parametrize("case", ["directory", "not-utf8", "empty-checksum"])
    def test_unreadable_fields_exits_one(self, case, tmp_path):
        fields = tmp_path / "fields.txt"
        if case == "directory":
            fields.mkdir()
        else:
            fields.write_bytes(b"\xff\xfe\n" if case == "not-utf8" else bundled_table_path().read_bytes())
            (tmp_path / "fields.txt.sha256").write_text("" if case == "empty-checksum" else "0" * 64 + "\n")
        run = run_hypeuler("--r", "3", "--fields", str(fields), "--out", str(tmp_path / "c.json"),
                           "--report", str(tmp_path / "r.txt"))
        assert run.returncode == 1
        assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr
        assert not (tmp_path / "c.json").exists()

    def test_malformed_fields_row_exits_one(self, tmp_path):
        # a table with a valid checksum whose row does not parse
        text = bundled_table_path().read_text(encoding="utf-8")
        assert text.count("\n2.2.5.1|2|5|1|1|1|5|-\n") == 1
        text = text.replace("\n2.2.5.1|2|5|1|1|1|5|-\n", "\n2.2.5.1|2|5|1|1|1|x5|-\n")
        fields = tmp_path / "fields.txt"
        fields.write_text(text, encoding="utf-8")
        (tmp_path / "fields.txt.sha256").write_text(checksum_of_text(text) + "\n", encoding="utf-8")
        run = run_hypeuler("--r", "3", "--fields", str(fields), "--out", str(tmp_path / "c.json"),
                           "--report", str(tmp_path / "r.txt"))
        assert run.returncode == 1
        assert re.fullmatch(r"error: line \d+: malformed conductor 'x5'\n", run.stderr)
        assert not (tmp_path / "c.json").exists()

    def test_negative_conductor_exits_one_before_any_rank(self, tmp_path, monkeypatch, capsys):
        # a cyclic cubic row with conductor -7 and a valid checksum: refused by
        # the loader, not at r = 3 by the character code
        text = bundled_table_path().read_text(encoding="utf-8")
        assert text.count("\n3.3.49.1|3|49|1|1|1|7|3:1:3\n") == 1
        text = text.replace("\n3.3.49.1|3|49|1|1|1|7|3:1:3\n", "\n3.3.49.1|3|49|1|1|1|-7|3:1:3\n")
        fields = tmp_path / "fields.txt"
        fields.write_text(text, encoding="utf-8")
        (tmp_path / "fields.txt.sha256").write_text(checksum_of_text(text) + "\n", encoding="utf-8")

        def driver(r, table):
            raise AssertionError(f"rank {r} ran")

        monkeypatch.setattr(certificate, "certify_section", driver)
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "3", "--fields", str(fields)]) == 1
        assert capsys.readouterr().err == "error: 3.3.49.1: conductor -7 must be positive\n"
        assert not (tmp_path / "hypeuler_certificate.json").exists()
