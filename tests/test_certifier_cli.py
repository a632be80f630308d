import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hypeuler.certificate import (
    DEFAULT_PRECISION_BITS,
    MAX_SERIALIZABLE_RANK,
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
from hypeuler.cli import build_parser, main
from hypeuler.exact_arith import format_rational, parse_rational
from hypeuler.field_tables import bundled_table_path, load_table, parse_table_text
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


def run_hypeuler(*args):
    """``python -m hypeuler`` in a fresh process on this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "hypeuler", *args], env=env, capture_output=True, text=True)


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

    def test_internal_error_yields_partial_failed_cert(self, table):
        cert, code = run_certification([1], table)  # rank 1 is out of contract
        assert code == 1
        assert cert["status"] == "failed"
        assert "r=1" in cert["error"]


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
        assert "j=3" in outcome.divergence and "2.2.5.1" in outcome.divergence

    def test_nonprime_witness_rejected(self, theorem_cert, table):
        bad = clone(theorem_cert)
        bad["sections"][0]["verdicts"][0]["witness"] = 9
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and "not an odd prime" in outcome.divergence

    def test_wrong_witness_prime_rejected(self, theorem_cert, table):
        bad = clone(theorem_cert)
        bad["sections"][0]["verdicts"][0]["witness"] = 71  # prime, but not a divisor
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and "divide" in outcome.divergence

    def test_bound_tamper_named(self, theorem_cert, table):
        bad = clone(theorem_cert)
        bad["sections"][0]["bounds"][0]["pass_one"]["disc_upper"] = 29
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and "cutoff" in outcome.divergence

    @pytest.mark.parametrize(
        ("verdict", "witness", "named"),
        [
            (1, 361, "witness 361 is not the smallest prime factor of 3971: 11 divides it"),  # 19^2
            (1, 209, "witness 209 is not the smallest prime factor"),  # 11 * 19
            (1, 19, "witness 19 is not the smallest prime factor of 3971: 11 divides it"),
            (4, 5791, "witness 5791 is not the smallest prime factor of 237431: 41 divides it"),
            (1, 13, "witness 13 is not an odd prime factor of 3971: it does not divide it"),
            (1, 1, "witness 1 is not an integer > 2"),
            (1, -11, "witness -11 is not an integer > 2"),
            (1, "11", "witness '11' is not an integer > 2"),
            (1, True, "witness True is not an integer > 2"),
            (1, 11.0, "witness 11.0 is not an integer > 2"),
        ],
    )
    def test_wrong_witness_named(self, theorem_cert, table, verdict, witness, named):
        # 2.2.8.1 at r = 3 has odd numerator 3971 = 11 * 19^2, 2.2.17.1 has 237431 = 41 * 5791
        bad = clone(theorem_cert)
        bad["sections"][0]["verdicts"][verdict]["witness"] = witness
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and named in outcome.divergence

    def test_stripped_dual_path_rejected(self, theorem_cert, table):
        bad = clone(theorem_cert)
        for sec in bad["sections"]:
            for v in sec["verdicts"]:
                v["dual_path"] = None
        outcome = verify_certificate(bad, table)
        assert not outcome.ok
        assert outcome.divergence == "section r=3: 2.2.5.1: dual-path record is missing"

    def test_rank_two_dual_path_rejected(self, theorem_cert, table):
        cert, _ = run_certification([2], table, precision_bits=128)
        assert verify_certificate(cert, table).ok
        cert["sections"][0]["verdicts"][0]["dual_path"] = theorem_cert["sections"][0]["verdicts"][0]["dual_path"]
        outcome = verify_certificate(cert, table)
        assert not outcome.ok and "dual-path record is unexpected at rank 2" in outcome.divergence

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
        assert outcome.divergence.startswith("section r=3: evidence missing")

    def test_missing_key_is_named_divergence(self, theorem_cert, table):
        bad = clone(theorem_cert)
        del bad["sections"][0]["verdicts"][0]["euler"]
        outcome = verify_certificate(bad, table)
        assert not outcome.ok
        assert outcome.divergence.startswith("section r=3: malformed")

    @pytest.mark.parametrize(
        ("path", "value", "named"),
        [
            (("axioms", 0, "statement"), "every field is small", "axioms"),
            (("axioms",), [], "axioms"),
            (("dataset", "source"), "elsewhere", "dataset source"),
            (("dataset", "completeness", "2"), 5000, "dataset completeness"),
            (("dataset", "completeness"), None, "dataset completeness"),
            (("sections", 0, "verdicts", 0, "euler", "two_exponent"), 1, "two_exponent"),
            (("sections", 0, "verdicts", 0, "euler", "two_exponent"), "11", "two_exponent"),
            (("sections", 0, "verdicts", 0, "dual_path", "enclosure"), ["0", "1" + "0" * 100], "relative width"),
            (("sections", 0, "verdicts", 0, "dual_path", "relative_width"), "1", "relative_width"),
            (("sections", 0, "verdicts", 0, "dual_path", "relative_width"), "0", "relative_width"),
            (("sections", 0, "verdicts", 0, "dual_path", "relative_width"), "-1/2", "relative_width"),
            (("sections", 0, "verdicts", 0, "dual_path", "contains_exact"), False, "contains_exact"),
            (("parameters", "precision_bits"), "128", "precision_bits"),
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
        assert not outcome.ok and "dataset has unexpected keys ['note']" in outcome.divergence

    def test_local_factor_tamper_rejected(self, theorem_cert, table):
        bad = clone(theorem_cert)
        bad["sections"][0]["local_factors"]["entries"][0]["polynomial"][0] = "2"
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and "polynomial" in outcome.divergence


@pytest.fixture(scope="module")
def rank_three_cert(table):
    cert, code = run_certification([3], table)
    assert code == 0
    return cert


def local_factor_mutations(cert):
    """One perturbed copy of the certificate per leaf of the rank-3
    local-factor block, with the leaf's path."""
    lf = cert["sections"][0]["local_factors"]
    paths = [("minimum_at_q2",)] + [("calibration", slug) for slug in lf["calibration"]]
    for k, e in enumerate(lf["entries"]):
        paths += [("entries", k, "polynomial", i) for i in range(len(e["polynomial"]))]
        paths += [("entries", k, "value_at_q2"), ("entries", k, "shifted_nonnegative")]
    for path in paths:
        bad = clone(cert)
        node = bad["sections"][0]["local_factors"]
        for key in path[:-1]:
            node = node[key]
        old = node[path[-1]]
        if isinstance(old, bool):
            node[path[-1]] = not old
        elif path[0] == "calibration":
            node[path[-1]] = format_rational(2 * parse_rational(old))
        else:
            node[path[-1]] = str(int(old) + 1)
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

    def test_below_floor_precision_rejected(self, rank_three_cert, table):
        # the width bound would grow to 2^7 and accept relative widths of 1/2
        bad = clone(rank_three_cert)
        bad["parameters"]["precision_bits"] = 1
        for v in bad["sections"][0]["verdicts"]:
            v["dual_path"]["relative_width"] = "1/2"
        outcome = verify_certificate(bad, table)
        assert not outcome.ok
        assert outcome.divergence == "parameters.precision_bits 1 is below the floor of 64 bits"

    def test_floor_precision_verifies(self, rank_three_cert, table):
        cert = clone(rank_three_cert)
        cert["parameters"]["precision_bits"] = MIN_PRECISION_BITS
        assert verify_certificate(cert, table).ok
        cert["parameters"]["precision_bits"] = MIN_PRECISION_BITS - 1
        assert "below the floor" in verify_certificate(cert, table).divergence


class TestTopLevelKeys:
    """The certificate's own keys, its tool and its parameters are pinned;
    only the tool's version string is free."""

    @pytest.mark.parametrize(
        ("mutate", "named"),
        [
            (lambda c: c["tool"].update(version=2), "tool.version 2 is not a string"),
            (lambda c: c["tool"].update(name="other"), "is not hypeuler"),
            (lambda c: c.pop("tool"), "certificate keys: missing ['tool'], unexpected []"),
            (lambda c: c.update(note="extra"), "certificate keys: missing [], unexpected ['note']"),
            (lambda c: c.update(error="r=3: none"), "certificate keys: missing [], unexpected ['error']"),
            (
                lambda c: c["parameters"].update(seed=1),
                "parameters has keys ['precision_bits', 'requested_r', 'seed']",
            ),
            (
                lambda c: c["parameters"].update(requested_r=[3, 3]),
                "requested ranks [3, 3] are not strictly increasing",
            ),
        ],
        ids=[
            "changed-version", "changed-name", "deleted-tool", "extra-key", "error-key", "extra-parameter",
            "duplicate-rank",
        ],
    )
    def test_mutation_is_named_divergence(self, rank_three_cert, table, mutate, named):
        bad = clone(rank_three_cert)
        mutate(bad)
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and named in outcome.divergence

    def test_version_string_is_unpinned(self, rank_three_cert, table):
        cert = clone(rank_three_cert)
        cert["tool"]["version"] = "0.0.1"
        assert verify_certificate(cert, table).ok

    def test_repeated_rank_recorded_once(self, rank_three_cert, table):
        cert, code = run_certification([3, 3], table)
        assert code == 0 and cert["parameters"]["requested_r"] == [3]
        assert serialize_certificate(cert) == serialize_certificate(rank_three_cert)


def first_verdict(cert):
    return cert["sections"][0]["verdicts"][0]


def edit_upper_numerator(cert, k):
    """Add k to the numerator text of the first dual-path enclosure's upper end."""
    enclosure = first_verdict(cert)["dual_path"]["enclosure"]
    num, den = enclosure[1].split("/")
    enclosure[1] = f"{int(num) + k}/{den}"


class TestVerdictShape:
    """A field verdict's keys, integers and rationals are pinned to what
    ``section_to_json`` writes, and recomputed evidence compares by type."""

    @pytest.mark.parametrize(
        ("mutate", "named"),
        [
            (
                lambda c: first_verdict(c).update(note=1),
                "section r=3: malformed verdict 2.2.5.1: keys missing [], unexpected ['note']",
            ),
            (
                lambda c: first_verdict(c)["euler"].update(note=1),
                "section r=3: malformed verdict 2.2.5.1: euler keys missing [], unexpected ['note']",
            ),
            (
                lambda c: first_verdict(c)["dual_path"].pop("contains_exact"),
                "section r=3: malformed verdict 2.2.5.1: dual_path keys missing ['contains_exact'], unexpected []",
            ),
            (lambda c: first_verdict(c).update(h=1.0), "section r=3: 2.2.5.1: h 1.0 is not an integer"),
            (lambda c: first_verdict(c).update(disc=5.0), "section r=3: 2.2.5.1: disc 5.0 is not an integer"),
            (lambda c: first_verdict(c)["euler"].update(index_divisor=4.0), "index_divisor 4.0 is not an integer"),
            (lambda c: first_verdict(c)["zeta_values"].__setitem__(0, " 1/30 "), "zeta value ' 1/30 ' is not"),
            (lambda c: first_verdict(c)["zeta_values"].__setitem__(0, "2/60"), "zeta value '2/60' is not"),
            (lambda c: first_verdict(c)["dual_path"].update(relative_width="1e-60"), "relative_width '1e-60' is not"),
            (lambda c: edit_upper_numerator(c, 1), "enclosure end"),
            (
                lambda c: c["sections"][0]["candidates"][0].update(disc=5.0),
                "section r=3: candidates differs from the recomputed evidence",
            ),
            (lambda c: c["sections"][0].update(r=3.0), "section r=3: r differs from the recomputed evidence"),
            (lambda c: c["dataset"]["completeness"].update({"2": 1000.0}), "dataset completeness"),
        ],
        ids=[
            "verdict-key", "euler-key", "dual-path-key", "float-h", "float-disc", "float-index-divisor",
            "padded-rational", "unreduced-rational", "float-text-rational", "unreduced-enclosure-end",
            "float-candidate-disc", "float-rank", "float-completeness",
        ],
    )
    def test_mutation_is_named_divergence(self, rank_three_cert, table, mutate, named):
        bad = clone(rank_three_cert)
        mutate(bad)
        outcome = verify_certificate(bad, table)
        assert not outcome.ok and named in outcome.divergence

    def test_widened_reduced_enclosure_is_unpinned(self, rank_three_cert, table):
        # a reduced dyadic end has an odd numerator: +2 keeps it reduced and the enclosure valid
        cert = clone(rank_three_cert)
        edit_upper_numerator(cert, 2)
        assert verify_certificate(cert, table).ok


def oversized_precision_certificate(cert, path):
    """``cert`` written with a 5,000-digit precision_bits, past the JSON
    reader's integer-digit limit."""
    text = serialize_certificate(cert)
    assert '"precision_bits": 192' in text
    path.write_text(text.replace('"precision_bits": 192', '"precision_bits": 1' + "0" * 4999), encoding="utf-8")
    return path


def test_oversized_integer_is_certificate_error(rank_three_cert, table, tmp_path):
    path = oversized_precision_certificate(rank_three_cert, tmp_path / "c.json")
    with pytest.raises(CertificateError, match="cannot read certificate"):
        verify_certificate(path, table)


def relabelled_certificate(cert, r):
    """``cert`` (one rank-3 section) relabelled as rank r."""
    bad = clone(cert)
    bad["parameters"]["requested_r"] = [r]
    bad["sections"][0].update(r=r, n=2 * r)
    bad["overall"] = {str(2 * r): bad["sections"][0]["verdict"]}
    return bad


def rank_28_certificate(cert):
    """A certificate of rank 28, whose evidence the certifier cannot
    serialize: value_at_degree_five passes the int-to-str digit limit."""
    return relabelled_certificate(cert, 28)


class TestUnrecomputableRank:
    def test_digit_limit_is_named_divergence(self, rank_three_cert, table):
        outcome = verify_certificate(rank_28_certificate(rank_three_cert), table)
        assert not outcome.ok
        assert outcome.divergence.startswith("section r=28: cannot recompute the evidence (ValueError: ")

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
            "section r=3: cannot recompute the evidence (PassOneClassNumberError: "
            "r=3, degree 2: pass-one survivors with h > 1: 2.2.5.1 (h=2))"
        )


class TestSerializableRankLimit:
    """Ranks above ``MAX_SERIALIZABLE_RANK`` are refused before any of their
    evidence is computed, which would take time growing without bound in r."""

    def test_limit_is_the_digit_limit(self, table):
        assert MAX_SERIALIZABLE_RANK == 27
        assert section_to_json(certify_section(27, table, None))["r"] == 27
        with pytest.raises(ValueError, match="Exceeds the limit"):
            section_to_json(certify_section(28, table, None))

    @pytest.mark.parametrize("r", [300, 10**6, 10**100], ids=["300", "1e6", "1e100"])
    def test_relabelled_rank_fails_fast(self, rank_three_cert, table, r):
        bad = relabelled_certificate(rank_three_cert, r)
        start = time.perf_counter()
        outcome = verify_certificate(bad, table)
        assert time.perf_counter() - start < 0.1
        assert not outcome.ok
        assert outcome.divergence == (
            f"section r={r}: cannot recompute the evidence "
            f"(ValueError: rank {r} is above 27, the largest rank whose section serializes)"
        )

    def test_certifying_above_limit_fails_fast(self, table):
        start = time.perf_counter()
        cert, code = run_certification([1000], table)
        assert time.perf_counter() - start < 0.1
        assert code == 1 and cert["status"] == "failed" and cert["sections"] == []
        assert cert["error"] == "r=1000: ValueError: rank 1000 is above 27, the largest rank whose section serializes"


class TestDualPathWidth:
    """``relative_width`` is capped by the recorded enclosure's own width;
    its lower side and the precision at ranks without a dual path are the
    documented unpinned slack."""

    def test_width_above_recorded_enclosure_rejected(self, rank_three_cert, table):
        # honest value about 2^-200; the cap of the recorded enclosure is about 2^-128
        bad = clone(rank_three_cert)
        bad["sections"][0]["verdicts"][0]["dual_path"]["relative_width"] = format_rational(Fraction(1, 2**120))
        outcome = verify_certificate(bad, table)
        assert not outcome.ok
        assert outcome.divergence.startswith(
            "section r=3: 2.2.5.1: relative_width '1/1329227995784915872903807060280344576' is not a "
            "positive rational at most the recorded enclosure's rounded relative width"
        )

    def test_width_below_recorded_enclosure_is_unpinned(self, rank_three_cert, table):
        cert = clone(rank_three_cert)
        cert["sections"][0]["verdicts"][0]["dual_path"]["relative_width"] = format_rational(Fraction(1, 2**400))
        assert verify_certificate(cert, table).ok

    def test_precision_without_dual_path_is_unpinned(self, table):
        cert, code = run_certification([13], table, precision_bits=100000)
        assert code == 0 and cert["parameters"]["precision_bits"] == 100000
        assert verify_certificate(cert, table).ok


class TestGoldenBytes:
    """The certificate and report bytes of the headline ranks, of rank 2, of
    the default sweep and of ranks 13 to 15 at the default precision, as
    the CLI writes them for ``--n 6 --n 8 --n 10``, ``--n 4``, no flags and
    ``--r 13 --r 14 --r 15``.  A deliberate change of the certificate or
    report format updates these hashes together with a CHANGES.md entry."""

    @pytest.mark.parametrize(
        ("ranks", "cert_sha256", "report_sha256"),
        [
            (
                [3, 4, 5],
                "73854746393c4550cfb7e7d4ac1b9cc6060894d1721e5796d16e752184cb959f",
                "9c46600b8410af4cca40b96f697e1b7df083fa41bcdd17e359cce4f5e425fcbc",
            ),
            (
                [2],
                "ae37be327be1514ab9ee95d82b1a88687c466516d0f34027d7d2bed311dbb487",
                "159cf5e4ae2716243cd8f8aab98ca90d369b070416ac1a696fe2a644137c9333",
            ),
            (
                list(range(3, 13)),
                "1928a46950d106008d0e86ca2141e6884ffc10956c04736dbea2e64213d38cf9",
                "1cd2bf2fab2f5f32458763e8eb9932b5830000ee6950da284f0435d66bab7f46",
            ),
            (
                [13, 14, 15],
                "ee1c01f57a7ee042b6e33f643bedf986e4a1e23dcb14ba4bbb77ee8e82c72f82",
                "58ea92e988fd03d1499707ba8b9bcf78809469d7e90429385845f4faa43c3353",
            ),
        ],
    )
    def test_bytes_pinned(self, table, ranks, cert_sha256, report_sha256):
        cert, _ = run_certification(ranks, table)
        assert hashlib.sha256(serialize_certificate(cert).encode("utf-8")).hexdigest() == cert_sha256
        assert hashlib.sha256(render_report(cert).encode("utf-8")).hexdigest() == report_sha256


class TestLocalFactorMutations:
    def test_every_leaf_is_a_named_divergence(self, rank_three_cert, table):
        assert verify_certificate(rank_three_cert, table).ok
        mutated = 0
        for path, bad in local_factor_mutations(rank_three_cert):
            outcome = verify_certificate(bad, table)
            assert not outcome.ok, path
            assert outcome.divergence.startswith("section r=3: "), (path, outcome.divergence)
            assert "local_factors" in outcome.divergence or "polynomial mismatch" in outcome.divergence, path
            mutated += 1
        # 8 types: 46 coefficients, 8 values, 8 flags, 8 calibrations, 1 minimum
        assert mutated == 71


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


class TestCliProcess:
    def test_theorem_dimensions_exit_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["--n", "6", "--n", "8", "--n", "10", "--precision", "128"])
        assert code == 0
        out = capsys.readouterr().out
        assert "n = 6: nonexistence certified" in out
        assert Path("hypeuler_certificate.json").exists()
        assert Path("hypeuler_report.txt").exists()

    def test_dimension_four_exit_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--n", "4", "--precision", "128"]) == 2

    def test_odd_dimension_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--n", "7"]) == 1
        assert "even integer" in capsys.readouterr().err

    def test_n_and_r_mutually_exclusive(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--n", "6", "--r", "3"]) == 1

    @pytest.mark.parametrize("bits", ["0", "-3", "63"])
    def test_precision_below_floor_usage_error(self, bits, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "3", "--precision", bits]) == 1
        assert f"--precision must be at least 64 bits, got {bits}" in capsys.readouterr().err
        assert not Path("hypeuler_certificate.json").exists()

    def test_verify_round_trip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "3", "--precision", "128", "--out", "c.json", "--report", "r.txt"]) == 0
        assert main(["--verify", "c.json"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_detects_tamper(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "3", "--precision", "128", "--out", "c.json", "--report", "r.txt"]) == 0
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
        assert "section r=4: malformed" in capsys.readouterr().err

    def test_verify_oversized_integer_exits_one(self, rank_three_cert, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        oversized_precision_certificate(rank_three_cert, tmp_path / "c.json")
        assert main(["--verify", "c.json"]) == 1
        assert "cannot read certificate c.json" in capsys.readouterr().err

    def test_verify_unrecomputable_rank_exits_one(self, rank_three_cert, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(serialize_certificate(rank_28_certificate(rank_three_cert)), encoding="utf-8")
        run = run_hypeuler("--verify", str(path))
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        assert "FAILED: section r=28: cannot recompute the evidence (ValueError: " in run.stderr

    @pytest.mark.parametrize("flag, value", [("--n", "6"), ("--r", "3")])
    def test_max_r_with_explicit_ranks_usage_error(self, flag, value, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([flag, value, "--max-r", "20"]) == 1
        assert "error: --max-r cannot be combined with --n or --r" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_help_shows_defaults(self):
        text = " ".join(build_parser().format_help().split())
        assert f"(default {DEFAULT_PRECISION_BITS}, at least {MIN_PRECISION_BITS})" in text
        assert "(default 12; only without --n or --r)" in text
        assert "certificate output path (default hypeuler_certificate.json)" in text
        assert "report output path (default hypeuler_report.txt)" in text

    def test_verify_missing_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--verify", "nope.json"]) == 1

    CERTIFY_ONLY = {
        "--n": "6", "--r": "3", "--max-r": "5", "--precision": "128", "--out": "x.json", "--report": "x.txt"
    }

    @pytest.mark.parametrize("flag", CERTIFY_ONLY)
    def test_verify_with_rank_usage_error(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "13", "--out", "c.json", "--report", "r.txt"]) == 0
        capsys.readouterr()
        assert main(["--verify", "c.json", flag, self.CERTIFY_ONLY[flag]]) == 1
        captured = capsys.readouterr()
        assert (
            "error: --verify cannot be combined with --n, --r, --max-r, --precision, --out or --report"
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

    def test_byte_identical_across_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "3", "--precision", "128", "--out", "a.json", "--report", "ra.txt"]) == 0
        assert main(["--r", "3", "--precision", "128", "--out", "b.json", "--report", "rb.txt"]) == 0
        assert Path("a.json").read_bytes() == Path("b.json").read_bytes()
        assert Path("ra.txt").read_bytes() == Path("rb.txt").read_bytes()

    @pytest.mark.parametrize("r", (28, 29, 30))
    def test_rank_past_serialization_limit_fails_inside_envelope(self, r, tmp_path, monkeypatch, capsys):
        # value_at_degree_five exceeds 10^4300 from r = 28 on, beyond the
        # int-to-str limit of the num/den encoding: a partial certificate
        # with status failed, a report and exit 1, not a traceback
        monkeypatch.chdir(tmp_path)
        assert main(["--r", str(r), "--out", "c.json", "--report", "r.txt"]) == 1
        cert = read_certificate("c.json")
        assert cert["status"] == "failed" and cert["sections"] == []
        assert cert["error"].startswith(f"r={r}: ValueError")
        assert f"error: r={r}: " in Path("r.txt").read_text(encoding="utf-8")
        assert f"error: r={r}: " in capsys.readouterr().err

    def test_precision_past_enclosure_range_fails_inside_envelope(self, tmp_path, monkeypatch, capsys):
        # about 800 bits is the most the 4096-term Hurwitz round reaches;
        # past it every shorter round is skipped and that round fails fast
        monkeypatch.chdir(tmp_path)
        assert main(["--r", "3", "--precision", "1024", "--out", "c.json", "--report", "r.txt"]) == 1
        cert = read_certificate("c.json")
        assert cert["status"] == "failed" and cert["sections"] == []
        assert cert["error"].startswith("r=3: PrecisionError")
        assert "error: r=3: PrecisionError" in capsys.readouterr().err

    def test_precision_far_past_enclosure_range_fails_fast(self, tmp_path):
        # the zeta ladder rules out every round before pi or any Hurwitz
        # enclosure is built at 65536 bits
        t0 = time.perf_counter()
        run = run_hypeuler("--r", "3", "--precision", "65536", "--out", str(tmp_path / "c.json"),
                           "--report", str(tmp_path / "r.txt"))
        took = time.perf_counter() - t0
        assert run.returncode == 1
        assert "error: r=3: PrecisionError" in run.stderr and "Traceback" not in run.stderr
        assert read_certificate(tmp_path / "c.json")["status"] == "failed"
        assert took < 2.0, f"failing at 65536 bits took {took:.2f} s"

    def test_high_precision_without_dual_path_certifies(self, table):
        # rank 13 has no field verdict, so no enclosure is built at that precision
        cert, code = run_certification([13], table, precision_bits=100000)
        assert code == 0 and cert["status"] == "complete"

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
