import importlib.util
import math
from pathlib import Path

import pytest

from hypeuler.field_tables import (
    HEADER,
    TableError,
    bundled_table_path,
    checksum_of_text,
    is_fundamental_discriminant,
    load_table,
    parse_table_text,
    query,
)
from hypeuler.offline import quadratic_class_number, validate_table

_BUILDER = Path(__file__).resolve().parents[1] / "tools" / "build_field_table.py"
_spec = importlib.util.spec_from_file_location("build_field_table", _BUILDER)
_builder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_builder)
QUADRATIC_ANCHORS = _builder.QUADRATIC_ANCHORS


@pytest.fixture(scope="module")
def table():
    return load_table()


def write_with_checksum(tmp_path: Path, text: str, name: str = "fields.txt") -> Path:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    (tmp_path / (name + ".sha256")).write_text(checksum_of_text(text) + "\n", encoding="utf-8")
    return p


MINI_TABLE = """hypeuler-fields v1
# completeness: 2 1000
# completeness: 3 1000
# completeness: 4 1000
# source: test fixture
2.2.5.1|2|5|1|1|1|5|-
2.2.8.1|2|8|1|1|1|8|-
3.3.49.1|3|49|1|1|1|7|3:1:3
4.4.725.1|4|725|1|1|0|-|-
"""


class TestLoading:
    def test_bundled_table_loads(self, table):
        assert table.by_disc(2, 5).h == 1
        rec49 = table.by_disc(3, 49)
        assert rec49.h == 1 and rec49.conductor == 7 and rec49.abelian
        assert table.by_disc(4, 725) is not None
        assert table.completeness == {2: 1000, 3: 1000, 4: 1000}
        assert table.source

    def test_bundled_has_all_small_quadratics(self, table):
        discs = [r.disc for r in table.records if r.degree == 2]
        assert discs[:8] == [5, 8, 12, 13, 17, 21, 24, 28]
        assert len(discs) == 302

    def test_minimal_quartic_is_725(self, table):
        assert table.minimal_disc(4) == 725

    def test_duplicate_detection(self, tmp_path):
        text = MINI_TABLE + "2.2.5.2|2|5|1|1|1|5|-\n"
        with pytest.raises(TableError, match="^2.2.5.2: duplicate record for degree 2, disc 5$"):
            parse_table_text(text)

    @pytest.mark.parametrize(
        ("row", "named"),
        [
            ("2.2.5.1|1|5|1|1|1|5|-", "degree must be at least 2"),
            ("2.2.5.1|2|0|1|1|1|5|-", "discriminant and class number must be positive"),
            ("2.2.5.1|2|5|0|1|1|5|-", "discriminant and class number must be positive"),
            ("2.2.5.1|2|5|1|0|1|5|-", "all bundled records must be totally real"),
            ("2.2.5.1|2|5|1|1|0|5|-", "every quadratic field is abelian"),
            ("2.2.5.1|3|81|1|1|0|-|-", "a cubic field of square discriminant 81 is cyclic, so abelian"),
        ],
        ids=["degree-1", "disc-0", "h-0", "not-totally-real", "quadratic-not-abelian", "square-cubic-not-abelian"],
    )
    def test_invalid_row_refused_at_load(self, row, named):
        # every check of a row runs once, when its table is parsed
        with pytest.raises(TableError, match=f"^2.2.5.1: {named}$"):
            parse_table_text(MINI_TABLE.replace("2.2.5.1|2|5|1|1|1|5|-", row))

    def test_header_required(self):
        with pytest.raises(TableError, match="^missing or wrong header line "):
            parse_table_text("wrong header v9\n")

    def test_field_count_enforced(self):
        with pytest.raises(TableError, match="^line 5: expected 8 fields, got 4$"):
            parse_table_text(HEADER + "\n# completeness: 2 1000\n# completeness: 3 1000\n# completeness: 4 1000\n2.2.5.1|2|5|1\n")

    def test_completeness_floor_enforced(self):
        text = MINI_TABLE.replace("# completeness: 3 1000\n", "")
        with pytest.raises(TableError, match="^completeness bound for degree 3 must cover at least 1000$"):
            parse_table_text(text)

    def test_checksum_mismatch(self, tmp_path):
        p = write_with_checksum(tmp_path, MINI_TABLE)
        (tmp_path / "fields.txt.sha256").write_text("0" * 64 + "\n")
        with pytest.raises(TableError, match="^checksum mismatch for .*fields.txt: recorded 0{64}, computed "):
            load_table(p)

    def test_checksum_missing(self, tmp_path):
        p = tmp_path / "fields.txt"
        p.write_text(MINI_TABLE, encoding="utf-8")
        with pytest.raises(TableError, match="^missing checksum file .*fields.txt.sha256$"):
            load_table(p)

    def test_directory_is_format_error(self, tmp_path):
        with pytest.raises(TableError, match=f"^cannot read {tmp_path}: "):
            load_table(tmp_path)

    def test_non_utf8_table_is_format_error(self, tmp_path):
        p = tmp_path / "fields.txt"
        p.write_bytes(HEADER.encode() + b"\n\xff\xfe\n")
        (tmp_path / "fields.txt.sha256").write_text("0" * 64 + "\n", encoding="utf-8")
        with pytest.raises(TableError, match="cannot read .*fields.txt: 'utf-8' codec"):
            load_table(p)

    def test_empty_checksum_file(self, tmp_path):
        p = write_with_checksum(tmp_path, MINI_TABLE)
        (tmp_path / "fields.txt.sha256").write_text("", encoding="utf-8")
        with pytest.raises(TableError, match="^empty checksum file .*fields.txt.sha256$"):
            load_table(p)

    def test_non_integer_conductor_is_format_error(self, tmp_path):
        p = write_with_checksum(tmp_path, MINI_TABLE.replace("2.2.5.1|2|5|1|1|1|5|-", "2.2.5.1|2|5|1|1|1|x5|-"))
        with pytest.raises(TableError, match="^line 6: malformed conductor 'x5'$"):
            load_table(p)

    def test_non_positive_conductor_refused(self, tmp_path):
        # (-7)^2 = 49 and gcd(3, -7) = 1 would pass the cubic checks
        for conductor in (-7, 0):
            text = MINI_TABLE.replace("3.3.49.1|3|49|1|1|1|7|3:1:3", f"3.3.49.1|3|49|1|1|1|{conductor}|3:1:3")
            p = write_with_checksum(tmp_path, text)
            with pytest.raises(TableError, match=f"^3.3.49.1: conductor {conductor} must be positive$"):
                load_table(p)

    def test_bad_boolean_names_its_line(self):
        with pytest.raises(TableError, match="^line 6: boolean field must be 0 or 1, got '2'$"):
            parse_table_text(MINI_TABLE.replace("2.2.5.1|2|5|1|1|1|5|-", "2.2.5.1|2|5|1|2|1|5|-"))

    def test_round_trip_via_file(self, tmp_path):
        p = write_with_checksum(tmp_path, MINI_TABLE)
        t = load_table(p)
        assert len(t.records) == 4
        assert t.checksum == checksum_of_text(MINI_TABLE)


class TestQuery:
    def test_quadratic_up_to_20(self, table):
        assert [r.disc for r in query(table, 2, 20)] == [5, 8, 12, 13, 17]

    def test_cubic_up_to_134(self, table):
        assert [r.disc for r in query(table, 3, 134)] == [49, 81]

    def test_quartic_up_to_640_empty(self, table):
        assert query(table, 4, 640) == []

    def test_sorted_by_disc(self, table):
        discs = [r.disc for r in query(table, 3, 1000)]
        assert discs == sorted(discs) and discs[0] == 49

    def test_lookups_equal_a_full_scan(self, table):
        # the lookups bisect the sorted records; each answer is the one a scan of all of them gives
        for degree in range(1, 8):
            of_degree = [rec for rec in table.records if rec.degree == degree]
            assert table.minimal_disc(degree) == min((rec.disc for rec in of_degree), default=None)
            for bound in range(1001):
                assert table.by_disc(degree, bound) == next((rec for rec in of_degree if rec.disc == bound), None)
                if degree in table.completeness:
                    assert query(table, degree, bound) == [rec for rec in of_degree if rec.disc <= bound]

    def test_beyond_completeness_refused(self, table):
        with pytest.raises(TableError, match="^table is only complete for degree 2 up to 1000, asked for 1001$"):
            query(table, 2, 1001)
        with pytest.raises(TableError, match="^table states no completeness bound for degree 5, asked for 10$"):
            query(table, 5, 10)


class TestValidation:
    def test_bundled_passes(self, table):
        report = validate_table(table)
        assert report.ok, report.issues

    def test_missing_quadratic_field_caught(self, table):
        # 2.2.13.1 dropped: the quadratic records no longer reach the completeness bound
        t = table._replace(records=tuple(r for r in table.records if r.label != "2.2.13.1"))
        report = validate_table(t)
        assert not report.ok
        assert report.issues == ["quadratic records up to the completeness bound 1000: missing [13], unexpected []"]

    def test_wrong_class_number_caught(self):
        text = MINI_TABLE.replace("2.2.5.1|2|5|1|1|1|5|-", "2.2.5.1|2|5|2|1|1|5|-")
        t = parse_table_text(text)
        report = validate_table(t)
        assert not report.ok
        assert any("2.2.5.1" in issue and "h=2" in issue for issue in report.issues)

    def test_impossible_cubic_discriminant_caught(self):
        # 50 = 2 mod 4 violates the discriminant congruence
        text = MINI_TABLE + "3.3.50.1|3|50|1|1|0|-|-\n"
        with pytest.raises(TableError, match="^3.3.50.1: discriminant 50 violates the 0/1 mod 4 congruence$"):
            parse_table_text(text)

    def test_non_fundamental_quadratic_caught(self):
        text = MINI_TABLE + "2.2.45.1|2|45|1|1|1|45|-\n"
        with pytest.raises(TableError, match="^2.2.45.1: 45 is not a fundamental discriminant$"):
            parse_table_text(text)

    def test_cubic_conductor_relation_enforced(self):
        text = MINI_TABLE.replace("3.3.49.1|3|49|1|1|1|7|3:1:3", "3.3.49.1|3|49|1|1|1|8|3:1:3")
        with pytest.raises(TableError, match=r"^3.3.49.1: cyclic cubic must satisfy conductor\^2 = disc$"):
            parse_table_text(text)

    def test_below_minimal_disc_caught(self):
        text = MINI_TABLE + "3.3.21.1|3|21|1|1|0|-|-\n"
        minimal = "^3.3.21.1: disc 21 below the minimal totally real degree-3 discriminant 49$"
        with pytest.raises(TableError, match=minimal):
            parse_table_text(text)


class TestClassNumberOracle:
    def test_fundamental_discriminants(self):
        assert is_fundamental_discriminant(5)
        assert is_fundamental_discriminant(8)
        assert not is_fundamental_discriminant(9)
        assert not is_fundamental_discriminant(20)
        assert not is_fundamental_discriminant(1)

    def test_fundamental_discriminants_by_definition(self):
        # D = 1 mod 4 squarefree, or D = 4m with m = 2, 3 mod 4 squarefree,
        # with squarefreeness tried by every d >= 2
        def squarefree(n):
            return all(n % (d * d) for d in range(2, math.isqrt(n) + 1))

        for D in range(-10, 3000):
            expected = D > 1 and (
                D % 4 == 1 and squarefree(D) or D % 4 == 0 and (D // 4) % 4 in (2, 3) and squarefree(D // 4)
            )
            assert is_fundamental_discriminant(D) == expected, D

    def test_known_class_numbers(self):
        # the table builder's anchors from standard tables, 5 through 229 (h = 3)
        assert {5: 1, 40: 2, 65: 2, 145: 4, 229: 3}.items() <= QUADRATIC_ANCHORS.items()
        for D, h in QUADRATIC_ANCHORS.items():
            assert quadratic_class_number(D) == h, f"D={D}"

    @pytest.mark.parametrize("D", [1, 9, 20, 45, 1000])
    def test_non_fundamental_discriminant_raises(self, D):
        with pytest.raises(TableError, match=f"^{D} is not a fundamental discriminant$"):
            quadratic_class_number(D)

    def test_builder_regenerates_bundled_records(self):
        # the builder's record lines, without main(), which writes the files
        text = bundled_table_path().read_text(encoding="utf-8")
        bundled = [ln for ln in text.splitlines()[1:] if not ln.startswith("#")]
        built = _builder.quadratic_records() + _builder.cubic_records() + _builder.quartic_records()
        assert len(built) == 330 and built == bundled

    @pytest.mark.parametrize(
        "argv, status", [(["--help"], 0), (["--out", "x"], 2), (["x"], 2)], ids=["help", "option", "argument"]
    )
    def test_builder_refuses_arguments_and_writes_nothing(self, argv, status, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(_builder, "SRC", tmp_path)
        monkeypatch.setattr("sys.argv", ["build_field_table.py", *argv])
        with pytest.raises(SystemExit) as exit_info:
            _builder.main()
        assert exit_info.value.code == status
        out, err = capsys.readouterr()
        assert "usage: build_field_table.py" in (err if status else out)
        assert list(tmp_path.iterdir()) == []

    def test_builder_writes_the_bundled_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_builder, "SRC", tmp_path)
        monkeypatch.setattr("sys.argv", ["build_field_table.py"])
        _builder.main()
        for name in ("fields_v1.txt", "fields_v1.txt.sha256"):
            written = (tmp_path / "hypeuler" / "data" / name).read_bytes()
            assert written == (bundled_table_path().parent / name).read_bytes()

    def test_oracle_agrees_with_bundle(self, table):
        quadratic = [rec for rec in table.records if rec.degree == 2]
        assert len(quadratic) == 302
        for rec in quadratic:
            assert quadratic_class_number(rec.disc) == rec.h, f"D={rec.disc}"
