"""Each proof fact is stated once: records hold no rank their container
already holds and no flag that a raise already guarantees, C(r) is its
enclosure, there is one outward rounding, a maximal type is valid at
rank r exactly when ``enumerate_maximal_types(r)`` lists it, a field
record is valid by membership in a loaded table, each layer has one
error class, whose message names the check that failed, and the bounds
threshold of a rank and pass and the characters of a field are each built
once per process."""

import importlib
import itertools
import pkgutil

import pytest

import hypeuler
from hypeuler import characters_zeta, exact_arith, field_path, search_bounds
from hypeuler.cli import main
from hypeuler.euler_char import C_of_r
from hypeuler.exact_arith import RationalInterval
from hypeuler.field_path import MinimumProof, TypeMinimum
from hypeuler.field_tables import NumberFieldRecord
from hypeuler.local_factors import Kind, LocalFactorError, ParahoricType, enumerate_maximal_types
from hypeuler.offline import local_factor_polynomial
from hypeuler.search_bounds import (
    BoundsPass,
    CandidateEnumeration,
    CertificateSection,
    FieldVerdict,
    HighDegreeExclusion,
)
from oracles import order_formula_value


RECORD_FIELDS = {
    BoundsPass: ("degree", "mode", "disc_upper", "threshold_squared", "doubled_exponent", "enclosure_decisive"),
    HighDegreeExclusion: ("growth_factor", "value_at_degree_five", "low_degree"),
    CandidateEnumeration: ("audits", "records"),
    FieldVerdict: ("record", "obstruction", "euler"),
    MinimumProof: ("entries", "minimum"),
    TypeMinimum: ("type", "polynomial", "value_at_two"),
    CertificateSection: ("r", "kind", "verdict", "verdicts", "local_factor_proof", "enumeration", "high_degree",
                         "notes"),
}


@pytest.mark.parametrize("record", RECORD_FIELDS, ids=lambda record: record.__name__)
def test_record_fields(record):
    assert record._fields == RECORD_FIELDS[record]


def test_parahoric_type_is_a_plain_named_tuple():
    assert ParahoricType.__bases__ == (tuple,)


def test_number_field_record_is_a_plain_named_tuple():
    # valid by membership in a loaded table, which checked its every row
    assert NumberFieldRecord.__bases__ == (tuple,)


def test_rank_constant_is_its_enclosure():
    assert isinstance(C_of_r(3, 160), RationalInterval)


@pytest.mark.parametrize(
    "argv, threshold_misses, character_misses",
    [((), 13, 7), (("--n", "6", "--n", "8", "--n", "10"), 6, 7), (("--r", "13", "--r", "14", "--r", "15"), 3, 0)],
    ids=["sweep", "headline", "high_rank"],
)
def test_threshold_and_characters_built_once(argv, threshold_misses, character_misses, tmp_path, monkeypatch):
    # one miss per rank and pass (pass two at r = 3..5 only) and one per field
    # (7 of r = 3..5); zeta_k_special's memo is cleared too, as it would hide
    # the lookups of the characters
    for memo in (search_bounds._threshold, field_path.characters_for_field, characters_zeta.zeta_k_special):
        memo.cache_clear()
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "c.json", "--report", "r.txt"]) == 0
    assert search_bounds._threshold.cache_info().misses == threshold_misses
    assert field_path.characters_for_field.cache_info().misses == character_misses


def test_one_outward_rounding():
    assert [name for name in vars(exact_arith) if name.startswith("dyadic_round")] == ["dyadic_round"]


@pytest.mark.parametrize("r", range(3, 8))
def test_type_valid_exactly_when_enumerated(r):
    members = set(enumerate_maximal_types(r))
    for splitness, kind, i in itertools.product(("split", "nonsplit"), Kind, (None, *range(r + 1))):
        t = ParahoricType(splitness, kind, i)
        for build in (lambda: local_factor_polynomial(t, r), lambda: order_formula_value(t, r, 2)):
            if t in members:
                build()
            else:
                with pytest.raises(LocalFactorError, match=f"is not a maximal type at rank {r}"):
                    build()


def test_one_error_class_per_module():
    defined = []
    for info in pkgutil.iter_modules(hypeuler.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"hypeuler.{info.name}")
            defined += [obj for obj in vars(module).values() if isinstance(obj, type)
                        and issubclass(obj, BaseException) and obj.__module__ == module.__name__]
    assert sorted(cls.__name__ for cls in defined) == sorted([
        "ExactArithError", "CharacterError", "EulerCharError", "LocalFactorError", "SearchError", "TableError",
        "CertificateError", "_UsageError", "_Help", "_Divergence",
    ])
    assert all(cls.__bases__ == (Exception,) for cls in defined)
