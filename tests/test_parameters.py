"""Guard for the proof path's parameters: every precision is one a caller
sets, the default precision is stated once (``DEFAULT_PRECISION_BITS``,
read by ``run_certification``), the arithmetic datum has no
bad places, and the proof driver takes no precision: the transcendental
cross-check ``search_bounds.dual_path_check`` is a function the tests run on
a section, not a mode of the driver, and no certify step reads a precision."""

import importlib
import inspect
import pkgutil

import hypeuler
from hypeuler.certificate import DEFAULT_PRECISION_BITS, run_certification
from hypeuler.euler_char import ArithmeticDatum
from hypeuler.search_bounds import certify_section, field_verdict

PRECISION_NAMES = {"precision_bits", "bits", "sig_bits"}


def hypeuler_functions():
    """(qualified name, function) for every function and method defined in a
    hypeuler module."""
    for info in pkgutil.iter_modules(hypeuler.__path__):
        module = importlib.import_module(f"hypeuler.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # classmethod, staticmethod
                    if callable(member):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif callable(obj):
                yield f"{module.__name__}.{name}", obj


def test_precision_parameters_have_no_default():
    defaults = {}
    for qualname, fn in hypeuler_functions():
        try:
            params = inspect.signature(fn).parameters.values()
        except (TypeError, ValueError):
            continue
        for p in params:
            if p.name in PRECISION_NAMES and p.default is not inspect.Parameter.empty:
                defaults[f"{qualname}({p.name})"] = p.default
    assert defaults == {"hypeuler.certificate.run_certification(precision_bits)": DEFAULT_PRECISION_BITS}
    default = inspect.signature(run_certification).parameters["precision_bits"].default
    assert default is DEFAULT_PRECISION_BITS


def test_datum_has_no_bad_places():
    assert ArithmeticDatum.__slots__ == ("field", "r")


def test_proof_driver_takes_no_precision():
    for fn in (field_verdict, certify_section):
        assert not PRECISION_NAMES & inspect.signature(fn).parameters.keys()
