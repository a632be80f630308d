"""Guard for the benchmark's opt-in trace (``perfbench/tracer.py``): every
function it wraps by name must still exist in its hypeuler module, and the
Hurwitz span reads the series term count as the third positional argument.
Renaming or deleting one of them would otherwise break ``--trace 1`` with
no test failing."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = load_tracer()
TRACED = [(mod, fn) for mod, fns in TRACER.SPANNED.items() for fn in fns] + [tuple(TRACER.ROOT.split("."))]


@pytest.mark.parametrize("mod_name, fn_name", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_name_is_a_function_of_its_module(mod_name, fn_name):
    module = importlib.import_module(f"hypeuler.{mod_name}")
    fn = getattr(module, fn_name, None)
    assert callable(fn) and not inspect.isclass(fn), f"hypeuler.{mod_name}.{fn_name} is not a function"
    assert fn.__module__ == module.__name__


def test_hurwitz_terms_is_third_positional_parameter():
    from hypeuler.characters_zeta import hurwitz_zeta_enclosure

    assert list(inspect.signature(hurwitz_zeta_enclosure).parameters)[2] == "terms"
