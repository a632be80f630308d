"""Single-leaf mutations of fresh certificates: the verifier never raises,
and it accepts a mutation only inside the slack that ``verify_certificate``
documents.

Each mutation applies one operator to one node of a certificate of rank
2, 3, 6 or 13: delete, null, flip, +1, -1, negate, to-string, to-list,
+1 or +2 on the numerator of a rational string, duplicate a list
element, or add a key ``"note": 1`` to an object.  The root is a node
too, for every operator but delete and duplicate.  Mutations that leave
the certificate unchanged are left out.
"""

import copy
import json
import re
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from hypeuler.certificate import run_certification, verify_certificate
from hypeuler.field_tables import load_table

RANKS = (2, 3, 6, 13)


@cache
def table():
    return load_table()


@cache
def certificate(r):
    cert, _ = run_certification([r], table())
    return cert


def paths(node, prefix=()):
    """The path of every node below the root, containers included."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def is_int(value):
    return type(value) is int


def is_rational(value):
    """A ``num/den`` or integer text, as the certifier writes rationals."""
    return isinstance(value, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value) is not None


def numerator_plus(value, k):
    num, _, den = value.partition("/")
    return f"{int(num) + k}/{den}" if den else str(int(num) + k)


def negate(value):
    if is_int(value):
        return -value
    return value[1:] if value.startswith("-") else "-" + value


# name -> (applies to the value, mutated value)
OPERATORS = {
    "null": (lambda v: True, lambda v: None),
    "flip": (lambda v: isinstance(v, bool), lambda v: not v),
    "+1": (is_int, lambda v: v + 1),
    "-1": (is_int, lambda v: v - 1),
    "negate": (lambda v: is_int(v) or is_rational(v), negate),
    "to-string": (lambda v: not isinstance(v, (str, dict, list)), json.dumps),
    "to-list": (lambda v: True, lambda v: [v]),
    "numerator+1": (is_rational, lambda v: numerator_plus(v, 1)),
    "numerator+2": (is_rational, lambda v: numerator_plus(v, 2)),
    "add-key": (lambda v: isinstance(v, dict), lambda v: {**v, "note": 1}),
}


def node(cert, path):
    for key in path:
        cert = cert[key]
    return cert


@cache
def mutations():
    """Every (rank, path, operator) whose mutation changes the certificate."""
    out = []
    for r in RANKS:
        cert = certificate(r)
        for path in [(), *paths(cert)]:
            value = node(cert, path)
            if path:
                out.append((r, path, "delete"))
                if isinstance(value, list) and value:
                    out.append((r, path, "duplicate"))
            for name, (applies, apply) in OPERATORS.items():
                if applies(value) and json.dumps(apply(value)) != json.dumps(value):
                    out.append((r, path, name))
    return out


def mutate(cert, path, operator):
    bad = copy.deepcopy(cert)
    if not path:
        return OPERATORS[operator][1](bad)
    parent = node(bad, path[:-1])
    key = path[-1]
    if operator == "delete":
        del parent[key]
    elif operator == "duplicate":
        parent[key].insert(0, copy.deepcopy(parent[key][0]))
    else:
        parent[key] = OPERATORS[operator][1](parent[key])
    return bad


def is_slack(path, new):
    """The documented slack of ``verify_certificate``: any string as the
    tool's version, and nothing else."""
    return path == ("tool", "version") and isinstance(new, str)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutation_is_named_divergence_or_documented_slack(data):
    r, path, operator = data.draw(st.sampled_from(mutations()), label="mutation")
    cert = certificate(r)
    bad = mutate(cert, path, operator)
    outcome = verify_certificate(bad, table())
    if outcome.ok:
        assert operator in OPERATORS and is_slack(path, node(bad, path)), (path, operator)
    else:
        assert outcome.divergence, (path, operator)


def test_every_added_key_is_named():
    added = [(r, path) for r, path, operator in mutations() if operator == "add-key"]
    for r, path in added:
        outcome = verify_certificate(mutate(certificate(r), path, "add-key"), table())
        assert not outcome.ok and "unexpected ['note']" in outcome.divergence, (r, path, outcome.divergence)
    assert len(added) == 107  # every object of the four certificates, the roots included


def test_every_verdict_mutation_is_named_by_its_path():
    # the field verdicts are compared leaf by leaf like the rest of the tree
    verdict_mutations = [(r, path, operator) for r, path, operator in mutations() if "verdicts" in path]
    for r, path, operator in verdict_mutations:
        outcome = verify_certificate(mutate(certificate(r), path, operator), table())
        deleted_list = path == ("sections", 0, "verdicts") and operator == "delete"
        named = "sections[0] keys" if deleted_list else "sections[0].verdicts"
        assert not outcome.ok and outcome.divergence.startswith(named), (r, path, operator, outcome.divergence)
    assert len(verdict_mutations) == 941
