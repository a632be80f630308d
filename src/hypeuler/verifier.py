"""The verifier's walk: guard a certificate, rebuild it with the writer and
compare the two JSON trees leaf by leaf (see
``certificate.verify_certificate``, which imports this module when first
called, so a certify process never compiles it).

The rebuild calls the writer through the ``certificate`` module at each
call, so it runs whatever writer that module holds.
"""

from __future__ import annotations

import json
from collections import namedtuple

from . import certificate
from .certificate import CERTIFICATE_FORMAT, _quote
from .field_tables import FieldTable


class VerificationOutcome(namedtuple("VerificationOutcome", "ok checks divergence", defaults=(None,))):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


class _Divergence(Exception):
    """A claim of the certificate differs from its recomputation."""


# What a missing key or a value of the wrong shape raises while a claim is read.
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError)


class _Checks:
    """Counts the checks made and raises the first divergence."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, ok: bool, divergence: str, *claimed) -> None:
        """Count one check; a failed one raises ``divergence`` with each claimed value ``_quote``d into its ``{}``."""
        self.count += 1
        if not ok:
            raise _Divergence(divergence.format(*map(_quote, claimed)))


def verify(cert: dict, table: FieldTable) -> VerificationOutcome:
    """The body of ``certificate.verify_certificate``: the outcome of the walk,
    with a divergence or malformed claim returned, never raised."""
    check = _Checks()
    try:
        _verify(cert, table, check)
    except _Divergence as exc:
        return VerificationOutcome(ok=False, checks=check.count, divergence=str(exc))
    except _MALFORMED as exc:  # a missing key, a value of the wrong shape, or dict keys that cannot be sorted
        divergence = f"malformed certificate ({type(exc).__name__}: {_quote(exc, str)})"
        return VerificationOutcome(ok=False, checks=check.count, divergence=divergence)
    return VerificationOutcome(ok=True, checks=check.count)


def _verify(cert: dict, table: FieldTable, check: _Checks) -> None:
    if type(cert) is not dict:  # not counted, like the no-rank refusal below
        raise _Divergence(f"certificate is {_show(cert)}, not an object")
    fmt = cert.get("format")
    check(fmt == CERTIFICATE_FORMAT, "unknown certificate format {}", fmt)
    version = cert["tool"]["version"]
    check(type(version) is str, "tool.version {} is not a string", version)
    ranks = list(cert["parameters"]["requested_r"])
    section_ranks = [sec["r"] for sec in cert["sections"]]
    check(all(type(r) is int and r >= 2 for r in ranks), "requested ranks {} are not all integers >= 2", ranks)
    check(all(a < b for a, b in zip(ranks, ranks[1:])), "requested ranks {} are not strictly increasing", ranks)
    check(section_ranks == ranks, "sections cover ranks {}, requested ranks are {}", section_ranks, ranks)
    if not ranks:  # not counted, so a valid certificate's count is unchanged
        raise _Divergence("parameters.requested_r is empty: the certificate claims no rank")
    sections = []
    for r in ranks:
        try:  # any error of the certifier itself, such as a rank above MAX_RANK
            sections.append(certificate.section_to_json(certificate._section(r, table)))
        except Exception as exc:
            failure = f"{type(exc).__name__}: {_quote(exc, str)}"
            raise _Divergence(f"section r={_quote(r)}: cannot recompute the evidence ({failure})") from None
    expected = certificate.build_certificate(sections, table, ranks)
    expected["tool"]["version"] = version
    _compare(cert, expected, "", check)


def _show(value) -> str:
    """A leaf as JSON text, a container by its JSON type."""
    return "an object" if type(value) is dict else "a list" if type(value) is list else _quote(value, json.dumps)


def _compare(claimed, expected, where: str, check: _Checks) -> None:
    """Compare the claimed JSON value at path ``where`` with the expected one,
    in the expected key order."""
    if type(expected) is dict and type(claimed) is dict:
        missing, extra = sorted(expected.keys() - claimed.keys()), sorted(claimed.keys() - expected.keys())
        if missing or extra:
            raise _Divergence(f"{where or 'certificate'} keys: missing {_quote(missing)}, unexpected {_quote(extra)}")
        for key, value in expected.items():
            _compare(claimed[key], value, f"{where}.{key}" if where else key, check)
    elif type(expected) is list and type(claimed) is list:
        if len(claimed) != len(expected):
            raise _Divergence(f"{where} has {len(claimed)} entries, recomputed {len(expected)}")
        for i, (a, b) in enumerate(zip(claimed, expected)):
            _compare(a, b, f"{where}[{i}]", check)
    else:
        check.count += 1  # the message is built only for a divergence
        if type(claimed) is not type(expected) or claimed != expected:
            raise _Divergence(f"{where} is {_show(claimed)}, recomputed {_show(expected)}")
