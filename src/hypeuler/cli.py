"""Command-line entry point.

Certification mode writes a deterministic JSON certificate and a plain
text report; verifier mode re-checks a previously emitted certificate
by rebuilding it.  Exit codes: 0 all requested dimensions certified (or
verification passed), 2 at least one dimension inconclusive, 1 error
(including usage errors).

The flags are parsed from one table, ``_FLAGS``, by the standard library
option parser's rules for the forms this command line has: ``--flag
value`` and ``--flag=value``, a unique prefix of a long flag (an exact
flag wins), a negative integer as a value, and every token no flag
consumes refused at the end.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path

from .certificate import (
    MAX_RANK,
    read_certificate,
    render_report,
    run_certification,
    serialize_certificate,
    verify_certificate,
)
from .field_tables import TableError, load_table

# The flags that only certification reads parse to None when absent, so one
# rule rejects them all in verifier mode; certification then fills in these
# defaults (--n and --r have none).
_CERTIFY_DEFAULTS = dict(max_r=12, out="hypeuler_certificate.json", report="hypeuler_report.txt")
_CERTIFY_ONLY = ("n", "r", *_CERTIFY_DEFAULTS)

_DESCRIPTION = ("Certify the nonexistence of compact arithmetic hyperbolic n-manifolds "
                "of Euler characteristic +-2, or verify a certificate.")

# One row per flag: its option strings (the last names its value), the
# metavar and type of its value (None: the flag takes none), whether it
# repeats, and its help.
_FLAGS = (
    (("-h", "--help"), None, None, False, "show this help message and exit"),
    (("--n",), "N", int, True, "even dimension to certify (repeatable)"),
    (("--r",), "R", int, True, "rank to certify (repeatable, mutually exclusive with --n)"),
    (("--fields",), "PATH", str, False, "field table file (default: bundled dataset)"),
    (("--out",), "PATH", str, False, f"certificate output path (default {_CERTIFY_DEFAULTS['out']})"),
    (("--report",), "PATH", str, False, f"report output path (default {_CERTIFY_DEFAULTS['report']})"),
    (("--max-r",), "R", int, False, f"largest rank in the default sweep (default {_CERTIFY_DEFAULTS['max_r']}; "
     "only without --n or --r)"),
    (("--verify",), "PATH", str, False, "verify a previously emitted certificate instead of certifying"),
)
_BY_OPTION = {option: row for row in _FLAGS for option in row[0]}
_WIDTH = 79


class _UsageError(Exception):
    """A refused command line: exit 1 after the usage line and ``error: <message>``."""


def _dest(row: tuple) -> str:
    return row[0][-1].lstrip("-").replace("-", "_")


def _wrap(words: list[str], first: str, indent: int) -> list[str]:
    lines = [first]
    for word in words:
        if len(lines[-1]) > indent and len(lines[-1]) + 1 + len(word) > _WIDTH:
            lines.append(" " * indent)
        lines[-1] += (" " if lines[-1].strip() else "") + word
    return lines


def _invocation(options: tuple[str, ...], metavar: str | None) -> str:
    return ", ".join(options) if metavar is None else f"{options[-1]} {metavar}"


def _usage() -> str:
    words = [f"[{options[0] if metavar is None else _invocation(options, metavar)}]"
             for options, metavar, *_ in _FLAGS]
    return "\n".join(_wrap(words, "usage: hypeuler", len("usage: hypeuler ")))


def _help() -> str:
    column = 4 + max(len(_invocation(options, metavar)) for options, metavar, *_ in _FLAGS)
    lines = [_usage(), "", *_wrap(_DESCRIPTION.split(), "", 0), "", "options:"]
    for options, metavar, _convert, _repeats, text in _FLAGS:
        lines += _wrap(text.split(), f"  {_invocation(options, metavar)}".ljust(column - 1), column)
    return "\n".join(lines)


def _classify(token: str) -> tuple[tuple | None, str | None] | None:
    """How the standard option parser reads a token: None for a value,
    else (row, explicit value) for a flag, with row None for a flag not in
    ``_FLAGS``."""
    if not token.startswith("-") or token == "-":
        return None
    if token in _BY_OPTION:
        return _BY_OPTION[token], None
    name, eq, explicit = token.partition("=")
    if eq and name in _BY_OPTION:
        return _BY_OPTION[name], explicit
    if token.startswith("--"):
        matches = [option for option in _BY_OPTION if option.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return _BY_OPTION[matches[0]], explicit if eq else None
    elif token.startswith("-h"):  # the short flag glued to an explicit value
        return _BY_OPTION["-h"], token[2:]
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None
    return None, None


def _parse(argv: list[str]) -> dict | None:
    """The flags' values by destination, None for an absent flag; None
    itself once ``-h`` has printed the help."""
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_classify(token) for token in argv[:end]]
    if end < len(argv):  # "--" is no value, and each token after it is a value
        kinds += [(None, None)] + [None] * (len(argv) - end - 1)
    args = {_dest(row): None for row in _FLAGS if row[1] is not None}
    extras = []
    i = 0
    while i < len(argv):
        token, kind = argv[i], kinds[i]
        i += 1
        if kind is None or kind[0] is None:
            extras.append(token)
            continue
        (options, metavar, convert, repeats, _text), value = kind
        name = "/".join(options)
        if metavar is None:  # -h; -hh reads as -h -h
            rest = value if token.startswith("--") or not value else value.lstrip("h")
            if value is not None and (rest or not value):
                raise _UsageError(f"argument {name}: ignored explicit argument {rest!r}")
            print(_help())
            return None
        if value is None:
            if i == len(argv) or kinds[i] is not None:
                raise _UsageError(f"argument {name}: expected one argument")
            value = argv[i]
            i += 1
        try:
            value = convert(value)
        except ValueError:
            raise _UsageError(f"argument {name}: invalid {convert.__name__} value: {value!r}") from None
        dest = _dest(kind[0])
        args[dest] = [*(args[dest] or ()), value] if repeats else value
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _requested_ranks(args: dict) -> list[int]:
    if args["n"] and args["r"]:
        raise _UsageError("--n and --r are mutually exclusive")
    if args["n"]:
        ranks = []
        for n in args["n"]:
            if n % 2 != 0 or n < 4:
                raise _UsageError(f"dimension must be an even integer >= 4, got {n}")
            ranks.append(n // 2)
        return ranks
    if args["r"]:
        for r in args["r"]:
            if r < 2:
                raise _UsageError(f"rank must be at least 2, got {r}")
        return list(args["r"])
    if not 3 <= args["max_r"] <= MAX_RANK:
        raise _UsageError(f"--max-r must be from 3 to {MAX_RANK}, the largest rank certified")
    return list(range(3, args["max_r"] + 1))


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        if args["verify"] is not None:
            if any(args[name] is not None for name in _CERTIFY_ONLY):
                raise _UsageError("--verify cannot be combined with --n, --r, --max-r, --out or --report")
        else:
            if args["max_r"] is not None and (args["n"] or args["r"]):
                raise _UsageError("--max-r cannot be combined with --n or --r")
            args.update({k: v for k, v in _CERTIFY_DEFAULTS.items() if args[k] is None})
            ranks = _requested_ranks(args)
            if os.path.realpath(args["out"]) == os.path.realpath(args["report"]):
                raise _UsageError("--out and --report name the same file")
    except _UsageError as exc:
        print(_usage(), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args["verify"] is not None:
        try:
            table = load_table(args["fields"])
            cert = read_certificate(args["verify"])
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        outcome = verify_certificate(cert, table)
        if outcome.ok:
            print(f"certificate verified: {outcome.checks} checks passed")
            return 0
        print(f"certificate verification FAILED: {outcome.divergence}", file=sys.stderr)
        return 1

    try:
        table = load_table(args["fields"])
    except TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    cert, code = run_certification(ranks, table)
    for path, text in ((args["out"], serialize_certificate(cert)), (args["report"], render_report(cert))):
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    for n, verdict in sorted(cert.get("overall", {}).items(), key=lambda kv: int(kv[0])):
        print(f"n = {n}: {verdict}")
    if cert.get("status") == "failed":
        print(f"error: {cert.get('error')}", file=sys.stderr)
    print(f"certificate: {args['out']}")
    print(f"report: {args['report']}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
