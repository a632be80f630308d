"""Command-line entry point.

Certification mode writes a deterministic JSON certificate and a plain
text report; verifier mode re-checks a previously emitted certificate
by rebuilding it.  Exit codes: 0 all requested dimensions certified (or
verification passed), 2 at least one dimension inconclusive, 1 error
(including usage errors).

The standard library's ``argparse`` defines the command line, from one
flag table, ``_FLAGS``; ``_parse`` reads the plain forms every real run
uses without importing it, so only the help and a refused command line do.
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path
from typing import NoReturn

from .certificate import (
    MAX_RANK,
    read_certificate,
    render_report,
    run_certification,
    serialize_certificate,
    verify_certificate,
)
from .field_tables import TableError, bundled_table_path, load_table

# The flags that only certification reads parse to None when absent, so one
# rule rejects them all in verifier mode; certification then fills in these
# defaults (--n and --r have none).
_CERTIFY_DEFAULTS = dict(max_r=12, out="hypeuler_certificate.json", report="hypeuler_report.txt")
_CERTIFY_ONLY = ("n", "r", *_CERTIFY_DEFAULTS)

_DESCRIPTION = ("Certify the nonexistence of compact arithmetic hyperbolic n-manifolds "
                "of Euler characteristic +-2, or verify a certificate.")

# One row per valued flag (argparse adds -h/--help): the flag, the metavar
# and type of its value, whether it repeats, and its help.
_FLAGS = (
    ("--n", "N", int, True, "even dimension to certify (repeatable)"),
    ("--r", "R", int, True, "rank to certify (repeatable, mutually exclusive with --n)"),
    ("--fields", "PATH", str, False, "field table file (default: bundled dataset)"),
    ("--out", "PATH", str, False, f"certificate output path (default {_CERTIFY_DEFAULTS['out']})"),
    ("--report", "PATH", str, False, f"report output path (default {_CERTIFY_DEFAULTS['report']})"),
    ("--max-r", "R", int, False, f"largest rank in the default sweep (default {_CERTIFY_DEFAULTS['max_r']}; "
     "only without --n or --r)"),
    ("--verify", "PATH", str, False, "verify a previously emitted certificate instead of certifying"),
)
_BY_FLAG = {row[0]: row for row in _FLAGS}


class _UsageError(Exception):
    """A refused command line: exit 1 after the usage line and ``error: <message>``."""


class _Help(Exception):
    """``-h``: exit 0 after printing the help text, the exception's argument."""


def _parser():
    """argparse's parser of this command line, built from ``_FLAGS``: an
    error raises ``_UsageError``, ``-h`` raises ``_Help`` with the help
    text, and the text is wrapped at 78 columns whatever the terminal."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

        def print_help(self, file=None):  # the help action calls this, then exit()
            raise _Help(self.format_help().rstrip("\n"))

        def _get_values(self, action, arg_strings):
            # a joined "--" (--out=--) is the value, which Python 3.11's parser drops
            return self._get_value(action, "--") if arg_strings == ["--"] else super()._get_values(action, arg_strings)

    parser = Parser(prog="hypeuler", description=_DESCRIPTION,
                    formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78))
    for flag, metavar, convert, repeats, text in _FLAGS:
        parser.add_argument(flag, metavar=metavar, type=convert, action="append" if repeats else "store", help=text)
    return parser


def _parse(argv: list[str]) -> dict:
    """The flags' values by destination, None for an absent flag, as
    ``vars(_parser().parse_args(argv))`` gives them.

    When each token is an exact flag of ``_FLAGS``, its value joined by
    ``=`` or the next token, that token does not start with ``-``, and every
    value converts, the values are read here, without importing argparse.
    The result is argparse's: it reads an exact flag, or an exact flag
    before the first ``=``, as that flag without trying prefixes; it reads
    a token that does not start with ``-`` as an argument, which the flag
    before it takes as its one value; and it converts each value by the
    flag's type, a repeatable flag appending and any other keeping the last.
    Every other command line (a prefix, ``-h``, ``--``, a stray token, a
    missing or bad value) goes whole to ``_parser()``."""
    args = {flag[2:].replace("-", "_"): None for flag, *_ in _FLAGS}
    tokens = iter(argv)
    for token in tokens:
        flag, joined, value = token.partition("=")
        if not joined:
            value = next(tokens, "-")  # a missing value is refused like a flag
        if flag not in _BY_FLAG or not joined and value.startswith("-"):
            return vars(_parser().parse_args(argv))
        _flag, _metavar, convert, repeats, _text = _BY_FLAG[flag]
        try:
            value = convert(value)
        except ValueError:
            return vars(_parser().parse_args(argv))
        dest = flag[2:].replace("-", "_")
        args[dest] = [*(args[dest] or ()), value] if repeats else value
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


def _table_files(fields: str | None) -> set[str]:
    """The real paths of the field table a run reads (``--fields``, else the
    bundled one) and of its checksum file, which neither output may name."""
    table = Path(fields) if fields is not None else bundled_table_path()
    return {os.path.realpath(table), os.path.realpath(f"{table}.sha256")}


def _print(*lines: str) -> bool:
    """Print ``lines`` on standard output and flush it; False, after naming
    the failure on standard error, when the write fails.

    The bytes that could not be written stay in the stream's buffer, and
    the interpreter's flush at exit would fail on them again; standard
    output is pointed at the null device so that flush drops them."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write standard output: {exc.strerror or exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
            table_files = _table_files(args["fields"])
            for flag in ("out", "report"):
                if os.path.realpath(args[flag]) in table_files:
                    raise _UsageError(f"--{flag} names the field table or its checksum file")
    except _Help as exc:
        return 0 if _print(str(exc)) else 1
    except _UsageError as exc:
        print(_parser().format_usage(), end="", file=sys.stderr)
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
            return 0 if _print(f"certificate verified: {outcome.checks} checks passed") else 1
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
    overall = sorted(cert.get("overall", {}).items(), key=lambda kv: int(kv[0]))
    if not _print(*(f"n = {n}: {verdict}" for n, verdict in overall)):
        return 1
    if cert.get("status") == "failed":
        print(f"error: {cert.get('error')}", file=sys.stderr)
    return code if _print(f"certificate: {args['out']}", f"report: {args['report']}") else 1


def run() -> NoReturn:
    """The process entry point (``python -m hypeuler`` and the ``hypeuler``
    script): run ``main`` on ``sys.argv``, then exit with its code.

    The run's objects are moved to the collector's permanent generation
    first, so the collections of interpreter shutdown do not walk them;
    atexit handlers, the flush of the standard streams and module teardown
    still run.  ``main`` leaves the heap as it is for in-process callers."""
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
