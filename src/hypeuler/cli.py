"""Command-line entry point.

Certification mode writes a deterministic JSON certificate and a plain
text report; verifier mode re-checks a previously emitted certificate
by rebuilding it.  Exit codes: 0 all requested dimensions certified (or
verification passed), 2 at least one dimension inconclusive, 1 error
(including usage errors).
"""

from __future__ import annotations

import argparse
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    @staticmethod
    def _fail(message: str) -> int:
        print(f"error: {message}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="hypeuler",
        description="Certify the nonexistence of compact arithmetic hyperbolic "
        "n-manifolds of Euler characteristic +-2, or verify a certificate.",
    )
    p.add_argument("--n", action="append", type=int, default=None, metavar="N",
                   help="even dimension to certify (repeatable)")
    p.add_argument("--r", action="append", type=int, default=None, metavar="R",
                   help="rank to certify (repeatable, mutually exclusive with --n)")
    p.add_argument("--fields", default=None, metavar="PATH",
                   help="field table file (default: bundled dataset)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help=f"certificate output path (default {_CERTIFY_DEFAULTS['out']})")
    p.add_argument("--report", default=None, metavar="PATH",
                   help=f"report output path (default {_CERTIFY_DEFAULTS['report']})")
    p.add_argument("--max-r", type=int, default=None, metavar="R",
                   help=f"largest rank in the default sweep (default {_CERTIFY_DEFAULTS['max_r']}; "
                   "only without --n or --r)")
    p.add_argument("--verify", default=None, metavar="PATH",
                   help="verify a previously emitted certificate instead of certifying")
    return p


def _requested_ranks(args: argparse.Namespace, parser: argparse.ArgumentParser) -> list[int]:
    if args.n and args.r:
        parser.error("--n and --r are mutually exclusive")
    if args.n:
        ranks = []
        for n in args.n:
            if n % 2 != 0 or n < 4:
                parser.error(f"dimension must be an even integer >= 4, got {n}")
            ranks.append(n // 2)
        return ranks
    if args.r:
        for r in args.r:
            if r < 2:
                parser.error(f"rank must be at least 2, got {r}")
        return list(args.r)
    if not 3 <= args.max_r <= MAX_RANK:
        parser.error(f"--max-r must be from 3 to {MAX_RANK}, the largest rank certified")
    return list(range(3, args.max_r + 1))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verify is not None and any(getattr(args, name) is not None for name in _CERTIFY_ONLY):
            parser.error("--verify cannot be combined with --n, --r, --max-r, --out or --report")
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.verify is not None:
        try:
            table = load_table(args.fields)
            cert = read_certificate(args.verify)
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
        if args.max_r is not None and (args.n or args.r):
            parser.error("--max-r cannot be combined with --n or --r")
        vars(args).update({k: v for k, v in _CERTIFY_DEFAULTS.items() if getattr(args, k) is None})
        ranks = _requested_ranks(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        table = load_table(args.fields)
    except TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    cert, code = run_certification(ranks, table)
    for path, text in ((args.out, serialize_certificate(cert)), (args.report, render_report(cert))):
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    for n, verdict in sorted(cert.get("overall", {}).items(), key=lambda kv: int(kv[0])):
        print(f"n = {n}: {verdict}")
    if cert.get("status") == "failed":
        print(f"error: {cert.get('error')}", file=sys.stderr)
    print(f"certificate: {args.out}")
    print(f"report: {args.report}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
