"""Run the hypeuler CLI in this process with spans around module functions.

Usage: python3 perfbench/tracer.py SPANS_JSON [hypeuler CLI arguments...]

The hypeuler sources must be importable (the benchmark sets PYTHONPATH).
Every function in SPANNED is replaced, in every hypeuler module that
holds a reference to it, by a wrapper that records a span: name, start,
end and the index of the enclosing span.  Functions are imported by name
across modules (``from .euler_char import C_of_r``), so replacing the
definition alone would miss the inner calls.  Spans stay in memory and
are written to SPANS_JSON when the CLI returns; the exit code is the
CLI's.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time

# module -> public functions that get a span; "cli.main" is the root span.
SPANNED: dict[str, tuple[str, ...]] = {
    "field_tables": ("load_table", "query"),
    "exact_arith": ("pi_enclosure",),
    "characters_zeta": (
        "zeta_k_special",
        "generalized_bernoulli",
        "zeta_k_numeric",
        "hurwitz_zeta_enclosure",
    ),
    "local_factors": ("minimum_proof", "calibrate_oracle"),
    "euler_char": (
        "C_of_r",
        "chi_principal_numeric",
        "reciprocal_integer_obstruction",
        "build_euler_char",
    ),
    "search_bounds": (
        "certify_section",
        "enumerate_candidates",
        "compute_bounds_pass",
        "high_degree_exclusion",
        "field_verdict",
    ),
    "certificate": (
        "run_certification",
        "build_certificate",
        "serialize_certificate",
        "render_report",
        "verify_certificate",
    ),
}
ROOT = "cli.main"
HURWITZ = "characters_zeta.hurwitz_zeta_enclosure"


class Tracer:
    def __init__(self, interval_type: type) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, start ns, end ns, parent index or -1]
        self.stack: list[int] = []
        self.hurwitz_terms: dict[int, int] = {}  # span index -> series terms of that call
        self.interval_bits_max = 0
        self._interval_type = interval_type

    def span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        is_hurwitz = name == HURWITZ

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name_id, 0, 0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            if is_hurwitz:
                # signature: hurwitz_zeta_enclosure(s, q, terms, corrections)
                self.hurwitz_terms[idx] = args[2] if len(args) > 2 else kwargs["terms"]
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            self._note_intervals(result)
            return result

        return wrapper

    def _note_intervals(self, result) -> None:
        """Track endpoint bit lengths of intervals returned directly or as
        a field of a returned dataclass."""
        if isinstance(result, self._interval_type):
            found = (result,)
        elif dataclasses.is_dataclass(result) and not isinstance(result, type):
            found = tuple(
                v for v in (getattr(result, f.name) for f in dataclasses.fields(result))
                if isinstance(v, self._interval_type)
            )
        else:
            return
        for iv in found:
            for x in (iv.lo, iv.hi):
                bits = max(x.numerator.bit_length(), x.denominator.bit_length())
                if bits > self.interval_bits_max:
                    self.interval_bits_max = bits

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "hypeuler" or n.startswith("hypeuler.")]
        for mod_name, functions in SPANNED.items():
            home = importlib.import_module(f"hypeuler.{mod_name}")
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.span(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "hurwitz_terms": self.hurwitz_terms,
            "interval_bits_max": self.interval_bits_max,
        }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import hypeuler  # noqa: F401  (imports every module before names are replaced)
    from hypeuler import cli
    from hypeuler.exact_arith import RationalInterval

    tracer = Tracer(RationalInterval)
    tracer.install()
    root = tracer.span(ROOT, cli.main)
    try:
        code = root(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
