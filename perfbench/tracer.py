"""Run one ``cdmlotto`` CLI command in-process with its layer functions traced.

Usage (the benchmark starts this as a child, one per command)::

    python perfbench/tracer.py SPANS_PATH -- <cdmlotto argv...>

The child times ``import cdmlotto.cli`` in its fresh interpreter, wraps
every function in ``TRACED`` so that each call records a span, runs
``cdmlotto.cli.main(argv)`` and, after it returns, writes the spans it kept
in memory to SPANS_PATH.  It exits with the command's exit code.

SPANS_PATH is tab-separated text.  The first line is ``import_s<TAB>seconds``;
each further line is one span:
``id<TAB>parent<TAB>name<TAB>start<TAB>end<TAB>ok``, where ``parent`` is the
id of the enclosing traced call or -1, and ``ok`` is 0 when the call raised.
"""

from __future__ import annotations

import functools
import sys
import time

# The public functions the benchmark times, by layer (module under
# src/cdmlotto/).  A metric is reported for each, whether or not a workload
# calls it.
TRACED = {
    "ingest": (
        "parse_history",
        "build_count_matrices",
        "slice_window",
        "synthetic_history",
        "serialize_history",
    ),
    "distributions": ("predictive_expectation",),
    "estimators": ("estimate_alpha", "mle_alpha_from_stats", "apply_positivity_floor"),
    "backtest": (
        "run_backtest",
        "select_combination",
        "match_count",
        "gap_stats",
        "classify_stretches",
        "extrapolate_gaps",
    ),
    "strategy": ("simulate_streams", "simulate_stream", "required_budget", "next_player_count"),
    "cli": ("main",),
}


class Tracer:
    """In-memory span recorder for wrapped functions of one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)  # reserve the id so nested calls can name it as parent
            parent = stack[-1] if stack else -1
            stack.append(span)
            ok = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = 1
                return result
            finally:
                end = clock()
                stack.pop()
                spans[span] = (parent, name, start, end, ok)

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in every cdmlotto module.

        Names bound by ``from .x import f`` live in the importing module's
        namespace, so wrapping only the defining module would miss calls
        such as ``cdmlotto.cli.run_backtest`` or
        ``cdmlotto.backtest.predictive_expectation``.
        """
        modules = [m for name, m in sys.modules.items() if name == "cdmlotto" or name.startswith("cdmlotto.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"cdmlotto.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    bound = [attr for attr, value in vars(module).items() if value is original]
                    for attr in bound:
                        setattr(module, attr, wrapper)

    def dump(self, path: str, import_s: float) -> None:
        lines = [f"import_s\t{import_s!r}"]
        for span_id, (parent, name, start, end, ok) in enumerate(self.spans):
            lines.append(f"{span_id}\t{parent}\t{name}\t{start!r}\t{end!r}\t{ok}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_PATH -- <cdmlotto argv...>", file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[2:]
    start = time.perf_counter()
    import cdmlotto.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = cdmlotto.cli.main(command)
    tracer.dump(spans_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
