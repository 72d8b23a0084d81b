"""In-memory span tracer that wraps the program's public functions from outside.

Each wrapped call records (name, start, end, parent index). Wrappers are put on
every ``kloosterman.*`` module attribute that holds the original function, so a
call is traced under the name its calling module sees (``sl4fine.kloosterman``
and ``cli.kloosterman`` are both the ``classical.kloosterman`` span). The
program's files are not modified; callers must look functions up through the
module attribute at call time for their calls to be traced.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time

# (module holding the definition, attribute, span name). Span names are
# "<layer>.<function>"; the layer is the module the function belongs to.
TRACED = (
    ("kloosterman.sl4fine", "fine_cell_distribution", "sl4fine.distribution"),
    ("kloosterman.sl4fine", "fine_cell_representatives", "sl4fine.representatives"),
    ("kloosterman.sl4fine", "fine_sum_oracle", "sl4fine.oracle"),
    ("kloosterman.sl4fine", "fine_sum_closed_form", "sl4fine.closed_form"),
    ("kloosterman.sl4fine", "coarse_sum", "sl4fine.coarse"),
    ("kloosterman.classical", "kloosterman", "classical.kloosterman"),
    ("kloosterman.classical", "weil_bound_holds", "classical.weil_bound"),
    ("kloosterman.exactnum", "phase_sum_eval", "exactnum.phase_sum_eval"),
    ("kloosterman.exactnum", "phase_sums_close", "exactnum.phase_sums_close"),
    ("kloosterman.sl5", "sl5_fine_sum_oracle", "sl5.oracle"),
    ("kloosterman.matrixcore", "mat_prod", "matrixcore.mat_prod"),
    ("kloosterman.matrixcore", "minor", "matrixcore.minor"),
    ("kloosterman.bruhat", "psi", "bruhat.psi"),
    ("kloosterman.bruhat", "decompose", "bruhat.decompose"),
    ("kloosterman.verify", "run_suite", "verify.run_suite"),
    ("kloosterman.cli", "main", "cli.main"),
)

LAYERS = ("cli", "sl4fine", "sl5", "classical", "exactnum", "matrixcore", "bruhat", "verify")


class Tracer:
    """Spans are kept in memory until ``write``; nothing is recorded while
    ``enabled`` is false."""

    def __init__(self):
        # Kept across resets: a dict seen in an earlier pass is a cache hit.
        self._seen_distributions: set[int] = set()
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts; installed wrappers stay."""
        self.spans: list = []
        self._stack: list[int] = []
        self.enabled = True
        # Results kept for counts that are cheaper to take after the pass.
        self.distributions: list = []
        self.sl5_results: list = []
        self.representatives = 0
        self.distinct_phases = 0

    def span(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            spans = self.spans
            index = len(spans)
            parent = self._stack[-1] if self._stack else -1
            spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """A benchmark-side span that parents the calls made inside it."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1)

    # -- hooks that record what a call produced, outside its span's timing

    def _after_distribution(self, args, result):
        if id(result) not in self._seen_distributions:
            # A new dict is a scan; the program's cache returns the same object.
            self._seen_distributions.add(id(result))
            self.distributions.append((args[0], result))

    def _after_sl5(self, args, result):
        self.sl5_results.append((args[0], result))

    def _after_eval(self, args, result):
        self.distinct_phases += len(args[0])

    def install(self) -> None:
        """Wrap every traced function under each module name that holds it."""
        hooks = {
            "sl4fine.distribution": self._after_distribution,
            "sl5.oracle": self._after_sl5,
            "exactnum.phase_sum_eval": self._after_eval,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kloosterman" or n.startswith("kloosterman.")]
        for module_name, attr, span_name in TRACED:
            home = sys.modules.get(module_name)
            if home is None:
                continue
            original = getattr(home, attr)
            if span_name == "sl4fine.representatives":
                wrapped = self.span(span_name, self._materialize(original))
            else:
                wrapped = self.span(span_name, original, hooks.get(span_name))
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)

    def _materialize(self, generator_fn):
        """The representative scan is a generator; its span covers the whole
        enumeration, so the wrapper drains it inside the span."""
        def drained(*args, **kwargs):
            items = list(generator_fn(*args, **kwargs))
            self.representatives += len(items)
            return iter(items)
        return drained

    def write(self, path: str) -> None:
        """Write spans as tab-separated lines: name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for name, start, end, parent in self.spans:
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def summary(self) -> dict:
        """Calls, busy time and self time per span name, plus work counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        members = sum(sum(d.values()) for _, d in self.distributions)
        proxy = sum(cell.enumeration_budget() for cell, _ in self.distributions)
        grid = sum(cell.enumeration_budget() for cell, _ in self.sl5_results)
        sl5_members = sum(r.exact.mass() for _, r in self.sl5_results)
        return {
            "calls": calls, "busy_s": busy, "self_s": self_time,
            "counts": {
                "sl4fine.distribution.scans": len(self.distributions),
                "sl4fine.members": members,
                "sl4fine.budget_proxy": proxy,
                "sl4fine.representatives.count": self.representatives,
                "exactnum.distinct_phases": self.distinct_phases,
                "sl5.grid_points": grid,
                "sl5.members": sl5_members,
            },
        }
