"""Spans around calls into bootplan, recorded from outside the program.

`Tracer.install` replaces module attributes (`bootplan.lp.solve_restricted_master`,
`bootplan.lp.level_lengths`, ...) with wrappers that record a span per call:
name, start, end, parent span and request id.  Spans stay in memory until
the run writes them out.  A layer's self time is the time of its spans minus
the time of their direct children, which in one thread never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import bootplan.baselines
import bootplan.circuit
import bootplan.exact
import bootplan.formats
import bootplan.lp
import bootplan.paths
import bootplan.rounding

# (module, attribute, span name).  Attributes are patched where the caller
# looks them up: bootplan.lp calls level_lengths and solve_restricted_master
# through its own globals, rounding calls is_feasible_by_levels and
# breakpoints through its own, and circuit.max_level calls eval_levels
# through circuit's.  exact.exact_bootstrap keeps its own reference to
# eval_levels, so its per-subset calls are inside exact.exact_s, uncounted.
WRAPPED = (
    (bootplan.formats, "parse_circuit", "formats.parse_circuit"),
    (bootplan.formats, "parse_marks", "formats.parse_marks"),
    (bootplan.formats, "validate", "circuit.validate"),
    (bootplan.circuit, "eval_levels", "circuit.eval_levels"),
    (bootplan.lp, "solve_relaxation", "lp.solve_relaxation"),
    (bootplan.lp, "solve_restricted_master", "lp.solve_restricted_master"),
    (bootplan.lp, "level_lengths", "paths.level_lengths"),
    (bootplan.paths, "level_lengths", "paths.level_lengths"),
    (bootplan.rounding, "derandomized_round", "rounding.derandomized_round"),
    (bootplan.rounding, "breakpoints", "rounding.breakpoints"),
    (bootplan.rounding, "is_feasible_by_levels", "rounding.is_feasible_by_levels"),
    (bootplan.baselines, "greedy_topological", "baselines.greedy_topological"),
    (bootplan.exact, "exact_bootstrap", "exact.exact_bootstrap"),
)

# Self time of these spans is summed into the named layer metric.
SELF_TIME_METRIC = {
    "formats.parse_circuit": "formats.parse_s",
    "formats.parse_marks": "formats.parse_s",
    "circuit.validate": "circuit.validate_s",
    "circuit.eval_levels": "circuit.eval_levels_s",
    "lp.solve_relaxation": "lp.self_s",
    "lp.solve_restricted_master": "lp.master_s",
    "paths.level_lengths": "paths.level_lengths_s",
    "rounding.derandomized_round": "rounding.round_s",
    "rounding.breakpoints": "rounding.round_s",
    "rounding.is_feasible_by_levels": "rounding.round_s",
    "baselines.greedy_topological": "baselines.greedy_s",
    "exact.exact_bootstrap": "exact.exact_s",
    "request": "request.self_s",
}

# Number of spans of these names, as a count metric.
CALL_COUNT_METRIC = {
    "circuit.eval_levels": "circuit.eval_levels_calls",
    "lp.solve_restricted_master": "lp.master_calls",
    "paths.level_lengths": "paths.level_lengths_calls",
    "rounding.is_feasible_by_levels": "rounding.feasibility_checks",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._request = -1
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name: str):
        counts_breakpoints = name == "rounding.breakpoints"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._request < 0:
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if counts_breakpoints:
                self.counts["rounding.breakpoints"] += len(result)
            return result

        return traced

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def begin_request(self, request_id: int) -> list:
        """Open the root span of a timed request; calls outside one are not traced."""
        self._request = request_id
        return self._open("request")

    def end_request(self, span: list) -> float:
        self._close(span)
        self._request = -1
        return span[2] - span[1]

    def layer_totals(self) -> dict[str, float]:
        """Self times, inclusive LP time and call counts summed over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[SELF_TIME_METRIC[name]] += end - start - child_time[i]
            if name in CALL_COUNT_METRIC:
                totals[CALL_COUNT_METRIC[name]] += 1
            if name == "lp.solve_relaxation":
                totals["lp.solve_s"] += end - start
        for key, value in self.counts.items():
            totals[key] += value
        return totals

    def write(self, path, origin: float) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                record = {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "request": request,
                }
                fh.write(json.dumps(record) + "\n")
