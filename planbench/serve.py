"""The library calls `bootplan solve` and `bootplan check` make, minus file I/O.

`cli.cmd_solve` and `cli.cmd_check` read their inputs from files and print
reports; here the inputs are texts held in memory and the report fields come
back as values.  Every bootplan function is looked up through its module at
call time, so the tracer's wrappers (installed on those modules) see the
calls.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from bootplan import baselines, circuit, exact, formats, lp, paths, rounding


@dataclass(frozen=True)
class SolveOutput:
    marks: list[str]  # sorted vertex names, as in the solve report
    verified: bool
    parsed: circuit.Circuit  # the parsed input, to translate ids to names
    relaxation: lp.LpResult | None = None
    optimum: int | None = None
    explored: int | None = None


@dataclass(frozen=True)
class CheckOutput:
    feasible: bool
    worst: int
    violator: str  # first vertex at the worst level when over budget, else ""
    histogram: dict[int, int]


def solve(text: str, level: int, method: str) -> SolveOutput:
    c = formats.parse_circuit(text, source="<instance>")
    lp_result = optimum = explored = None
    if method == "lp-round":
        lp_result = lp.solve_relaxation(c, level)
        tables = paths.level_lengths(c, level, lp_result.weights)
        marks = rounding.derandomized_round(c, level, tables).marks
    elif method == "exact":
        result = exact.exact_bootstrap(c, level, max_subsets=exact.DEFAULT_SUBSET_CAP)
        marks = result.witness
        optimum, explored = result.optimum, result.explored
    elif method == "greedy":
        marks = baselines.greedy_topological(c, level)
    else:
        raise ValueError(f"unknown method {method!r}")
    names = sorted(c.name_of(v) for v in marks)
    verified = circuit.is_feasible_by_levels(c, marks, level)
    return SolveOutput(names, verified, c, lp_result, optimum, explored)


def check(text: str, marks_text: str, level: int) -> CheckOutput:
    c = formats.parse_circuit(text, source="<instance>")
    marks = formats.parse_marks(marks_text, c, source="<marks>")
    levels = circuit.eval_levels(c, marks)
    histogram = Counter(levels)
    worst = max(levels, default=0)
    violator = ""
    if worst > level:
        violator = c.name_of(min(v for v in range(c.n) if levels[v] == worst))
    return CheckOutput(worst <= level, worst, violator, dict(histogram))
