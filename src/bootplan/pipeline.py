"""One call from a circuit and a noise budget to a checked mark set.

plan() is what `bootplan solve` runs between loading and reporting.  Its
default method is the paper's pipeline: the covering LP by row generation,
then threshold rounding of the level table that certified it.  Every step,
the level sweeps of bootplan.circuit too, is looked up through its module
at call time, so wrappers there, such as profilers, see every call to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import baselines, circuit as circuits, exact, lp, rounding
from .circuit import Circuit, require_level

METHODS = ("lp-round", "exact", "after-red", "greedy")


@dataclass(frozen=True)
class Plan:
    """The marks, their exact re-check, and the result of each step that ran."""

    marks: frozenset[int]
    verified: bool
    lp: lp.LpResult | None = None
    rounding: rounding.RoundingOutcome | None = None
    exact: exact.ExactResult | None = None


def plan(circuit: Circuit, level: int, method: str = "lp-round") -> Plan:
    """Mark set for `circuit` at noise budget `level` by one of METHODS.

    lp-round rounds by the derandomized threshold scan.  Raises ValueError
    for a bad level and an unknown method, both before solving.
    """
    require_level(level)
    relaxation = outcome = optimum = None
    if method == "lp-round":
        # No interesting path exists for a budget at or above the unmarked
        # circuit's highest level, so any such budget solves like that level.
        budget = max(1, min(level, max(circuits.eval_levels(circuit, frozenset()), default=0)))
        relaxation = lp.solve_relaxation(circuit, budget)
        outcome = rounding.derandomized_round(circuit, budget, relaxation.tables)
        marks = outcome.marks
    elif method == "exact":
        optimum = exact.exact_bootstrap(circuit, level)
        marks = optimum.witness
    elif method == "after-red":
        marks = baselines.after_every_red(circuit)
    elif method == "greedy":
        marks = baselines.greedy_topological(circuit, level)
    else:
        raise ValueError(f"unknown method {method!r}, expected one of {', '.join(METHODS)}")
    verified = circuits.is_feasible_by_levels(circuit, marks, level)
    return Plan(marks, verified, relaxation, outcome, optimum)
