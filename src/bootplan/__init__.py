"""Near-minimum bootstrapping placement for FHE-style gate circuits.

Given a circuit DAG (White inputs, Blue gates, Red noise-expensive gates)
and a noise budget L, pick a small set of vertices to bootstrap so that no
noise level ever exceeds L.  The main pipeline is an LP relaxation over
interesting-path covering constraints, solved by row generation, followed
by level-indexed threshold rounding whose derandomized form is an
L-approximation (optimal for L = 1); `plan` runs it, or another method,
end to end.  An exhaustive optimum and simple baselines are included, as is
the approximation-preserving reduction from DAG vertex deletion.
"""

from .baselines import after_every_red, greedy_topological
from .circuit import Circuit, Color, eval_levels, is_feasible_by_levels, validate
from .dvd import DvdInstance, ReductionMap, reduce_to_circuit, validate_dvd
from .exact import ExactResult, exact_bootstrap
from .generate import layered, random_circuit, red_chain, series_parallel
from .lp import LpResult, solve_relaxation, solve_restricted_master
from .paths import LevelTables, backtrack_interesting_path, level_lengths
from .pipeline import Plan, plan
from .rounding import RoundingOutcome, breakpoints, derandomized_round, randomized_round

__all__ = [
    "Circuit",
    "Color",
    "DvdInstance",
    "ExactResult",
    "LevelTables",
    "LpResult",
    "Plan",
    "ReductionMap",
    "RoundingOutcome",
    "after_every_red",
    "backtrack_interesting_path",
    "breakpoints",
    "derandomized_round",
    "eval_levels",
    "exact_bootstrap",
    "greedy_topological",
    "is_feasible_by_levels",
    "layered",
    "level_lengths",
    "plan",
    "random_circuit",
    "randomized_round",
    "red_chain",
    "reduce_to_circuit",
    "series_parallel",
    "solve_relaxation",
    "solve_restricted_master",
    "validate",
    "validate_dvd",
]

__version__ = "0.1.0"
