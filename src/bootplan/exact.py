"""Exhaustive optimum, the ground truth `solve --method exact` reports.

exact_bootstrap tries candidate mark sets in increasing cardinality, stopping
at the first feasible one, so the witness has minimum size.  The search space
is every subset of the candidate pool, capped up front (default 2**24
subsets): TooLarge is raised when it would be bigger.  Below the cap it
always answers, since marking the whole pool is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .circuit import Circuit, Color, eval_levels, require_level
from .errors import TooLarge

DEFAULT_SUBSET_CAP = 1 << 24


@dataclass(frozen=True)
class ExactResult:
    optimum: int
    witness: frozenset[int]
    explored: int


def exact_bootstrap(
    circuit: Circuit, level: int, max_subsets: int = DEFAULT_SUBSET_CAP
) -> ExactResult:
    """Minimum-cardinality feasible mark set by brute force.

    White vertices are excluded from the candidate pool (marking them never
    changes any level); marking every other vertex is feasible for any L >= 1,
    so the whole pool is returned unchecked when no smaller subset is.
    Subsets of one size are tried in lexicographic order.  Raises TooLarge
    when the 2**len(pool) subsets outnumber max_subsets, and ValueError when
    max_subsets < 1.
    """
    require_level(level)
    if max_subsets < 1:
        raise ValueError(f"subset cap must be >= 1, got {max_subsets}")
    pool = [v for v in range(circuit.n) if circuit.colors[v] is not Color.WHITE]
    n = len(pool)
    if 1 << n > max_subsets:
        raise TooLarge(f"candidate space over {n} vertices exceeds {max_subsets} subsets")
    explored = 0
    for size in range(n):
        for combo in combinations(pool, size):
            explored += 1
            marks = frozenset(combo)
            if max(eval_levels(circuit, marks), default=0) <= level:
                return ExactResult(optimum=size, witness=marks, explored=explored)
    return ExactResult(optimum=n, witness=frozenset(pool), explored=explored + 1)
