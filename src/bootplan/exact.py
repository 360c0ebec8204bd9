"""Exhaustive oracles, used as ground truth by tests and the CLI.

exact_bootstrap and exact_dvd run one subset search: candidate subsets in
increasing cardinality, stopping at the first feasible one, so the witness
has minimum size.  The search space is every subset of the candidate pool,
capped up front (default 2**24 subsets): TooLarge is raised when it would be
bigger.  Below the cap both oracles always answer, since the whole pool is
feasible.  DVD feasibility itself lives in bootplan.dvd.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import combinations

from .circuit import Circuit, Color, eval_levels, require_level
from .dvd import DvdInstance, dvd_is_feasible
from .errors import TooLarge

DEFAULT_SUBSET_CAP = 1 << 24


@dataclass(frozen=True)
class ExactResult:
    optimum: int
    witness: frozenset[int]
    explored: int


def require_subset_cap(max_subsets: int) -> None:
    """Raise ValueError unless the subset cap admits at least one subset."""
    if max_subsets < 1:
        raise ValueError(f"subset cap must be >= 1, got {max_subsets}")


def _smallest_feasible(
    pool: Sequence[int],
    feasible: Callable[[frozenset[int]], bool],
    max_subsets: int,
) -> ExactResult:
    """First feasible subset of `pool` in (size, lexicographic) order.

    The whole pool must be feasible; it is returned unchecked when no smaller
    subset is.  Raises TooLarge when the 2**len(pool) subsets outnumber
    max_subsets, and ValueError when max_subsets < 1.
    """
    require_subset_cap(max_subsets)
    n = len(pool)
    if 1 << n > max_subsets:
        raise TooLarge(f"candidate space over {n} vertices exceeds {max_subsets} subsets")
    explored = 0
    for size in range(n):
        for combo in combinations(pool, size):
            explored += 1
            subset = frozenset(combo)
            if feasible(subset):
                return ExactResult(optimum=size, witness=subset, explored=explored)
    return ExactResult(optimum=n, witness=frozenset(pool), explored=explored + 1)


def exact_bootstrap(
    circuit: Circuit, level: int, max_subsets: int = DEFAULT_SUBSET_CAP
) -> ExactResult:
    """Minimum-cardinality feasible mark set by brute force.

    White vertices are excluded from the candidate pool (marking them never
    changes any level); marking every other vertex is feasible for any L >= 1.
    """
    require_level(level)
    candidates = [v for v in range(circuit.n) if circuit.colors[v] is not Color.WHITE]
    return _smallest_feasible(
        candidates,
        lambda marks: max(eval_levels(circuit, marks), default=0) <= level,
        max_subsets,
    )


def exact_dvd(
    instance: DvdInstance, level: int, max_subsets: int = DEFAULT_SUBSET_CAP
) -> ExactResult:
    """Minimum-cardinality deletion set for DVD level L >= 2 by brute force
    over all vertices; deleting every vertex is feasible."""
    require_level(level, 2, "DVD level")
    return _smallest_feasible(
        range(instance.n), lambda deleted: dvd_is_feasible(instance, deleted, level), max_subsets
    )
