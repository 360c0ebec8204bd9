"""Exhaustive optimum, the ground truth `solve --method exact` reports.

exact_bootstrap tries candidate mark sets in increasing cardinality, stopping
at the first feasible one, so the witness has minimum size.  The search space
is every subset of the candidate pool, capped up front (default 2**24
subsets): TooLarge is raised when it would be bigger.  The block kernel
checks every answer, even the whole pool, which is tried last and is always
feasible, so below the cap the search always answers.

Subsets are evaluated in numpy blocks of BLOCK_MIN growing to BLOCK_MAX, in
the same order; `explored` is the witness's position in that order, not the
number of subsets evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .circuit import Circuit, Color, require_level
from .errors import TooLarge

DEFAULT_SUBSET_CAP = 1 << 24
# Blocks start small since many searches end within a few subsets.
BLOCK_MIN = 16
BLOCK_MAX = 2048


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
    so the whole pool, tried last, always passes.  Subsets of one size are
    tried in lexicographic order.  Raises TooLarge when the 2**len(pool)
    subsets outnumber max_subsets, and ValueError when max_subsets < 1.
    """
    require_level(level)
    if max_subsets < 1:
        raise ValueError(f"subset cap must be >= 1, got {max_subsets}")
    pool = [v for v in range(circuit.n) if circuit.colors[v] is not Color.WHITE]
    n = len(pool)
    if 1 << n > max_subsets:
        raise TooLarge(f"candidate space over {n} vertices exceeds {max_subsets} subsets")
    # Vertices are rows by pool position; White predecessors read row n, all 0.
    row = {v: i for i, v in enumerate(pool)}
    sweep = [
        (row[v], [row.get(u, n) for u in circuit.preds[v]], circuit.colors[v] is Color.RED)
        for v in circuit.topo
        if v in row
    ]
    stream = chain.from_iterable(combinations(range(n), k) for k in range(n + 1))
    explored = 0
    block = BLOCK_MIN
    while batch := list(islice(stream, block)):
        cols = len(batch)
        marked = np.fromiter(chain.from_iterable(batch), np.intp)
        keep = np.ones((n, cols), np.int64)
        keep[marked, np.repeat(np.arange(cols), list(map(len, batch)))] = 0
        # passed: each vertex's level, 0 where marked; top: each subset's
        # highest level.  Levels count Reds on a path, so int64 cannot wrap.
        passed = np.zeros((n + 1, cols), np.int64)
        top = np.zeros(cols, np.int64)
        for i, ps, red in sweep:
            lv = np.maximum(passed[ps[0]], passed[ps[-1]])
            if red:
                lv += 1
                np.maximum(top, lv, out=top)
            np.multiply(lv, keep[i], out=passed[i])
        hits = np.flatnonzero(top <= level)
        if hits.size:
            first = batch[hits[0]]
            witness = frozenset(pool[i] for i in first)
            return ExactResult(len(first), witness, explored + int(hits[0]) + 1)
        explored += cols
        block = min(2 * block, BLOCK_MAX)
