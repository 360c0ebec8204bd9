"""Exhaustive optimum, the ground truth `solve --method exact` reports.

exact_bootstrap tries candidate mark sets in increasing cardinality, stopping
at the first feasible one, so the witness has minimum size.  The search space
is every subset of the candidate pool, capped up front (default 2**24
subsets): TooLarge is raised when it would be bigger.  The block kernel
checks every answer, even the whole pool, which is tried last and is always
feasible, so below the cap the search always answers.

No set smaller than the disjoint-row bound (disjoint_rows) is feasible, so
the search starts at that size.  Subsets are evaluated in numpy blocks of
BLOCK_MIN growing to BLOCK_MAX, in the same order; `explored` is the
witness's position in the full (size, lexicographic) order, counting the
skipped smaller sizes, not the number of subsets evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

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


def disjoint_rows(circuit: Circuit, level: int) -> list[tuple[int, ...]]:
    """Interesting paths, less their final vertex, that share no vertex.

    An interesting path runs from a Red vertex to a Red vertex through
    level + 1 Reds, and every feasible mark set holds one of its non-final
    vertices.  These rows are disjoint, so each needs its own mark and no set
    of fewer than len(rows) marks is feasible.  The rows are found greedily:
    levels are swept in topological order with the rows found so far as
    marks.  The first vertex above `level` is Red at level + 1; walking back
    through unmarked predecessors at the level it took (one lower past each
    Red) reaches a Red at level 1, and the vertices walked past form the
    next row.  The sweep resumes after that Red, the row's first vertex.
    """
    colors, preds, topo = circuit.colors, circuit.preds, circuit.topo
    levels = [0] * circuit.n
    cut: set[int] = set()
    rows: list[tuple[int, ...]] = []
    i = 0
    while i < len(topo):
        v = topo[i]
        i += 1
        lv = 0
        for u in preds[v]:
            if levels[u] > lv and u not in cut:
                lv = levels[u]
        if colors[v] is Color.RED:
            lv += 1
        levels[v] = lv
        if lv <= level:
            continue
        row = []
        want = level
        while want:
            v = next(u for u in preds[v] if u not in cut and levels[u] == want)
            row.append(v)
            want = levels[v] - (colors[v] is Color.RED)
        cut.update(row)
        rows.append(tuple(reversed(row)))
        i = topo.index(v) + 1
    return rows


def exact_bootstrap(
    circuit: Circuit, level: int, max_subsets: int = DEFAULT_SUBSET_CAP
) -> ExactResult:
    """Minimum-cardinality feasible mark set by brute force.

    White vertices are excluded from the candidate pool (marking them never
    changes any level); marking every other vertex is feasible for any L >= 1,
    so the whole pool, tried last, always passes.  Subsets of one size are
    tried in lexicographic order, from the size of the disjoint-row bound
    up; `explored` still counts the smaller sizes.  Raises TooLarge when the
    2**len(pool) subsets outnumber max_subsets, and ValueError when
    max_subsets < 1.
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
    bound = len(disjoint_rows(circuit, level))
    stream = chain.from_iterable(combinations(range(n), k) for k in range(bound, n + 1))
    explored = sum(comb(n, k) for k in range(bound))
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
