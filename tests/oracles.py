"""Independent reference implementations used as test ground truth.

Everything here is written against the raw edge list with its own recursion,
on purpose: these are second routes, not wrappers around package code.  The
DAG vertex deletion half of the reduction proof (a random instance and its
file text, the exact deletion optimum, and the map from reduced marks back to
a deletion set) lives here too, since only tests run it, and so do the
invariants the LP master assumes of its caller and no longer checks itself.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Sequence, Set
from itertools import combinations

import numpy as np

from bootplan.circuit import Circuit, Color
from bootplan.dvd import DvdInstance, ReductionMap, validate_dvd
from bootplan.exact import ExactResult
from bootplan.lp import Master
from bootplan.paths import LevelTables


def _succ_map(circuit: Circuit) -> dict[int, set[int]]:
    succ: dict[int, set[int]] = {v: set() for v in range(circuit.n)}
    for src, dst, _ in circuit.edges:
        succ[src].add(dst)
    return succ


def all_paths(circuit: Circuit) -> list[tuple[int, ...]]:
    """Every directed path (single vertices included), vertex sequences."""
    succ = _succ_map(circuit)
    out: list[tuple[int, ...]] = []

    def grow(path: list[int]) -> None:
        out.append(tuple(path))
        for w in sorted(succ[path[-1]]):
            path.append(w)
            grow(path)
            path.pop()

    for v in range(circuit.n):
        grow([v])
    return out


def interesting_paths_brute(circuit: Circuit, level: int) -> list[tuple[int, ...]]:
    reds = {v for v in range(circuit.n) if circuit.colors[v] is Color.RED}
    found = [
        p
        for p in all_paths(circuit)
        if p[0] in reds and p[-1] in reds and sum(1 for v in p if v in reds) == level + 1
    ]
    return sorted(found)


def feasible_by_paths_brute(circuit: Circuit, marks: frozenset[int], level: int) -> bool:
    """Covering view: every interesting path has a marked non-final vertex."""
    return all(not marks.isdisjoint(p[:-1]) for p in interesting_paths_brute(circuit, level))


def levels_brute(circuit: Circuit, marks: frozenset[int]) -> list[int]:
    """Levels straight from the defining recursion, memoized over predecessors."""
    pred: dict[int, list[int]] = {v: [] for v in range(circuit.n)}
    for src, dst, _ in circuit.edges:
        pred[dst].append(src)
    memo: dict[int, int] = {}

    def level(v: int) -> int:
        if v in memo:
            return memo[v]
        if circuit.colors[v] is Color.WHITE:
            memo[v] = 0
            return 0
        contribs = [0 if u in marks else level(u) for u in pred[v]]
        val = max(contribs, default=0)
        if circuit.colors[v] is Color.RED:
            val += 1
        memo[v] = val
        return val

    return [level(v) for v in range(circuit.n)]


def feasible_brute(circuit: Circuit, marks: frozenset[int], level: int) -> bool:
    return max(levels_brute(circuit, marks), default=0) <= level


def min_lengths_brute(
    circuit: Circuit, level: int, weights: list[float]
) -> dict[tuple[int, int], float]:
    """(final, red count) -> least non-final weight sum over paths starting Red."""
    reds = {v for v in range(circuit.n) if circuit.colors[v] is Color.RED}
    best: dict[tuple[int, int], float] = {}
    for p in all_paths(circuit):
        if p[0] not in reds:
            continue
        redcount = sum(1 for v in p if v in reds)
        if redcount > level + 1:
            continue
        length = sum(weights[v] for v in p[:-1])
        key = (p[-1], redcount)
        if length < best.get(key, math.inf):
            best[key] = length
    return best


def blue_distances_brute(
    circuit: Circuit, weights: list[float]
) -> dict[int, dict[int, float]]:
    """{red u: {blue v: least non-final weight sum over u..v paths, interior all Blue}}."""
    colors = circuit.colors
    out: dict[int, dict[int, float]] = {
        v: {} for v in range(circuit.n) if colors[v] is Color.RED
    }
    for p in all_paths(circuit):
        u, v = p[0], p[-1]
        if colors[u] is not Color.RED or colors[v] is not Color.BLUE:
            continue
        if any(colors[w] is not Color.BLUE for w in p[1:-1]):
            continue
        length = sum(weights[w] for w in p[:-1])
        if length < out[u].get(v, math.inf):
            out[u][v] = length
    return out


def round_at(tables: LevelTables, level: int, t: float) -> frozenset[int]:
    """Threshold rounding read straight off the table: v is marked when t lies
    in [lengths[i][v], lengths[i][v] + x_v], within 1e-9, for some i in 1..level."""
    x = tables.weights
    return frozenset(
        v
        for v in range(len(x))
        if any(
            tables.lengths[i][v] - 1e-9 <= t <= tables.lengths[i][v] + x[v] + 1e-9
            for i in range(1, level + 1)
        )
    )


def covering_lp_by_vertex_enumeration(
    rows: list[frozenset[int]], nvars: int
) -> float:
    """Exact LP optimum by enumerating basic feasible points of
    {Ax >= 1, 0 <= x <= 1}: every vertex solves nvars tight constraints."""
    constraints: list[tuple[np.ndarray, float]] = []
    for r in rows:
        coeff = np.zeros(nvars)
        for v in r:
            coeff[v] = 1.0
        constraints.append((coeff, 1.0))
    for i in range(nvars):
        e = np.zeros(nvars)
        e[i] = 1.0
        constraints.append((e, 0.0))
        constraints.append((e, 1.0))

    best = math.inf
    for chosen in combinations(range(len(constraints)), nvars):
        a = np.array([constraints[i][0] for i in chosen])
        b = np.array([constraints[i][1] for i in chosen])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if (x < -1e-9).any() or (x > 1 + 1e-9).any():
            continue
        if any(c @ x < rhs - 1e-9 for c, rhs in constraints[: len(rows)]):
            continue
        best = min(best, float(x.sum()))
    return best


def assert_master_input(
    n: int, rows: Sequence[Set[int]], master: Master, earlier: Sequence[Set[int]]
) -> None:
    """What lp.solve_restricted_master assumes of its caller and does not
    check: every row is nonempty and within 0..n-1, the rows extend the
    previous call's `earlier`, and the carried master is that call's.  Its
    vertices are those of `earlier` in descending order, its packing matrix
    holds exactly the rows of `earlier`, and each tableau row's basic column
    is one of its packing or slack columns."""
    for row in rows:
        assert row and all(0 <= v < n for v in row), f"bad row {sorted(row)}"
    assert list(rows[: len(earlier)]) == list(earlier), "rows do not extend the last master's"
    assert master.vertices == sorted(set().union(*earlier), reverse=True), "vertices differ"
    held = [frozenset(master.vertices[j] for j in np.flatnonzero(c)) for c in master.packing.T]
    assert held == list(earlier), "packing matrix holds other rows"
    k, m = master.packing.shape
    assert master.tableau.shape == (k, m + k + 1) and master.reduced.shape == (m + k + 1,)
    assert master.basis.shape == (k,) and all(0 <= c < m + k for c in master.basis), "bad basis"


def dvd_edges(instance: DvdInstance) -> tuple[tuple[int, int], ...]:
    """Distinct (src, dst) arcs of a deletion instance, sorted by endpoints."""
    return tuple(sorted((u, v) for v, ps in enumerate(instance.preds) for u in ps))


def longest_path_brute(instance: DvdInstance, deleted: frozenset[int]) -> int:
    succ: dict[int, list[int]] = {v: [] for v in range(instance.n)}
    for src, dst in dvd_edges(instance):
        succ[src].append(dst)
    best = 0

    def grow(v: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        for w in succ[v]:
            if w not in deleted:
                grow(w, count + 1)

    for v in range(instance.n):
        if v not in deleted:
            grow(v, 1)
    return best


def smallest_feasible(
    pool: Sequence[int], feasible: Callable[[frozenset[int]], bool]
) -> ExactResult:
    """First feasible subset of `pool` in (size, lexicographic) order, with the
    number of subsets tried; the whole pool, taken as feasible unchecked, when
    no smaller subset is."""
    explored = 0
    for size in range(len(pool)):
        for combo in combinations(pool, size):
            explored += 1
            if feasible(frozenset(combo)):
                return ExactResult(size, frozenset(combo), explored)
    return ExactResult(len(pool), frozenset(pool), explored + 1)


def exact_dvd(instance: DvdInstance, level: int) -> ExactResult:
    """Minimum deletion set leaving no path of `level` vertices, by brute force
    over all vertices; deleting every vertex is feasible."""
    return smallest_feasible(
        range(instance.n), lambda deleted: longest_path_brute(instance, deleted) <= level - 1
    )


def gadget_owner(rmap: ReductionMap) -> dict[int, int]:
    """Blue gadget vertex -> the original whose in-edges its chain replaces."""
    return {w: v for v, chain in rmap.gadget_of.items() for w in chain}


def pull_back(rmap: ReductionMap, marks: frozenset[int], level: int) -> frozenset[int]:
    """Deletion set from a mark set feasible for `level`, never larger.

    Marked Blue gadget vertices are relocated onto their owning original
    (each single relocation preserves feasibility, so relocating them all,
    in any order, does too); everything outside the originals, the ids below
    len(clone_of), is then dropped.
    """
    if not feasible_brute(rmap.circuit, marks, level):
        raise ValueError("mark set is not feasible for the reduced circuit")
    owner = gadget_owner(rmap)
    relocated = (owner.get(w, w) for w in marks)
    return frozenset(v for v in relocated if v < len(rmap.clone_of))


def random_dvd(n: int, seed: int, edge_probability: float = 0.3) -> DvdInstance:
    """Random DAG on 0..n-1 with forward edges drawn independently."""
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_probability
    ]
    return validate_dvd(n, edges)


def format_dvd(instance: DvdInstance) -> str:
    """The file text that formats.parse_dvd reads back as `instance`."""
    out = [f"node {name}" for name in instance.names]
    out.extend(f"edge {instance.names[u]} {instance.names[v]}" for u, v in dvd_edges(instance))
    return "\n".join(out) + "\n" if out else ""
