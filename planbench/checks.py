"""Checks on the program's outputs, computed apart from the program.

Nothing here imports bootplan.  Outputs arrive as vertex names (or values
keyed by the benchmark's own vertex ids, translated through the names), and
are judged on the benchmark's own `Graph`: its own noise-level evaluator, its
own shortest-path sweep over (vertex, Red count) states, and HiGHS through
`scipy.optimize.linprog` as a second LP solver.  Each check raises
CheckFailed with a message naming what was wrong.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from graphs import RED, WHITE, Graph

PATH_TOL = 1e-7  # the program's own violation tolerance
OBJECTIVE_TOL = 1e-6


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def ids_of(graph: Graph, names: Iterable[str]) -> set[int]:
    index = graph.index
    out = set()
    for name in names:
        if name not in index:
            raise CheckFailed(f"output names unknown vertex {name!r}")
        out.add(index[name])
    return out


def noise_levels(graph: Graph, marked: set[int]) -> list[int]:
    """level(v): 0 for White, max over unmarked predecessors (+1 if Red)."""
    colors = graph.colors
    levels = [0] * graph.n
    for v, ps in enumerate(graph.preds):
        if colors[v] == WHITE:
            continue
        m = 0
        for u in ps:
            if u not in marked and levels[u] > m:
                m = levels[u]
        levels[v] = m + 1 if colors[v] == RED else m
    return levels


def worst_level(graph: Graph, marked: set[int]) -> tuple[int, int]:
    """The highest level under the marks and the first vertex that has it."""
    levels = noise_levels(graph, marked)
    worst = max(levels, default=0)
    return worst, levels.index(worst) if levels else -1


def check_feasible(graph: Graph, level: int, mark_names: Iterable[str]) -> set[int]:
    marked = ids_of(graph, mark_names)
    worst, v = worst_level(graph, marked)
    if worst > level:
        raise CheckFailed(f"marks leave vertex {graph.names[v]} at level {worst} > {level}")
    return marked


def shortest_interesting_lengths(
    graph: Graph, level: int, weights: Sequence[float]
) -> list[float]:
    """For each vertex, the least weight of an interesting path ending there.

    A path starts at a Red vertex and its length sums the weights of every
    vertex but the last.  dist[v][c] is the least length of such a path
    ending at v with c Red vertices on it (v included); interesting paths
    end at a Red v with c = level + 1.  Vertices that end none get +inf.
    """
    inf = math.inf
    top = level + 1
    colors = graph.colors
    dist: list[list[float] | None] = [None] * graph.n
    out = [inf] * graph.n
    for v, ps in enumerate(graph.preds):
        if colors[v] == WHITE:
            continue
        row = [inf] * (top + 1)
        shift = 1 if colors[v] == RED else 0
        for u in ps:
            du = dist[u]
            if du is None:
                continue
            xu = weights[u]
            for c in range(1, top + 1 - shift):
                cand = du[c] + xu
                if cand < row[c + shift]:
                    row[c + shift] = cand
        if shift:
            row[1] = 0.0
            out[v] = row[top]
        dist[v] = row
    return out


def check_row_is_path(graph: Graph, level: int, row: Sequence[int]) -> None:
    """A master row must be the non-final vertices of an interesting path.

    Ids ascend along every edge, so sorting the row recovers the path order.
    """
    path = sorted(row)
    colors = graph.colors
    if not path or colors[path[0]] != RED:
        raise CheckFailed(f"LP row {path} does not start at a Red vertex")
    for u, w in zip(path, path[1:]):
        if u not in graph.preds[w]:
            raise CheckFailed(f"LP row {path} has no edge {u} -> {w}")
    reds = sum(1 for v in path if colors[v] == RED)
    if reds != level:
        raise CheckFailed(f"LP row {path} holds {reds} Red vertices, expected {level}")
    if not any(colors[w] == RED for w in graph.succs[path[-1]]):
        raise CheckFailed(f"LP row {path} cannot be closed by a Red final vertex")


def highs_objective(rows: Sequence[Sequence[int]]) -> float:
    """min sum y  s.t.  sum_{v in row} y_v >= 1 per row,  0 <= y <= 1."""
    if not rows:
        return 0.0
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    cols = sorted(set().union(*rows))
    col = {v: i for i, v in enumerate(cols)}
    indices = [col[v] for row in rows for v in row]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    a = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(len(rows), len(cols)))
    res = linprog(
        np.ones(len(cols)), A_ub=-a, b_ub=-np.ones(len(rows)), bounds=(0, 1), method="highs"
    )
    if res.status != 0:
        raise CheckFailed(f"HiGHS could not solve the restricted master: {res.message}")
    return float(res.fun)


def check_lp(
    graph: Graph,
    level: int,
    weights: Sequence[float],
    objective: float,
    rows: Sequence[Sequence[int]],
) -> None:
    """Certify that `objective` is the optimum of the full covering LP.

    The weights must be feasible for every interesting path (so objective is
    an upper bound), and HiGHS on the returned rows, each a genuine
    interesting-path row, must reach the same value (a lower bound).
    """
    if any(not -OBJECTIVE_TOL <= x <= 1 + OBJECTIVE_TOL for x in weights):
        raise CheckFailed("LP weights leave [0, 1]")
    if abs(sum(weights) - objective) > OBJECTIVE_TOL:
        raise CheckFailed(f"LP weights sum to {sum(weights)}, objective says {objective}")
    lengths = shortest_interesting_lengths(graph, level, weights)
    shortest = min(lengths, default=math.inf)
    if shortest < 1.0 - PATH_TOL:
        v = lengths.index(shortest)
        raise CheckFailed(
            f"interesting path ending at {graph.names[v]} has length {shortest:.9f} < 1"
        )
    for row in rows:
        check_row_is_path(graph, level, row)
    reference = highs_objective(rows)
    if abs(reference - objective) > OBJECTIVE_TOL:
        raise CheckFailed(f"LP objective {objective:.9f} but HiGHS finds {reference:.9f}")


def check_chain(level: int, lp_objective: float, rounded: int, optimum: int | None = None) -> None:
    """LP <= rounded <= L * LP; with an exact optimum also LP <= OPT <= rounded,
    and rounded == OPT when L = 1."""
    if optimum is not None:
        if not lp_objective - OBJECTIVE_TOL <= optimum <= rounded:
            raise CheckFailed(f"optimum {optimum} outside [LP {lp_objective}, rounded {rounded}]")
        if level == 1 and rounded != optimum:
            raise CheckFailed(f"rounded {rounded} != optimum {optimum} at L = 1")
    if not lp_objective - OBJECTIVE_TOL <= rounded <= level * lp_objective + OBJECTIVE_TOL:
        raise CheckFailed(f"rounded {rounded} outside [LP, L*LP] = [{lp_objective}, {level}*LP]")


def check_verdict(
    level: int,
    expect_worst: int,
    expect_violator: str,
    feasible: bool,
    worst: int,
    violator: str,
) -> None:
    """A check verdict must match the benchmark evaluator's on the same marks."""
    if feasible != (expect_worst <= level):
        raise CheckFailed(f"verdict feasible={feasible}, evaluator says max level {expect_worst}")
    if worst != expect_worst or violator != expect_violator:
        raise CheckFailed(
            f"check reports level {worst} at {violator!r}, evaluator {expect_worst} at "
            f"{expect_violator!r}"
        )
