"""Independent reference implementations used as test ground truth.

Everything here is written against the raw edge list with its own recursion,
on purpose: these are second routes, not wrappers around package code.  The
DAG vertex deletion half of the reduction proof (a random instance and its
file text, the exact deletion optimum, and the map from reduced marks back to
a deletion set) lives here too, since only tests run it, and so do the
invariants the LP master assumes of its caller and no longer checks itself,
the line-based graph reader with its per-edge checks and heap-only Kahn
order, which the regex reader and array checks must match, the per-pred
level sweep, which the sweep over gate pairs must match bit for bit, and the
covering program in its compact potentials form, which needs neither
bootplan's separation nor its evaluator.
"""

from __future__ import annotations

import heapq
import math
import random
from collections.abc import Callable, Iterable, Sequence, Set
from itertools import combinations

import numpy as np

from bootplan.circuit import Circuit, Color, name_tuple, require_level
from bootplan.dvd import DvdInstance, ReductionMap, validate_dvd
from bootplan.errors import CycleDetected, IndegreeViolation, ParseError, UnknownVertex
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


def level_lengths_reference(
    circuit: Circuit, level: int, weights: Sequence[float]
) -> LevelTables:
    """paths.level_lengths as it was before its sweep over gate pairs, rows
    1..level: one loop over each vertex's preds, a NaN weight's candidate
    skipped."""
    require_level(level)
    n = circuit.n
    if len(weights) != n:
        raise ValueError("weights must assign a value to every vertex")
    x = [float(w) for w in weights]
    colors = circuit.colors
    preds = circuit.preds
    topo = circuit.topo
    inf = math.inf

    lengths = [[inf] * n for _ in range(level + 1)]

    for i in range(1, level + 1):
        row = lengths[i]
        prev = lengths[i - 1]
        for v in topo:
            color = colors[v]
            if color is Color.WHITE:
                continue
            if color is Color.RED:
                if i == 1:
                    row[v] = 0.0
                    continue
                src = prev
            else:
                src = row
            # An explicit loop: min() over a generator is about twice as slow.
            best = inf
            for u in preds[v]:
                cand = src[u] + x[u]
                if cand < best:
                    best = cand
            row[v] = best

    return LevelTables(circuit, x, lengths)


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


def compact_covering(circuit: Circuit, level: int, integral: bool) -> float:
    """The optimum of the covering program over interesting paths, from its
    polynomial-size potentials form, solved by HiGHS with no row generation.

    Variables are x_v in [0, 1] and potentials d[i][v] >= 0 for i in
    1..level+1 over non-White v, with d[1][r] = 0 for each Red r, d[i][v] <=
    d[i'][u] + x_u for each non-White pred u of v (i' = i - 1 for a Red v,
    i' = i for a Blue one), and d[level+1][f] >= 1 for each Red f.  The
    potentials bound the least path lengths from below, so the constraints
    hold exactly when every interesting path has x-length >= 1.  With
    integral, x is 0/1 and the value is OPT; without, it is the LP bound.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    n, white, red = circuit.n, Color.WHITE, Color.RED
    gates = [v for v in range(n) if circuit.colors[v] is not white]
    pos = {v: k for k, v in enumerate(gates)}

    def d(i: int, v: int) -> int:
        return n + (i - 1) * len(gates) + pos[v]

    size = n + (level + 1) * len(gates)
    lb, ub = np.zeros(size), np.full(size, np.inf)
    ub[:n] = 1.0
    for r in gates:
        if circuit.colors[r] is red:
            ub[d(1, r)] = 0.0
            lb[d(level + 1, r)] = 1.0
    rows = []  # d[i][v] - d[i'][u] - x_u <= 0
    for u, v, _ in circuit.edges:
        if u in pos:
            is_red = circuit.colors[v] is red
            for i in range(2 if is_red else 1, level + 2):
                row = np.zeros(size)
                row[[d(i, v), d(i - 1 if is_red else i, u), u]] = 1.0, -1.0, -1.0
                rows.append(row)
    result = milp(
        np.r_[np.ones(n), np.zeros(size - n)],
        constraints=[LinearConstraint(np.array(rows), -np.inf, 0.0)] if rows else [],
        bounds=Bounds(lb, ub),
        integrality=np.r_[np.full(n, int(integral)), np.zeros(size - n, int)],
    )
    assert result.success, result.message
    return float(result.fun)


def assert_master_input(
    n: int, rows: Sequence[Set[int]], master: Master, earlier: Sequence[Set[int]]
) -> None:
    """What lp.solve_restricted_master assumes of its caller and does not
    check: every row is nonempty and within 0..n-1, the rows extend the
    previous call's `earlier`, and the carried master is that call's.  Its
    vertices are those of `earlier` in descending order, its packing matrix
    holds exactly the rows of `earlier`, and each tableau row's basic column
    is one of its packing or slack columns.  The tableau's last row holds
    the reduced costs of the basis, within 1e-9."""
    for row in rows:
        assert row and all(0 <= v < n for v in row), f"bad row {sorted(row)}"
    assert list(rows[: len(earlier)]) == list(earlier), "rows do not extend the last master's"
    assert master.vertices == sorted(set().union(*earlier), reverse=True), "vertices differ"
    held = [frozenset(master.vertices[j] for j in np.flatnonzero(c)) for c in master.packing.T]
    assert held == list(earlier), "packing matrix holds other rows"
    k, m = master.packing.shape
    assert master.tableau.shape == (k + 1, m + k + 1)
    assert master.basis.shape == (k,) and all(0 <= c < m + k for c in master.basis), "bad basis"
    cost = np.concatenate([np.ones(m), np.zeros(k + 1)])
    reduced = cost - cost[master.basis] @ master.tableau[:-1]
    assert np.abs(master.tableau[-1] - reduced).max() <= 1e-9, "reduced costs drifted"


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


# The line-based reader and the per-edge checks behind it, as bootplan had
# them before its regex reader and array checks; kept as the reference the
# differential tests compare against, so only names changed.


def kahn_order(
    pred_sets: Sequence[Set[int]], what: str
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Topological order plus ascending distinct preds of a graph on 0..n-1.

    pred_sets[v] holds the distinct predecessors of v, all in range.  Kahn's
    algorithm runs on successor lists built from the sorted preds, and pops
    the smallest ready id first, so the order is deterministic.
    Raises CycleDetected("<what> contains a cycle") when the graph is cyclic.
    """
    n = len(pred_sets)
    preds = tuple(tuple(sorted(s)) for s in pred_sets)
    succs: list[list[int]] = [[] for _ in range(n)]
    for v, ps in enumerate(preds):
        for u in ps:
            succs[u].append(v)

    remaining = [len(ps) for ps in preds]
    ready = [v for v in range(n) if remaining[v] == 0]
    heapq.heapify(ready)
    topo: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        topo.append(v)
        for w in succs[v]:
            remaining[w] -= 1
            if remaining[w] == 0:
                heapq.heappush(ready, w)
    if len(topo) != n:
        raise CycleDetected(f"{what} contains a cycle")
    return tuple(topo), preds


def _plain(x):
    """A numpy integer as the Python int it stands for; anything else as is."""
    return int(x) if isinstance(x, np.integer) else x


def validate_reference(
    colors: Sequence[Color],
    raw_edges: Iterable[tuple[int, int, int]],
    names: Iterable[str] | None = None,
) -> Circuit:
    """Check structure and build an immutable Circuit.

    colors[v] is the color of vertex v, so ids are 0..len(colors)-1; raw_edges
    yields (src, dst, multiplicity) triples of ints or numpy integers,
    multiplicity 1 or 2, and parallel occurrences are aggregated; names
    default to v0..v{n-1}.  Raises ValueError for edges of another length,
    UnknownVertex for dangling edge endpoints, IndegreeViolation when a
    color's indegree rule fails (White: 0, Blue/Red: exactly 2 counting
    multiplicity), and CycleDetected when the graph is not acyclic.  The returned topological order is recomputed, so
    edge order does not matter.
    """
    color_tuple = tuple(colors)
    n = len(color_tuple)
    for vid, color in enumerate(color_tuple):
        if not isinstance(color, Color):
            raise ValueError(f"bad color for vertex {vid}: {color!r}")

    named = name_tuple(names, n)

    indeg = [0] * n
    pred_sets: list[set[int]] = [set() for _ in range(n)]
    for edge in raw_edges:
        src, dst, m = map(_plain, edge)
        for endpoint in (src, dst):
            if not isinstance(endpoint, int) or endpoint < 0 or endpoint >= n:
                raise UnknownVertex(endpoint)
        if not isinstance(m, int) or m not in (1, 2):
            raise ValueError(f"edge multiplicity must be 1 or 2, got {m!r}")
        indeg[dst] += m
        pred_sets[dst].add(src)

    for v in range(n):
        expected = 0 if color_tuple[v] is Color.WHITE else 2
        if indeg[v] != expected:
            raise IndegreeViolation(v, expected, indeg[v], named[v])

    topo, preds = kahn_order(pred_sets, "circuit graph")

    return Circuit(color_tuple, topo, preds, named)


def validate_dvd_reference(
    n: int,
    raw_edges: Iterable[tuple[int, int]],
    names: Iterable[str] | None = None,
) -> DvdInstance:
    """Simple-graph DAG over ids 0..n-1; duplicate edges collapse, and names
    default to v0..v{n-1}."""
    pred_sets: list[set[int]] = [set() for _ in range(n)]
    for edge in raw_edges:
        src, dst = map(_plain, edge)
        for endpoint in (src, dst):
            if not isinstance(endpoint, int) or endpoint < 0 or endpoint >= n:
                raise UnknownVertex(endpoint)
        pred_sets[dst].add(src)

    named = name_tuple(names, n)
    _, preds = kahn_order(pred_sets, "deletion instance")  # raises on a cycle
    return DvdInstance(preds=preds, names=named)


_COLORS = {c.value: c for c in Color}


def _lines(text: str):
    # Lines end only at \n, \r\n and \r: str.splitlines would also end them
    # at form feeds and other separators, and so end a comment early.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _nodes(text: str, ids: dict[str, int], usage: str, source: str):
    """First pass: (lineno, tokens) per node line, once its token count is
    checked against `usage` and its new name given the next id in `ids`.
    Edge lines are skipped; any other directive raises."""
    count = len(usage.split())
    for lineno, tokens in _lines(text):
        if tokens[0] == "node":
            if len(tokens) != count:
                raise ParseError(f"expected: {usage}", source, lineno)
            if tokens[1] in ids:
                raise ParseError(f"duplicate node name {tokens[1]!r}", source, lineno)
            ids[tokens[1]] = len(ids)
            yield lineno, tokens
        elif tokens[0] != "edge":
            raise ParseError(f"unknown directive {tokens[0]!r}", source, lineno)


def _edges(text: str, ids: dict[str, int], usage: str, source: str):
    """Second pass: (src, dst, multiplicity) per edge line, checked against
    the declared `ids` and against `usage`, whose token count caps the line's."""
    most = len(usage.split())
    for lineno, tokens in _lines(text):
        if tokens[0] != "edge":
            continue
        if not 3 <= len(tokens) <= most:
            raise ParseError(f"expected: {usage}", source, lineno)
        for name in tokens[1:3]:
            if name not in ids:
                raise ParseError(f"edge references undeclared node {name!r}", source, lineno)
        mult = 1
        if len(tokens) == 4:
            if tokens[3] not in ("1", "2"):
                raise ParseError(f"bad multiplicity {tokens[3]!r}", source, lineno)
            mult = int(tokens[3])
        yield ids[tokens[1]], ids[tokens[2]], mult


def parse_circuit_reference(text: str, source: str = "<circuit>") -> Circuit:
    ids: dict[str, int] = {}  # in declaration order, so its keys are the names
    colors: list[Color] = []
    for lineno, tokens in _nodes(text, ids, "node <name> <white|blue|red>", source):
        if tokens[2] not in _COLORS:
            raise ParseError(f"unknown color {tokens[2]!r}", source, lineno)
        colors.append(_COLORS[tokens[2]])
    edges = _edges(text, ids, "edge <src> <dst> [multiplicity]", source)
    return validate_reference(colors, edges, names=ids)


def parse_dvd_reference(text: str, source: str = "<dvd>") -> DvdInstance:
    ids: dict[str, int] = {}  # in declaration order, so its keys are the names
    for _ in _nodes(text, ids, "node <name>", source):
        pass
    edges = _edges(text, ids, "edge <src> <dst>", source)
    return validate_dvd_reference(len(ids), ((u, v) for u, v, _ in edges), names=ids)


def parse_marks_reference(
    text: str, circuit: Circuit, source: str = "<marks>"
) -> frozenset[int]:
    ids = {circuit.name_of(v): v for v in range(circuit.n)}
    marks: set[int] = set()
    for lineno, tokens in _lines(text):
        for name in tokens:
            if name not in ids:
                raise ParseError(f"unknown vertex name {name!r}", source, lineno)
            marks.add(ids[name])
    return frozenset(marks)
