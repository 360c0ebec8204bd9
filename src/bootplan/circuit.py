"""Gate-circuit model and the noise-level recursion.

A circuit is a DAG with parallel edges allowed.  Colors encode gate kinds:
White vertices are inputs (indegree 0), Blue and Red vertices are gates with
indegree exactly 2 counting multiplicity.  Red gates are the noise-expensive
ones.  Given a set of marked (bootstrapped) vertices S, noise levels follow

    level(v) = 0                                        v White
    level(v) = max over in-edges (u,v) of masked(u)     v Blue
    level(v) = that max + 1                             v Red

where masked(u) = 0 if u is in S else level(u).  Marking a vertex resets its
contribution to successors only; its own level is unchanged.  A mark set is
feasible for budget L when every level stays <= L.

A vertex's id is its position in the color list, 0..n-1.  A circuit stores
colors, names, a topological order and distinct predecessors, and derives its
edge list from them (see Circuit); it is immutable and safe to share between
threads.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence, Set
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import CycleDetected, IndegreeViolation, UnknownVertex


class Color(Enum):
    WHITE = "white"
    BLUE = "blue"
    RED = "red"


@dataclass(frozen=True)
class Circuit:
    """Validated circuit.  Build instances through :func:`validate`.

    colors[v] is the color of vertex v; topo is a topological order of all
    ids; preds[v] lists the distinct predecessors of v in ascending order.
    edges is derived from preds by the indegree rule: a gate with one distinct
    predecessor has a double edge from it, one with two a single edge from each.
    """

    colors: tuple[Color, ...]
    topo: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.colors)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """(src, dst, multiplicity) triples sorted by endpoints."""
        return tuple(sorted((u, v, 2 // len(ps)) for v, ps in enumerate(self.preds) for u in ps))

    @cached_property
    def edge_count(self) -> int:
        """Number of edges counted with multiplicity: two per gate."""
        return 2 * (self.n - self.colors.count(Color.WHITE))

    @cached_property
    def red_vertices(self) -> tuple[int, ...]:
        red = Color.RED
        return tuple(v for v, color in enumerate(self.colors) if color is red)

    @cached_property
    def gates(self) -> tuple[tuple[int, bool, int, int], ...]:
        """(v, v is Red, first pred, last pred) per gate v, in topo order.

        Gates are the vertices with preds: two, or one behind a double edge,
        which is then both the first and the last.
        """
        red = Color.RED
        return tuple(
            (v, self.colors[v] is red, ps[0], ps[-1]) for v in self.topo if (ps := self.preds[v])
        )

    def name_of(self, v: int) -> str:
        return self.names[v]


def require_level(level: int) -> None:
    """Noise budgets are integers >= 1, checked at the boundary."""
    if not isinstance(level, int) or isinstance(level, bool) or level < 1:
        raise ValueError(f"noise budget must be an integer >= 1, got {level!r}")


def name_tuple(names: Iterable[str] | None, n: int) -> tuple[str, ...]:
    """The names of ids 0..n-1, v0..v{n-1} when none are given."""
    if names is None:
        return tuple(f"v{v}" for v in range(n))
    named = tuple(names)
    if len(named) != n:
        raise ValueError("names must cover every vertex")
    return named


def edge_columns(
    raw_edges: Sequence[Sequence[int]] | np.ndarray, n: int, width: int
) -> tuple[np.ndarray, ...]:
    """The columns of raw_edges, a sequence of width-tuples or an (E, width)
    integer array, as int64 arrays once every row is checked.

    The first two columns are endpoints, which must be ids 0..n-1; a third
    is a multiplicity, which must be 1 or 2.  The first bad row raises,
    UnknownVertex for its first bad endpoint, else ValueError.  Rows of
    another width, or entries that are not integers, raise ValueError.
    """
    edges = np.asarray(raw_edges)
    if edges.dtype.kind not in "iu":  # floats, or Python ints past int64
        edges = np.array(raw_edges, dtype=object)
        for at, x in np.ndenumerate(edges):  # numpy integers beside them are ints too
            if isinstance(x, np.integer):
                edges[at] = int(x)
    if len(edges) == 0:
        edges = np.zeros((0, width), dtype=np.int64)
    if (
        edges.ndim != 2
        or edges.shape[1] != width
        or edges.dtype == object and not all(isinstance(x, int) for x in edges.flat)
    ):
        raise ValueError(f"edges must be integer {width}-tuples")
    if len(edges):
        low, high = edges.min(0).tolist(), edges.max(0).tolist()
        if min(low[:2]) < 0 or max(high[:2]) >= n or not {*low[2:], *high[2:]} <= {1, 2}:
            for row in edges.tolist():
                for endpoint in row[:2]:
                    if not 0 <= endpoint < n:
                        raise UnknownVertex(endpoint)
                if row[2:] and row[2] not in (1, 2):
                    raise ValueError(f"edge multiplicity must be 1 or 2, got {row[2]!r}")
    # Every entry is now an id or 1 or 2, so it fits int64 whatever the dtype.
    return tuple(edges.astype(np.int64, copy=False).T)


def dag_order(
    n: int, src: np.ndarray, dst: np.ndarray, what: str
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Topological order plus ascending distinct preds of a graph on 0..n-1.

    src and dst are int arrays of edge endpoints, all in range; parallel
    edges collapse.  The order is Kahn's, popping the smallest ready id
    first, so it is deterministic.  That order is the identity exactly when
    every edge ascends in id, so then no heap runs.
    Raises CycleDetected("<what> contains a cycle") when the graph is cyclic.
    """
    # One sort of (dst, src) keys, deduplicated, gives each vertex's
    # distinct preds in ascending order, vertex after vertex.
    keys = dst * n + src
    keys.sort()
    twins = keys[1:] == keys[:-1]
    if twins.any():
        keys = np.delete(keys, np.flatnonzero(twins))
    dst, src = np.divmod(keys, max(n, 1))
    flat = src.tolist()
    ends = np.bincount(dst, minlength=n).cumsum().tolist()
    preds = tuple(tuple(flat[a:b]) for a, b in zip([0, *ends], ends))
    if (src < dst).all():
        return tuple(range(n)), preds

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


def validate(
    colors: Sequence[Color],
    raw_edges: Sequence[tuple[int, int, int]] | np.ndarray,
    names: Iterable[str] | None = None,
) -> Circuit:
    """Check structure and build an immutable Circuit.

    colors[v] is the color of vertex v, so ids are 0..len(colors)-1;
    raw_edges holds (src, dst, multiplicity) triples, as a sequence or an
    (E, 3) integer array, checked by edge_columns, and parallel occurrences
    are aggregated; names default to v0..v{n-1}.  Raises ValueError for bad
    colors, names or triples, UnknownVertex for dangling edge endpoints,
    IndegreeViolation when a color's indegree rule fails (White: 0,
    Blue/Red: exactly 2 counting multiplicity), and CycleDetected when the
    graph is not acyclic.  The returned topological order is recomputed, so
    edge order does not matter.
    """
    color_tuple = tuple(colors)
    n = len(color_tuple)
    if not set(map(type, color_tuple)) <= {Color}:
        vid = next(v for v, color in enumerate(color_tuple) if type(color) is not Color)
        raise ValueError(f"bad color for vertex {vid}: {color_tuple[vid]!r}")

    named = name_tuple(names, n)

    src, dst, mult = edge_columns(raw_edges, n, 3)
    indeg = np.bincount(dst, mult, n).tolist()  # float sums of 1s and 2s, so exact
    white = Color.WHITE  # looked up once: Enum attribute access is slow
    expected = [0.0 if color is white else 2.0 for color in color_tuple]
    if indeg != expected:
        v = next(v for v in range(n) if indeg[v] != expected[v])
        raise IndegreeViolation(v, int(expected[v]), int(indeg[v]), named[v])

    topo, preds = dag_order(n, src, dst, "circuit graph")
    return Circuit(color_tuple, topo, preds, named)


def _check_marks(circuit: Circuit, marks: Set[int]) -> frozenset[int]:
    """The marks as ids, numpy integers among them stored as Python ints."""
    s = frozenset(int(v) if isinstance(v, np.integer) else v for v in marks)
    n = circuit.n
    for v in s:
        if not isinstance(v, int) or v < 0 or v >= n:
            raise UnknownVertex(v)
    return s


def eval_levels(circuit: Circuit, marks: Set[int]) -> list[int]:
    """Noise level of every vertex under the given mark set.

    Marking a White vertex is a no-op and marking any vertex never raises a
    level, so levels are antitone in the mark set.
    """
    s = _check_marks(circuit, marks)
    colors, preds, red = circuit.colors, circuit.preds, Color.RED
    levels = [0] * circuit.n
    for v in circuit.topo:  # a White vertex has no preds, so it stays at 0
        m = 0
        for u in preds[v]:
            if u not in s and levels[u] > m:
                m = levels[u]
        levels[v] = m + 1 if colors[v] is red else m
    return levels


def is_feasible_by_levels(circuit: Circuit, marks: Set[int], level: int) -> bool:
    """True when no vertex exceeds the noise budget under the marks."""
    require_level(level)
    return max(eval_levels(circuit, marks), default=0) <= level
