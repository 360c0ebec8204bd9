"""DAG vertex deletion (DVD) instances and the reduction to bootstrapping.

DVD asks for a minimum set of vertices whose removal leaves no directed path
with L vertices (L >= 2).  L is never stored: the reduction builds the same
circuit for every L.  An instance stores only the names and the distinct
predecessors of each vertex, from circuit.dag_order, which also rejects
cycles.  The reduction maps an instance H to a circuit G whose minimum
bootstrap sets have the same size:

  * every original vertex becomes Red and keeps its id;
  * a White source s0 pads originals with fewer than two in-edges up to
    indegree exactly 2;
  * an original with indegree d >= 3 has its in-edges replaced by a Blue
    chain w_1..w_d (predecessors taken in ascending id order): a double edge
    from the first predecessor into w_1, single edges (w_{i-1}, w_i) and
    (v_i, w_i) for i >= 2, and a double edge (w_d, v);
  * every original v gains a Red clone v' fed by a double edge (v, v').

Clones force one extra Red step after each original, so a path of L
originals extends to an interesting path for budget L.  A feasible deletion
set is a feasible mark set as it stands, and Blue gadget vertices never help
a mark set more than their owning original does, so a feasible mark set maps
back to a deletion set no larger.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Color, dag_order, edge_columns, name_tuple, validate


@dataclass(frozen=True)
class DvdInstance:
    """Validated DVD instance; build through :func:`validate_dvd`."""

    preds: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.preds)


def validate_dvd(
    n: int,
    raw_edges: Sequence[tuple[int, int]] | np.ndarray,
    names: Iterable[str] | None = None,
) -> DvdInstance:
    """Simple-graph DAG over ids 0..n-1 from (src, dst) pairs, as a sequence
    or an (E, 2) integer array; duplicate edges collapse, and names default
    to v0..v{n-1}."""
    src, dst = edge_columns(raw_edges, n, 2)
    named = name_tuple(names, n)
    _, preds = dag_order(n, src, dst, "deletion instance")  # raises on a cycle
    return DvdInstance(preds=preds, names=named)


@dataclass(frozen=True, eq=False)
class ReductionMap:
    """Reduced circuit plus the provenance of every auxiliary vertex.

    clone_of[v] is the clone id of original v; gadget_of maps an original
    with gadget to its Blue chain ids in order; source is the White s0 id.
    Original vertices keep their ids, so mark sets over H embed directly.
    """

    circuit: Circuit
    source: int
    clone_of: tuple[int, ...]
    gadget_of: Mapping[int, tuple[int, ...]]


def _fresh_name(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "_"
    used.add(name)
    return name


def reduce_to_circuit(instance: DvdInstance) -> ReductionMap:
    """Build the bootstrap circuit whose optimum equals the DVD optimum."""
    m = instance.n
    names = list(instance.names)
    used = set(names)
    colors: list[Color] = [Color.RED] * m

    def new_vertex(color: Color, base: str) -> int:
        vid = len(colors)
        colors.append(color)
        names.append(_fresh_name(base, used))
        return vid

    source = new_vertex(Color.WHITE, "s0")
    clone_of = tuple(new_vertex(Color.RED, f"clone({names[v]})") for v in range(m))

    edges: list[tuple[int, int, int]] = []
    gadget_of: dict[int, tuple[int, ...]] = {}
    for v in range(m):
        incoming = instance.preds[v]
        d = len(incoming)
        if d <= 2:
            for u in incoming:
                edges.append((u, v, 1))
            if d < 2:
                edges.append((source, v, 2 - d))
        else:
            chain = []
            for i, u in enumerate(incoming):
                w = new_vertex(Color.BLUE, f"w{i + 1}({names[v]})")
                if i == 0:
                    edges.append((u, w, 2))
                else:
                    edges.append((chain[-1], w, 1))
                    edges.append((u, w, 1))
                chain.append(w)
            edges.append((chain[-1], v, 2))
            gadget_of[v] = tuple(chain)
        edges.append((v, clone_of[v], 2))

    circuit = validate(colors, edges, names=names)
    return ReductionMap(
        circuit=circuit,
        source=source,
        clone_of=clone_of,
        gadget_of=gadget_of,
    )
