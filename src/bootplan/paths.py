"""The per-level length table over interesting paths, and walking back paths.

An *interesting path* for budget L starts at a Red vertex, ends at a Red
vertex, and passes through exactly L+1 Red vertices (endpoints included).
A mark set is feasible for L exactly when every interesting path has at
least one marked vertex among its non-final vertices; this is the covering
view of feasibility that the LP relaxation optimizes over.

Given fractional vertex weights x, the *length* of a path is the sum of
x over its non-final vertices.  lengths[i][v] is the least length of a path
that starts Red, ends at v, and visits exactly i Red vertices (counting Red
endpoints); +inf when no such path exists.  Each level is filled in one
sweep over the gates (Circuit.gates) in topological order: a Red entry
extends a level-(i-1) entry across one edge, the sums below level 1 taken
as zero, so it is 0 at level 1; a Blue entry extends a level-i entry of a
predecessor, and White entries stay +inf.
Blue predecessors come earlier in the order, so chained Blue values are
final before use.  Every gate has two preds (one, for a double edge), so
each entry is the lesser of two sums lengths[i'][u] + x[u], the first pred's
on a tie; the sweep makes each such sum once, when it fills lengths[i'][u],
and keeps it in a `plus` list per level.

The table keeps only the minima.  backtrack_path walks back from an entry
lengths[i][v] to the lowest-id predecessor u whose lengths[i'][u] + x[u]
equals it (i' = i - 1 when leaving a Red vertex), down to a Red vertex at
level 1: the expression the sweep stored in `plus`, so exact float equality
finds the predecessor its strict < kept.  The table ends at level L, and
from a pred u of a Red final at L the walk, the final appended, is the least
interesting path through u, of length lengths[L][u] + x[u]: its non-final
part is a row of the covering LP (see bootplan.lp).  The table is the
separation oracle's; bootplan.rounding builds its own intervals from it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .circuit import Circuit, Color, require_level


@dataclass(frozen=True, eq=False)
class LevelTables:
    """Per-level minimum path lengths, as plain lists.

    lengths[i][v] for i in 1..budget (index 0 unused, so the budget is the
    row count less one), each row the same at any budget; weights is the x
    vector the table was computed against.
    """

    circuit: Circuit
    weights: list[float]
    lengths: list[list[float]]

    @property
    def budget(self) -> int:
        return len(self.lengths) - 1


def level_lengths(circuit: Circuit, level: int, weights: Sequence[float]) -> LevelTables:
    """Fill the length table for levels 1..level under the given weights,
    which must be finite."""
    require_level(level)
    n = circuit.n
    if len(weights) != n:
        raise ValueError("weights must assign a value to every vertex")
    x = [float(w) for w in weights]
    if not all(map(math.isfinite, x)):
        raise ValueError("weights must be finite")
    gates = circuit.gates
    inf = math.inf

    lengths = [[inf] * n for _ in range(level + 1)]
    # plus[u] is lengths[i][u] + x[u] for the level being filled, below[u]
    # the same sum one level down, which Red entries extend.  Below level 1
    # it is a zero row, so a level-1 Red entry is 0.0 and its sum 0.0 + x[v]
    # (0.0 + -0.0 is 0.0).
    plus = [0.0] * n
    for i in range(1, level + 1):
        row = lengths[i]
        below, plus = plus, [inf] * n
        for v, red, a, b in gates:
            src = below if red else plus
            best = src[a]
            if src[b] < best:  # strict, so the first pred wins a tie
                best = src[b]
            row[v] = best
            plus[v] = best + x[v]

    return LevelTables(circuit, x, lengths)


def backtrack_path(tables: LevelTables, vertex: int, level: int) -> tuple[int, ...]:
    """Reconstruct a path of length lengths[level][vertex]: it starts Red,
    ends at `vertex` and visits exactly `level` Red vertices.

    Requires 1 <= level <= budget and a finite entry.  Among
    predecessors that attain an entry, the lowest id is taken.
    """
    colors, preds, red = tables.circuit.colors, tables.circuit.preds, Color.RED
    lengths, x = tables.lengths, tables.weights
    i = level
    if not (1 <= i <= tables.budget and math.isfinite(lengths[i][vertex])):
        raise ValueError(f"no path through {level} Red vertices ends at vertex {vertex}")
    v = vertex
    rev = [v]
    while not ((is_red := colors[v] is red) and i == 1):
        target = lengths[i][v]
        if is_red:
            i -= 1
        src = lengths[i]
        for u in preds[v]:
            if src[u] + x[u] == target:
                break
        else:
            raise AssertionError("no predecessor attains a level-table entry")
        v = u
        rev.append(v)
    rev.reverse()
    return tuple(rev)
