"""Covering LP relaxation solved by row generation.

The full LP has one constraint per interesting path (sum of x over the
path's non-final vertices >= 1, x in [0,1], minimize sum x) and there can be
exponentially many paths, so constraints are generated lazily: solve a
restricted master over the rows found so far, and separate with the length
table for levels 1..L: the least interesting path into a Red final has
length min over its preds u of lengths[L][u] + x[u], and a pred whose sum
is below 1 - VIOLATION_TOL is short and gives a violated row, walked back
once from (u, L): at most two rows per violated final, one of them most
violated, from one table.  Termination: the master holds its rows within
CERT_TOL, so no short pred's row is held (one that is raises
NumericalFailure) and each round with one adds a row, of finitely many.
The final weights certify the relaxation: their table, returned with them
for rounding, has no short pred.

The master is solved through its LP dual, a packing LP, by a dense primal
simplex, and the covering weights come back as its dual prices.  The
bounds x <= 1 are left out: a 0/1 covering LP has no optimum with a weight
above 1, so they never bind.  Variables outside every row are never entered
into the master; they are 0 at any optimum.

Row generation only appends to the packing LP: a new covering row is a new
packing column, entering at z = 0 with its violation as reduced cost, and a
vertex new to the master is a new packing row whose slack is basic at 1.  So
the last master's basis stays feasible, and each round starts from it
(warm start) rather than from the all-slack basis, which only the first
master uses; no phase 1 is needed.  The tableau B^-1 [A' | I | 1], with
the reduced costs as its last row, is carried with the basis in a Master
and extended by the new rows rather than solved for on entry (see
Master.extend).  The master assumes all this of its one caller,
solve_relaxation, and checks none of it, nor that each row is nonempty and
within 0..n-1.  The tableau is rebuilt from its basis every REFACTOR_EVERY
pivots, counted across rounds, which drops the rounding error pivots
accumulate.  Pricing is Dantzig's rule (largest reduced cost, smallest
index on ties); after BLAND_AFTER degenerate pivots in a row, Bland's
smallest-index rule prices until the next nondegenerate pivot, so
degenerate stretches cannot cycle.
The ratio test reads negative right-hand sides as 0 and ratios within
_TIE_TOL of the least as ties, which the smallest basic index leaves, so
rounding noise cannot break Bland's rule.
Each master solution is certified before use: the packing solution z and
the covering weights x must both be feasible within CERT_TOL and have equal
objectives, which by weak duality makes both optimal.  A solution that
fails is refactored from its final basis and pivoted on once more; failing
again raises NumericalFailure.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Set
from dataclasses import dataclass, field
from itertools import islice
from typing import TextIO

import numpy as np

from .circuit import Circuit, require_level
from .errors import IterationLimitExceeded, NumericalFailure
from .paths import LevelTables, backtrack_path, level_lengths

VIOLATION_TOL = 1e-7
PIVOT_TOL = 1e-9
_REDCOST_TOL = 1e-9
_TIE_TOL = 1e-12
CERT_TOL = 1e-9
REFACTOR_EVERY = 100  # pivots, across rounds, between rebuilds of the tableau from its basis
ROUNDS_PER_VERTEX_LEVEL = 10  # row-generation rounds allowed per vertex and level
BLAND_AFTER = 50  # consecutive degenerate pivots before Bland's rule prices


@dataclass(frozen=True)
class LpResult:
    weights: list[float]
    objective: float
    iterations: int
    rows: tuple[frozenset[int], ...]
    # The length table at `weights`, with no short pred, which certifies them.
    tables: LevelTables = field(repr=False, compare=False)

    @property
    def constraints_generated(self) -> int:
        return len(self.rows)


class Master:
    """The restricted master's packing LP in tableau form, carried from one
    round of row generation to the next.

    The packing rows, the tableau rows and the slack columns all follow
    `vertices`, in descending id order; the packing columns follow the
    master's rows.  `packing` is A', one row per vertex and one column per
    master row.  `tableau` has one row more than A': its rows 0..k-1 are
    B^-1 [A' | I | 1] for the basic column `basis[i]` of each row i, and its
    last row holds the reduced costs, minus the objective last.  `pivots`
    counts pivots since the tableau was last built from its basis.  A pivot
    updates only the tableau rows whose entry in the entering column is
    nonzero, the reduced costs among them: any other row would subtract 0
    times the pivot row, which leaves it as it is up to the sign of a zero.
    A new Master is the state before the first round: no rows.
    """

    def __init__(self) -> None:
        self.vertices: list[int] = []
        self.packing = np.zeros((0, 0))
        self.tableau = np.zeros((1, 1))
        self.basis = np.zeros(0, dtype=np.intp)
        self.pivots = 0

    def extend(self, rows: Iterable[Set[int]]) -> None:
        """Append the rows of `rows` past this master's own, which must be
        their prefix, as packing columns, and their new vertices as packing
        rows with basic slacks.

        A new vertex occurs only in new rows, so the old basic columns are 0
        on its packing row and B^-1 extends block-diagonally: the old tableau
        rows gain the new columns as B^-1 times their old-vertex part, and
        the new vertex rows enter as they are in [A' | I | 1].  The reduced
        costs keep their old values and gain the new columns' violations.
        """
        k, m = self.packing.shape
        fresh = list(islice(rows, m, None))
        vertices = sorted(set(self.vertices).union(*fresh), reverse=True)
        k2, m2 = len(vertices), m + len(fresh)
        pos = {v: i for i, v in enumerate(vertices)}
        old = np.array([pos[v] for v in self.vertices], dtype=np.intp)
        packing = np.zeros((k2, m2))
        packing[old, :m] = self.packing
        vertex_at = [pos[v] for r in fresh for v in r]
        row_at = [i for i, r in enumerate(fresh, m) for _ in r]
        packing[vertex_at, row_at] = 1.0
        tableau = np.eye(k2 + 1, m2 + k2 + 1, m2)  # the slack I (the last row's 1 is overwritten)
        tableau[:-1, m:m2] = packing[:, m:]  # [A' | I | 1] in the new vertices' rows
        tableau[:-1, -1] = 1.0
        # Where each old column goes: old packing columns stay, the new ones
        # follow them, and the slacks interleave with the new vertices'.
        moved = np.concatenate([np.arange(m), m2 + old, [m2 + k2]])
        tableau[np.append(old, k2)[:, None], moved] = self.tableau  # old rows, reduced costs last
        tableau[old, m:m2] = self.tableau[:-1, m:-1] @ packing[old, m:]  # B^-1 times new columns
        basis = np.arange(m2, m2 + k2)
        basis[old] = moved[self.basis]
        tableau[-1, m:m2] = 1.0 - tableau[:-1][basis < m2, m:m2].sum(axis=0)
        self.vertices, self.packing, self.tableau, self.basis = vertices, packing, tableau, basis

    def refactor(self) -> None:
        """Rebuild the tableau from the basis, dropping the rounding error
        that pivots accumulate."""
        k, m = self.packing.shape
        full = np.hstack([self.packing, np.eye(k), np.ones((k, 1))])
        try:
            rows = np.linalg.solve(full[:, self.basis], full)
        except np.linalg.LinAlgError:
            raise NumericalFailure("singular simplex basis") from None
        cost = np.concatenate([np.ones(m), np.zeros(k + 1)])
        self.tableau = np.vstack([rows, cost - cost[self.basis] @ rows])
        self.pivots = 0

    def simplex(self) -> tuple[np.ndarray, np.ndarray]:
        """Pivot to an optimum of  max 1'z  s.t.  A'z <= 1,  z >= 0  over the
        columns of [A' | I] (z, then one slack per packing row), from the
        current basis, which must be primal feasible.  Returns (x, z): x,
        over `vertices`, is the dual price of each packing row, which is
        minus the reduced cost of its slack; z is the packing solution.
        """
        k, m = self.packing.shape
        limit = 200 * (2 * m + k) + 1000
        degenerate = 0  # consecutive pivots with a step of at most PIVOT_TOL
        for _ in range(limit):
            if self.pivots >= REFACTOR_EVERY:
                self.refactor()
            tableau, reduced, basis = self.tableau, self.tableau[-1], self.basis
            if degenerate < BLAND_AFTER:
                j = int(reduced[:-1].argmax())  # Dantzig: largest, then smallest index
            else:
                j = int((reduced[:-1] > _REDCOST_TOL).argmax())  # Bland: smallest index
            if reduced[j] <= _REDCOST_TOL:
                break
            col = tableau[:, j]
            # Only constraint entries above PIVOT_TOL pivot; without one the
            # direction is unbounded, which a packing LP over nonempty rows never is.
            rows = (col[:-1] > PIVOT_TOL).nonzero()[0]
            if rows.size == 0:
                raise NumericalFailure("no pivot above tolerance: unbounded direction")
            # Negative right-hand sides count as 0 and near-equal ratios tie;
            # otherwise rounding noise, not the index, picks the leaving row of
            # a degenerate step, and Bland's rule can stall past the cap.
            ratios = np.maximum(tableau[rows, -1], 0.0) / col[rows]
            step = ratios.min()
            ties = rows[ratios <= step + _TIE_TOL]
            r = int(ties[basis[ties].argmin()])  # smallest leaving index
            degenerate = degenerate + 1 if step <= PIVOT_TOL else 0
            pivot_row = tableau[r] / col[r]
            touched = col.nonzero()[0]  # the rows that change (see the class)
            tableau[touched] -= col[touched, None] * pivot_row  # col[touched] is a copy
            tableau[r] = pivot_row
            basis[r] = j
            self.pivots += 1
        else:
            raise IterationLimitExceeded("simplex iteration limit hit")
        z = np.zeros(m)
        packed = self.basis < m
        z[self.basis[packed]] = self.tableau[:-1][packed, -1]
        return np.clip(-self.tableau[-1, m:-1], 0.0, 1.0), z


def solve_restricted_master(
    n: int, rows: Collection[Set[int]], master: Master
) -> tuple[list[float], float]:
    """Optimal fractional weights for the current row set.

    Returns a full-length weight vector (vertices outside every row get 0)
    and the objective, which equals the weight sum.  `master` holds the
    previous master, whose rows are a prefix of `rows` (Master() before the
    first); it is extended by the rest and solved from its basis, and left
    holding this master.  The rows and master are solve_relaxation's,
    unchecked (see the module docstring).  Raises NumericalFailure for a
    singular basis, and when the simplex result fails its optimality
    certificate twice: once as solved, once more after refactoring from its
    final basis and pivoting on.
    """
    if not rows:
        return [0.0] * n, 0.0
    master.extend(rows)
    packing = master.packing
    for attempt in range(2):
        if attempt:
            master.refactor()
        y, z = master.simplex()
        objective = float(y.sum())
        # z >= 0, A'z <= 1, A x >= 1 and 1'z = 1'x, each within CERT_TOL (NaN fails).
        residuals = (
            -z.min(), (packing @ z).max() - 1, 1 - (y @ packing).min(), abs(z.sum() - objective)
        )
        if all(r <= CERT_TOL for r in residuals):
            break
    else:
        raise NumericalFailure(f"master failed its optimality certificate by {max(residuals):.1e}")
    weights = [0.0] * n
    for v, w in zip(master.vertices, y.tolist()):
        weights[v] = w
    return weights, objective


def solve_relaxation(
    circuit: Circuit,
    level: int,
    *,
    trace: TextIO | None = None,
) -> LpResult:
    """Row generation until no interesting-path constraint is violated.

    Each iteration solves the master, recomputes the length table at the new
    weights, and adds the row walked back from each short pred of a Red
    final (see the module docstring).  The result carries the last table,
    which has no short pred.  `trace`, when given, receives one tab-separated
    line per iteration: index, objective, rows added.
    """
    require_level(level)
    n, preds, finals = circuit.n, circuit.preds, circuit.red_vertices
    max_iterations = max(1, ROUNDS_PER_VERTEX_LEVEL * n * level)
    rows: dict[frozenset[int], None] = {}  # insertion-ordered set
    master = Master()  # the last master, carried into the next
    for iteration in range(1, max_iterations + 1):
        weights, objective = solve_restricted_master(n, rows, master)
        tables = level_lengths(circuit, level, weights)
        below, x = tables.lengths[level], tables.weights
        short = dict.fromkeys(  # in first-seen order, the order rows are added in
            u for v in finals for u in preds[v] if below[u] + x[u] < 1.0 - VIOLATION_TOL
        )
        for u in short:
            row = frozenset(backtrack_path(tables, u, level))
            if row in rows:
                raise NumericalFailure(
                    "separation found a violated row already present in the master"
                )
            rows[row] = None
        if trace is not None:
            trace.write(f"{iteration}\t{objective:.9f}\t{len(short)}\n")
        if not short:
            return LpResult(
                weights=weights,
                objective=objective,
                iterations=iteration,
                rows=tuple(rows),
                tables=tables,
            )
    raise IterationLimitExceeded(f"row generation exceeded {max_iterations} iterations")
