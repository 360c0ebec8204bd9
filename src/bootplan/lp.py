"""Covering LP relaxation solved by row generation.

The full LP has one constraint per interesting path (sum of x over the
path's non-final vertices >= 1, x in [0,1], minimize sum x) and there can be
exponentially many paths, so constraints are generated lazily: solve a
restricted master over the rows found so far, run the level-length table as
a separation oracle, and add one most-violated row per Red final vertex that
still has lengths[L+1] < 1 - VIOLATION_TOL.  Termination: the master
satisfies every added row, a violated row is never already present, and
there are finitely many rows.  The final weights certify feasibility of the
relaxation because the same table that would expose a violation comes back
clean; that table is returned with them, and rounding reads it.

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
master uses; no phase 1 is needed.  The master assumes all this of its one
caller, solve_relaxation, and checks none of it, nor that each row is
nonempty and within 0..n-1.  The tableau B^-1 [A' | I | 1] is built
from the basis on entry and rebuilt the same way every REFACTOR_EVERY
pivots, which drops the rounding error pivots accumulate.  Pricing is
Dantzig's rule (largest reduced cost, smallest index on ties); after
BLAND_AFTER degenerate pivots in a row, Bland's smallest-index rule prices
until the next nondegenerate pivot, so degenerate stretches cannot cycle.
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

from collections.abc import Collection, Set
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .circuit import Circuit, require_level
from .errors import IterationLimitExceeded, NumericalFailure
from .paths import LevelTables, backtrack_interesting_path, level_lengths

VIOLATION_TOL = 1e-7
PIVOT_TOL = 1e-9
_REDCOST_TOL = 1e-9
_TIE_TOL = 1e-12
CERT_TOL = 1e-9
REFACTOR_EVERY = 100  # pivots between rebuilds of the tableau from its basis
ROUNDS_PER_VERTEX_LEVEL = 10  # row-generation rounds allowed per vertex and level
BLAND_AFTER = 50  # consecutive degenerate pivots before Bland's rule prices


@dataclass(frozen=True)
class LpResult:
    weights: list[float]
    objective: float
    constraints_generated: int
    iterations: int
    rows: tuple[frozenset[int], ...]
    # The length table at `weights`, whose clean final row certifies them.
    tables: LevelTables = field(repr=False, compare=False)


def _solve_covering_lp(
    a: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """min 1'x  s.t.  A x >= 1,  x >= 0, for a dense 0/1 matrix A.

    Primal simplex on the packing dual  max 1'z  s.t.  A'z <= 1,  z >= 0,
    over the columns of [A' | I] (z, then one slack per packing row).
    `basis` holds the basic column of each packing row and must be primal
    feasible, arange(m, m + k) being the slack basis.  At the optimum x is
    the dual price of each packing row, which is minus the reduced cost of
    that row's slack.  Returns (x, z, final basis).
    """
    m, k = a.shape
    full = np.hstack([a.T, np.eye(k), np.ones((k, 1))])
    cost = np.concatenate([np.ones(m), np.zeros(k + 1)])
    basis = np.array(basis)
    limit = 200 * (2 * m + k) + 1000
    degenerate = 0  # consecutive pivots with a step of at most PIVOT_TOL
    for pivots in range(limit):
        if pivots % REFACTOR_EVERY == 0:
            # Rebuild B^-1 [A' | I | 1] from the basis, dropping the rounding
            # error the pivots accumulated.  The reduced costs (the last entry,
            # under the right-hand side, is minus the objective) are updated
            # by every pivot like one more tableau row.
            try:
                tableau = np.linalg.solve(full[:, basis], full)
            except np.linalg.LinAlgError:
                raise NumericalFailure("singular simplex basis") from None
            reduced = cost - cost[basis] @ tableau
        if degenerate < BLAND_AFTER:
            j = int(np.argmax(reduced[:-1]))  # Dantzig: largest, then smallest index
        else:
            j = int(np.argmax(reduced[:-1] > _REDCOST_TOL))  # Bland: smallest index
        if reduced[j] <= _REDCOST_TOL:
            break
        col = tableau[:, j].copy()
        # Only entries above PIVOT_TOL may pivot; without one the direction
        # is unbounded, which a packing LP over nonempty rows never is.
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            raise NumericalFailure("no pivot above tolerance: unbounded direction")
        # Negative right-hand sides count as 0 and near-equal ratios tie;
        # otherwise rounding noise, not the index, picks the leaving row of
        # a degenerate step, and Bland's rule can stall past the cap.
        ratios = np.maximum(tableau[rows, -1], 0.0) / col[rows]
        step = ratios.min()
        ties = rows[ratios <= step + _TIE_TOL]
        r = int(ties[np.argmin(basis[ties])])  # smallest leaving index
        degenerate = degenerate + 1 if step <= PIVOT_TOL else 0
        pivot_row = tableau[r] / col[r]
        tableau -= np.outer(col, pivot_row)
        tableau[r] = pivot_row
        reduced -= reduced[j] * pivot_row
        basis[r] = j
    else:
        raise IterationLimitExceeded("simplex iteration limit hit")

    z = np.zeros(m)
    packed = basis < m
    z[basis[packed]] = tableau[packed, -1]
    return np.clip(-reduced[m:-1], 0.0, 1.0), z, basis


def solve_restricted_master(
    n: int, rows: Collection[Set[int]], basis: dict[int, int]
) -> tuple[list[float], float]:
    """Optimal fractional weights for the current row set.

    Returns a full-length weight vector (vertices outside every row get 0)
    and the objective, which equals the weight sum.  `basis` maps each
    vertex of an earlier master ({} for none), whose rows were a prefix of
    `rows`, to its packing row's basic column: a row's index in `rows`, or ~v
    for the slack of vertex v.  The solve starts from it, with the slack of
    every vertex new to the master basic, and writes the final basis back
    into it; the rows and basis are solve_relaxation's, unchecked (see the
    module docstring).  Raises NumericalFailure for a singular basis, and
    when the simplex result fails its optimality certificate twice: once as
    solved, once more after refactoring from its final basis and pivoting on.
    """
    if not rows:
        return [0.0] * n, 0.0
    # Pricing breaks ties by column order; descending ids send ties between
    # optimal weight vectors to the later vertex.
    active = sorted(set().union(*rows), reverse=True)
    col = {v: i for i, v in enumerate(active)}
    m = len(rows)
    a = np.zeros((m, len(active)))
    for i, r in enumerate(rows):
        for v in r:
            a[i, col[v]] = 1.0
    # Old rows keep their basic columns and a new vertex its slack, at 1; new
    # rows enter as nonbasic packing columns at 0, so this basis is feasible.
    labels = [basis.get(v, ~v) for v in active]
    columns = np.array([c if c >= 0 else m + col[~c] for c in labels], dtype=np.intp)
    for _ in range(2):
        y, z, columns = _solve_covering_lp(a, columns)
        objective = float(y.sum())
        # z >= 0, A'z <= 1, A x >= 1 and 1'z = 1'x, each within CERT_TOL (NaN fails).
        residuals = (-z.min(), (a.T @ z).max() - 1, 1 - (a @ y).min(), abs(z.sum() - objective))
        if all(r <= CERT_TOL for r in residuals):
            break
    else:
        raise NumericalFailure(f"master failed its optimality certificate by {max(residuals):.1e}")
    basis.update((v, int(c) if c < m else ~active[c - m]) for v, c in zip(active, columns))
    weights = [0.0] * n
    for v, i in col.items():
        weights[v] = float(y[i])
    return weights, objective


def solve_relaxation(
    circuit: Circuit,
    level: int,
    *,
    trace: TextIO | None = None,
) -> LpResult:
    """Row generation until no interesting-path constraint is violated.

    Each iteration solves the master, recomputes the length table at the new
    weights, and adds the most-violated row for every Red final below
    1 - VIOLATION_TOL (deduplicated); the result carries the last, clean
    table.  `trace`, when given, receives one tab-separated line per
    iteration: index, objective, rows added.
    """
    require_level(level)
    n = circuit.n
    max_iterations = max(1, ROUNDS_PER_VERTEX_LEVEL * n * level)
    rows: dict[frozenset[int], None] = {}  # insertion-ordered set
    basis: dict[int, int] = {}  # the last master's, carried into the next
    for iteration in range(1, max_iterations + 1):
        weights, objective = solve_restricted_master(n, rows, basis)
        tables = level_lengths(circuit, level, weights)
        final_row = tables.lengths[level + 1]
        violated = added = 0
        for v in circuit.red_vertices:
            if final_row[v] < 1.0 - VIOLATION_TOL:
                violated += 1
                row = frozenset(backtrack_interesting_path(tables, v)[:-1])
                if row not in rows:
                    rows[row] = None
                    added += 1
        if trace is not None:
            trace.write(f"{iteration}\t{objective:.9f}\t{added}\n")
        if added == 0:
            if violated:
                raise NumericalFailure(
                    "separation found a violated row already present in the master"
                )
            return LpResult(
                weights=weights,
                objective=objective,
                constraints_generated=len(rows),
                iterations=iteration,
                rows=tuple(rows),
                tables=tables,
            )
    raise IterationLimitExceeded(
        f"row generation exceeded {max_iterations} iterations"
    )
