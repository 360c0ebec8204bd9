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
simplex with Bland's anti-cycling rule.  The all-slack basis of the packing
LP is feasible, so no phase 1 is needed, and the covering weights come back
as its dual prices.  The bounds x <= 1 are left out: a 0/1 covering LP has
no optimum with a weight above 1, so they never bind.  Variables outside
every row are never entered into the master; they are 0 at any optimum.
Each master solution is certified before use: the packing solution z and
the covering weights x must both be feasible within CERT_TOL and have equal
objectives, which by weak duality makes both optimal.
"""

from __future__ import annotations

from collections.abc import Collection, Set
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .circuit import Circuit, require_level
from .errors import IterationLimitExceeded, NumericalFailure
from .paths import VIOLATION_TOL, LevelTables, backtrack_interesting_path, level_lengths

PIVOT_TOL = 1e-12
_REDCOST_TOL = 1e-9
CERT_TOL = 1e-9


@dataclass(frozen=True)
class LpResult:
    weights: list[float]
    objective: float
    constraints_generated: int
    iterations: int
    rows: tuple[frozenset[int], ...]
    # The length table at `weights`, whose clean final row certifies them.
    tables: LevelTables = field(repr=False, compare=False)


def _solve_covering_lp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min 1'x  s.t.  A x >= 1,  x >= 0, for a dense 0/1 matrix A.

    Primal simplex on the packing dual  max 1'z  s.t.  A'z <= 1,  z >= 0,
    i.e. the tableau [A' | I | 1] started from its feasible slack basis.
    At the optimum x is the dual price of each packing row, which is minus
    the reduced cost of that row's slack.  Returns (x, z).
    """
    m, k = a.shape
    tableau = np.hstack([a.T, np.eye(k), np.ones((k, 1))])
    # Reduced costs of z and the slacks (the last entry, under the right-hand
    # side, is minus the objective); every pivot updates this row like one
    # more tableau row.
    reduced = np.concatenate([np.ones(m), np.zeros(k + 1)])
    basis = np.arange(m, m + k)
    limit = 200 * (2 * m + k) + 1000
    for _ in range(limit):
        candidates = np.flatnonzero(reduced[:-1] > _REDCOST_TOL)
        if candidates.size == 0:
            break
        j = int(candidates[0])  # Bland: smallest index enters
        col = tableau[:, j].copy()
        # Only entries above PIVOT_TOL may pivot; without one the direction
        # is unbounded, which a packing LP over nonempty rows never is.
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            raise NumericalFailure("no pivot above tolerance: unbounded direction")
        ratios = tableau[rows, -1] / col[rows]
        ties = rows[ratios <= ratios.min()]
        r = int(ties[np.argmin(basis[ties])])  # Bland: smallest leaving index
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
    return np.clip(-reduced[m:-1], 0.0, 1.0), z


def solve_restricted_master(n: int, rows: Collection[Set[int]]) -> tuple[list[float], float]:
    """Optimal fractional weights for the current row set.

    Returns a full-length weight vector (vertices outside every row get 0)
    and the objective, which equals the weight sum.  Raises NumericalFailure
    when the simplex result fails its optimality certificate.
    """
    if not rows:
        return [0.0] * n, 0.0
    row_sets = [frozenset(r) for r in rows]
    for r in row_sets:
        if not r:
            raise ValueError("covering rows must be nonempty")
        for v in r:
            if not 0 <= v < n:
                raise ValueError(f"row references vertex {v} outside 0..{n - 1}")
    # Bland's rule is valid under any fixed column order; descending ids send
    # ties between optimal weight vectors to the later vertex.
    active = sorted(set().union(*row_sets), reverse=True)
    col = {v: i for i, v in enumerate(active)}
    a = np.zeros((len(row_sets), len(active)))
    for i, r in enumerate(row_sets):
        for v in r:
            a[i, col[v]] = 1.0
    y, z = _solve_covering_lp(a)
    objective = float(y.sum())
    # z >= 0, A'z <= 1, A x >= 1 and 1'z = 1'x, each within CERT_TOL (NaN fails).
    residuals = (-z.min(), (a.T @ z).max() - 1, 1 - (a @ y).min(), abs(z.sum() - objective))
    if not all(r <= CERT_TOL for r in residuals):
        raise NumericalFailure(f"master failed its optimality certificate by {max(residuals):.1e}")
    weights = [0.0] * n
    for v, i in col.items():
        weights[v] = float(y[i])
    return weights, objective


def solve_relaxation(
    circuit: Circuit,
    level: int,
    *,
    max_iterations: int | None = None,
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
    if max_iterations is None:
        max_iterations = max(1, 10 * n * level)
    rows: dict[frozenset[int], None] = {}  # insertion-ordered set
    for iteration in range(1, max_iterations + 1):
        weights, objective = solve_restricted_master(n, rows)
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
