"""Threshold rounding of the fractional LP solution.

Every vertex v owns, per level i in 1..L, the interval
[lengths[i][v], lengths[i][v] + x_v], which intervals reads off the level
table as two arrays.  A threshold t marks v when t lands in any of its
intervals.  At x the LP certified, every t up to 1 - VIOLATION_TOL gives a
feasible set: along an interesting path the level-indexed lengths at its Reds
start at 0, grow by at most x of the previous Red per step, and reach 1 -
VIOLATION_TOL at the final, so an interval of a non-final Red catches t.
Other x can give infeasible sets, which the scan skips.  A vertex is caught
by at most L intervals, so the expected number of marks under uniform t is
at most L * sum(x), which makes the derandomized minimum an L-approximation.

derandomized_round scans every breakpoint and gap midpoint, so it is never
worse than any single uniform draw: the marking function of t can only
change where some interval starts or ends, and breakpoints collects those
endpoints (clamped to [0,1], deduplicated, 0 and 1 appended).  Each distinct
mark set is kept once, at the first threshold giving it.  They are checked
with the exact integer level recursion in order of cardinality, then
threshold, and the first feasible one is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, is_feasible_by_levels
from .errors import NoFeasibleCandidate
from .paths import LevelTables

MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class RoundingOutcome:
    marks: frozenset[int]
    t_used: float
    cardinality: int


def intervals(tables: LevelTables) -> tuple[np.ndarray, np.ndarray]:
    """The interval ends [lo, hi] per level 1..budget (rows) and vertex."""
    lo = np.asarray(tables.lengths[1:])
    return lo, lo + np.asarray(tables.weights, dtype=float)


def breakpoints(lo: np.ndarray, hi: np.ndarray) -> list[float]:
    """Sorted distinct interval endpoints in [0,1], with 0 and 1 appended.

    At most 2*n*L distinct finite endpoints exist, so the list never exceeds
    2*n*L + 2 entries.
    """
    vals = np.concatenate([lo.ravel(), hi.ravel()])
    vals = vals[np.isfinite(vals)]
    vals = np.clip(vals, 0.0, 1.0)
    return np.unique(np.concatenate([vals, [0.0, 1.0]])).tolist()


def derandomized_round(circuit: Circuit, level: int, tables: LevelTables) -> RoundingOutcome:
    """Feasible mark set of least cardinality over one threshold per
    sub-interval of the breakpoints.

    A vertex is marked at t when one of its intervals (levels 1..L) contains
    t within MEMBERSHIP_TOL.  The thresholds ascend and each distinct mark
    set is kept at the first threshold giving it, so ties go to the
    smallest t.
    """
    if tables.circuit != circuit:
        raise ValueError("tables were computed for a different circuit")
    if level != tables.budget:
        raise ValueError("tables were computed for a different budget")
    lo, hi = intervals(tables)
    points = breakpoints(lo, hi)
    thresholds = [t for a, b in zip(points, points[1:]) for t in (a, (a + b) / 2.0)]
    thresholds.append(points[-1])
    lo, hi = lo - MEMBERSHIP_TOL, hi + MEMBERSHIP_TOL
    candidates: dict[bytes, tuple[float, np.ndarray]] = {}
    for t in thresholds:
        mask = ((lo <= t) & (t <= hi)).any(axis=0)
        candidates.setdefault(mask.tobytes(), (t, mask))

    # A stable sort by cardinality keeps threshold order within each class.
    for t, mask in sorted(candidates.values(), key=lambda c: int(c[1].sum())):
        marks = frozenset(np.flatnonzero(mask).tolist())
        if is_feasible_by_levels(circuit, marks, level):
            return RoundingOutcome(marks, t, len(marks))
    raise NoFeasibleCandidate("no rounding candidate passed the exact feasibility check")
