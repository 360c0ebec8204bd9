"""Threshold rounding of the fractional LP solution.

Every vertex v owns, per level i in 1..L, the interval
[lengths[i][v], lengths[i][v] + x_v].  A threshold t marks v when t lands in
any of its intervals.  At an LP-feasible x this is feasible for every t in
[0,1]: walking the Red vertices of an interesting path, the level-indexed
lengths start at 0, grow by at most x of the previous Red per step, and
reach at least 1 at the final, so the intervals of the non-final Reds cover
[0,1] and one of them catches t.  A vertex is caught by at most L intervals,
so the expected number of marks under uniform t is at most L * sum(x), which
is what makes the derandomized minimum an L-approximation.

derandomized_round scans every breakpoint and gap midpoint, so it is never
worse than any single uniform draw: the marking function of t can only
change where some interval starts or ends, and breakpoints collects those
endpoints (clamped to [0,1], deduplicated, 0 and 1 appended).  Each distinct
mark set is re-checked with the exact integer level recursion, and the
feasible one of minimum cardinality wins, earliest threshold on ties.
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


def breakpoints(tables: LevelTables, level: int) -> list[float]:
    """Sorted distinct interval endpoints in [0,1], with 0 and 1 appended.

    At most 2*n*L distinct finite endpoints exist, so the list never exceeds
    2*n*L + 2 entries.
    """
    if level != tables.budget:
        raise ValueError("tables were computed for a different budget")
    lo, hi = tables.intervals
    vals = np.concatenate([lo.ravel(), hi.ravel()])
    vals = vals[np.isfinite(vals)]
    vals = np.clip(vals, 0.0, 1.0)
    vals = np.unique(np.concatenate([vals, [0.0, 1.0]]))
    return [float(v) for v in vals]


def derandomized_round(circuit: Circuit, level: int, tables: LevelTables) -> RoundingOutcome:
    """Feasible mark set of least cardinality over one threshold per
    sub-interval of the breakpoints.

    A vertex is marked at t when one of its intervals (levels 1..L) contains
    t within MEMBERSHIP_TOL.  The thresholds ascend and each distinct mark
    set is checked once, at the first threshold giving it, so ties go to the
    smallest t.
    """
    if tables.circuit != circuit:
        raise ValueError("tables were computed for a different circuit")
    points = breakpoints(tables, level)
    thresholds = [t for a, b in zip(points, points[1:]) for t in (a, (a + b) / 2.0)]
    thresholds.append(points[-1])
    lo, hi = tables.intervals
    lo, hi = lo - MEMBERSHIP_TOL, hi + MEMBERSHIP_TOL
    distinct: list[tuple[int, float, np.ndarray]] = []
    seen: set[bytes] = set()
    for t in thresholds:
        mask = ((lo <= t) & (t <= hi)).any(axis=0)
        key = mask.tobytes()
        if key in seen:
            continue
        seen.add(key)
        distinct.append((int(mask.sum()), t, mask))

    # A stable sort by cardinality keeps threshold order within each class.
    distinct.sort(key=lambda item: item[0])
    for cardinality, t, mask in distinct:
        marks = frozenset(int(v) for v in np.flatnonzero(mask))
        if is_feasible_by_levels(circuit, marks, level):
            return RoundingOutcome(marks=marks, t_used=t, cardinality=cardinality)
    raise NoFeasibleCandidate("no rounding candidate passed the exact feasibility check")
