"""Threshold rounding of the fractional LP solution.

Every vertex v owns, per level i in 1..L, the interval
[lengths[i][v], lengths[i][v] + x_v].  For a threshold t, round_at marks v
when t lands in any of its intervals.  At an LP-feasible x this is feasible
for every t in [0,1]: walking the Red vertices of an interesting path, the
level-indexed lengths start at 0, grow by at most x of the previous Red per
step, and reach at least 1 at the final, so the intervals of the non-final
Reds cover [0,1] and one of them catches t.  A vertex is caught by at most L
intervals, so the expected number of marks under uniform t is at most
L * sum(x), which is what makes the derandomized minimum an L-approximation.

The marking function of t is piecewise constant; it can only change where
some interval starts or ends.  breakpoints collects those endpoints (clamped
to [0,1], deduplicated, 0 and 1 appended) and derandomized_round evaluates
one candidate per breakpoint and per gap midpoint, re-checks each distinct
candidate with the exact integer level recursion, and returns the feasible
candidate of minimum cardinality, smallest t on ties.
"""

from __future__ import annotations

import random
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


def _require_matching_budget(tables: LevelTables, level: int) -> None:
    if level != tables.budget:
        raise ValueError("tables were computed for a different budget")


def _mark_mask(tables: LevelTables, t: float) -> np.ndarray:
    lo, hi = tables.intervals
    return ((lo - MEMBERSHIP_TOL <= t) & (t <= hi + MEMBERSHIP_TOL)).any(axis=0)


def round_at(tables: LevelTables, level: int, t: float) -> frozenset[int]:
    """Marks whose interval (any level 1..L) contains t, within 1e-9 slack."""
    _require_matching_budget(tables, level)
    return frozenset(int(v) for v in np.flatnonzero(_mark_mask(tables, t)))


def breakpoints(tables: LevelTables, level: int) -> list[float]:
    """Sorted distinct interval endpoints in [0,1], with 0 and 1 appended.

    At most 2*n*L distinct finite endpoints exist, so the list never exceeds
    2*n*L + 2 entries.
    """
    _require_matching_budget(tables, level)
    lo, hi = tables.intervals
    vals = np.concatenate([lo.ravel(), hi.ravel()])
    vals = vals[np.isfinite(vals)]
    vals = np.clip(vals, 0.0, 1.0)
    vals = np.unique(np.concatenate([vals, [0.0, 1.0]]))
    return [float(v) for v in vals]


def derandomized_round(circuit: Circuit, level: int, tables: LevelTables) -> RoundingOutcome:
    """Best threshold over one candidate per sub-interval of the breakpoints."""
    _require_matching_budget(tables, level)
    points = breakpoints(tables, level)
    candidates: list[float] = []
    for a, b in zip(points, points[1:]):
        candidates.append(a)
        candidates.append((a + b) / 2.0)
    candidates.append(points[-1])

    distinct: list[tuple[int, float, np.ndarray]] = []
    seen: set[bytes] = set()
    for t in candidates:
        mask = _mark_mask(tables, t)
        key = mask.tobytes()
        if key in seen:
            continue
        seen.add(key)
        distinct.append((int(mask.sum()), t, mask))

    # Candidates ascend in t, so stable sort by cardinality keeps the
    # smallest t first within each cardinality class.
    distinct.sort(key=lambda item: item[0])
    for cardinality, t, mask in distinct:
        marks = frozenset(int(v) for v in np.flatnonzero(mask))
        if is_feasible_by_levels(circuit, marks, level):
            return RoundingOutcome(marks=marks, t_used=t, cardinality=cardinality)
    raise NoFeasibleCandidate("no rounding candidate passed the exact feasibility check")


def randomized_round(
    circuit: Circuit, level: int, tables: LevelTables, seed: int
) -> RoundingOutcome:
    """Single uniform threshold from a seeded generator, feasibility-checked."""
    _require_matching_budget(tables, level)
    t = random.Random(seed).random()
    marks = round_at(tables, level, t)
    if not is_feasible_by_levels(circuit, marks, level):
        raise NoFeasibleCandidate(
            f"rounding at t={t} from seed {seed} produced an infeasible mark set"
        )
    return RoundingOutcome(marks=marks, t_used=t, cardinality=len(marks))
