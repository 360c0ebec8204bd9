"""Threshold rounding: interval membership, breakpoints, derandomization."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings

from bootplan.circuit import Color, eval_levels, is_feasible_by_levels
from bootplan.errors import NoFeasibleCandidate
from bootplan.generate import layered, random_circuit, red_chain
from bootplan.lp import solve_relaxation
from bootplan.paths import LevelTables, level_lengths
from bootplan.rounding import breakpoints, derandomized_round, intervals
from oracles import round_at
from strategies import build, levels_st, weighted_circuits

PROPERTY = settings(max_examples=120, deadline=None)

# Chain w -> r1 -> r2 -> r3 -> r4, weights chosen as exact binary fractions so
# every interval endpoint below is an exact float.
CHAIN_WEIGHTS = [0.0, 0.25, 0.5, 0.125, 0.0]


def chain_tables(level=3):
    c = build("wrrrr", *[(i, i + 1, 2) for i in range(4)])
    return c, level_lengths(c, level, CHAIN_WEIGHTS)


def test_round_at_frozen_thresholds():
    # Intervals per vertex (levels 1..3):
    #   r1: [0, .25]          r2: [0, .5], [.25, .75]
    #   r3: [0, .125], [.5, .625], [.75, .875]
    #   r4: [0, 0], [.125, .125], [.625, .625]
    _, tables = chain_tables()
    assert round_at(tables, 3, 0.0) == frozenset({1, 2, 3, 4})
    assert round_at(tables, 3, 0.3) == frozenset({2})
    assert round_at(tables, 3, 0.7) == frozenset({2})
    assert round_at(tables, 3, 0.8) == frozenset({3})
    assert round_at(tables, 3, 1.0) == frozenset()


def test_round_at_membership_is_inclusive():
    _, tables = chain_tables()
    assert 1 in round_at(tables, 3, 0.25)
    assert 4 in round_at(tables, 3, 0.125)


def test_intervals_are_levels_one_to_budget_plus_weights():
    c = red_chain(4)
    x = [0.0, 0.3, 0.2, 0.1, 0.0]
    t = level_lengths(c, 3, x)
    lo, hi = intervals(t)
    assert lo.tolist() == t.lengths[1:4]
    assert hi.tolist() == [[a + w for a, w in zip(row, x)] for row in t.lengths[1:4]]


def test_breakpoints_frozen():
    _, tables = chain_tables()
    assert breakpoints(*intervals(tables)) == [0.0, 0.125, 0.25, 0.5, 0.625, 0.75, 0.875, 1.0]


def test_breakpoints_bound():
    rng = random.Random(7)
    for trial in range(20):
        c = random_circuit(rng.randint(3, 14), rng.randrange(2**31))
        level = rng.choice((1, 2, 3))
        weights = [rng.random() for _ in range(c.n)]
        tables = level_lengths(c, level, weights)
        pts = breakpoints(*intervals(tables))
        assert len(pts) <= 2 * c.n * level + 2
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert pts == sorted(set(pts))


def test_derandomized_on_underfunded_chain():
    # The chain weights sum to 0.875 < 1 along the only interesting path, so
    # thresholds near 1 round to the empty set, which is infeasible; the
    # derandomized scan must skip it and land on a singleton.
    c, tables = chain_tables()
    outcome = derandomized_round(c, 3, tables)
    assert outcome.marks == frozenset({2})
    assert outcome.cardinality == 1
    assert outcome.t_used == 0.375


def test_derandomized_unit_weight_on_first_red():
    c = build("wrr", (0, 1, 2), (1, 2, 2))
    tables = level_lengths(c, 1, [0.0, 1.0, 0.0])
    outcome = derandomized_round(c, 1, tables)
    assert outcome.marks == frozenset({1})
    assert outcome.t_used == 0.5
    assert outcome.cardinality == 1


def test_derandomized_no_paths_returns_empty():
    c = build("wrr", (0, 1, 2), (0, 2, 1), (1, 2, 1))
    tables = level_lengths(c, 3, [0.0] * 3)
    outcome = derandomized_round(c, 3, tables)
    assert outcome.marks == frozenset()
    assert outcome.cardinality == 0


def test_no_feasible_candidate_raises():
    # A hand-built table for a red chain at L = 1 in which only the White
    # source's entries are finite: every threshold marks the source or
    # nothing, and neither set keeps the chain within budget.
    c = red_chain(3)
    inf = math.inf
    white_only = [0.0, inf, inf, inf]
    tables = LevelTables(c, [0.5, 0.0, 0.0, 0.0], [[inf] * 4, white_only])
    masks = {round_at(tables, 1, t) for t in breakpoints(*intervals(tables))}
    assert masks == {frozenset({0}), frozenset()}
    with pytest.raises(NoFeasibleCandidate):
        derandomized_round(c, 1, tables)


def test_budget_mismatch_rejected():
    c, tables = chain_tables(level=3)
    with pytest.raises(ValueError, match="different budget"):
        derandomized_round(c, 2, tables)


def test_circuit_mismatch_rejected():
    # Same budget, another circuit: rounding must not read the chain's table
    # as if it were the layered circuit's.
    tables = solve_relaxation(red_chain(7), 3).tables
    other = layered(2, 4, 1.0, 2)
    with pytest.raises(ValueError, match="different circuit"):
        derandomized_round(other, 3, tables)


@PROPERTY
@given(weighted_circuits(), levels_st)
def test_round_at_never_marks_white(args, level):
    circuit, weights = args
    tables = level_lengths(circuit, level, weights)
    whites = {v for v in range(circuit.n) if circuit.colors[v] is Color.WHITE}
    for t in breakpoints(*intervals(tables)):
        assert round_at(tables, level, t).isdisjoint(whites)


@PROPERTY
@given(weighted_circuits(), levels_st)
def test_round_at_constant_between_breakpoints(args, level):
    circuit, weights = args
    tables = level_lengths(circuit, level, weights)
    pts = breakpoints(*intervals(tables))
    for a, b in zip(pts, pts[1:]):
        if b - a < 1e-6:
            continue
        lo = a + (b - a) * 0.25
        hi = a + (b - a) * 0.75
        assert round_at(tables, level, lo) == round_at(tables, level, hi)


@PROPERTY
@given(weighted_circuits(), levels_st)
def test_marks_at_zero_include_every_red(args, level):
    # lengths[1] is 0 on Red vertices, so t = 0 lands in every Red interval.
    circuit, weights = args
    tables = level_lengths(circuit, level, weights)
    assert round_at(tables, level, 0.0) >= frozenset(circuit.red_vertices)


def test_rounding_lp_solution_feasible_at_every_breakpoint():
    rng = random.Random(13)
    for trial in range(20):
        c = random_circuit(rng.randint(4, 12), rng.randrange(2**31))
        level = rng.choice((1, 2, 3))
        result = solve_relaxation(c, level)
        tables = level_lengths(c, level, result.weights)
        for t in breakpoints(*intervals(tables)):
            marks = round_at(tables, level, t)
            assert is_feasible_by_levels(c, marks, level)
        for _ in range(10):
            marks = round_at(tables, level, rng.random())
            assert is_feasible_by_levels(c, marks, level)


def test_derandomized_is_minimum_over_thresholds():
    rng = random.Random(17)
    for trial in range(15):
        c = random_circuit(rng.randint(4, 11), rng.randrange(2**31))
        level = rng.choice((1, 2))
        result = solve_relaxation(c, level)
        tables = level_lengths(c, level, result.weights)
        outcome = derandomized_round(c, level, tables)
        assert is_feasible_by_levels(c, outcome.marks, level)
        pts = breakpoints(*intervals(tables))
        probes = pts + [(a + b) / 2 for a, b in zip(pts, pts[1:])]
        best = min(len(round_at(tables, level, t)) for t in probes)
        assert outcome.cardinality == best
        levels_after = eval_levels(c, outcome.marks)
        assert max(levels_after, default=0) <= level
