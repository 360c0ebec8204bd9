"""Restricted master correctness and row-generation behavior."""

from __future__ import annotations

import hashlib
import logging
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import oracles
from bootplan import lp
from bootplan.circuit import is_feasible_by_levels
from bootplan.errors import IterationLimitExceeded, NumericalFailure
from bootplan.exact import exact_bootstrap
from bootplan.generate import layered, random_circuit, red_chain
from bootplan.lp import Master, solve_relaxation, solve_restricted_master
from bootplan.paths import level_lengths
from bootplan.pipeline import plan
from bootplan.rounding import derandomized_round
from strategies import build, circuits

PROPERTY = settings(max_examples=100, deadline=None)


def scipy_covering_optimum(rows, n):
    a = [[-1.0 if v in row else 0.0 for v in range(n)] for row in rows]
    res = linprog(
        c=[1.0] * n,
        A_ub=a,
        b_ub=[-1.0] * len(rows),
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    assert res.success
    return res.fun


# --- restricted master ------------------------------------------------------


def test_no_rows_means_zero():
    weights, objective = solve_restricted_master(4, [], Master())
    assert weights == [0.0] * 4
    assert objective == 0.0


def test_single_row_costs_one():
    weights, objective = solve_restricted_master(3, [frozenset({0, 2})], Master())
    assert objective == pytest.approx(1.0, abs=1e-9)
    assert weights[0] + weights[2] == pytest.approx(1.0, abs=1e-9)
    assert weights[1] == 0.0


def test_triangle_rows_cost_three_halves():
    # {a,b}, {b,c}, {a,c}: every pair must sum to 1, optimum x = 1/2 each.
    rows = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
    weights, objective = solve_restricted_master(3, rows, Master())
    assert objective == pytest.approx(1.5, abs=1e-9)
    # Second route: exhaustive vertex enumeration of the 3-constraint polytope.
    assert oracles.covering_lp_by_vertex_enumeration(rows, 3) == pytest.approx(1.5)
    for row in rows:
        assert sum(weights[v] for v in row) >= 1.0 - 1e-9


def test_disjoint_rows_add_up():
    rows = [frozenset({0, 1}), frozenset({2}), frozenset({3, 4, 5})]
    _, objective = solve_restricted_master(6, rows, Master())
    assert objective == pytest.approx(3.0, abs=1e-9)


def test_duplicate_vertex_row_requires_full_unit():
    weights, objective = solve_restricted_master(2, [frozenset({1})], Master())
    assert weights[1] == pytest.approx(1.0)
    assert objective == pytest.approx(1.0)


def test_simplex_iteration_cap_raises(monkeypatch):
    # With a negative tolerance every basic column stays eligible to enter
    # and pivots onto itself, so only the iteration cap ends the loop.
    monkeypatch.setattr(lp, "_REDCOST_TOL", -1.0)
    with pytest.raises(IterationLimitExceeded):
        solve_restricted_master(3, [frozenset({0, 2})], Master())


def test_master_returns_its_packing_certificate():
    # An odd cycle of pairs: x = z = 1/2 everywhere, objective 3/2.
    master = Master()
    master.extend([frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})])
    assert master.basis.tolist() == [3, 4, 5]  # the slack basis
    x, z = master.simplex()
    assert x == pytest.approx([0.5] * 3, abs=1e-12)
    assert z == pytest.approx([0.5] * 3, abs=1e-12)


def test_uncertified_master_raises(monkeypatch):
    # Declaring optimality while reduced costs up to 0.9 remain leaves this
    # master with a covering row below 1, which the certificate rejects.
    monkeypatch.setattr(lp, "_REDCOST_TOL", 0.9)
    rows = [frozenset(r) for r in ({0, 1}, {0, 2}, {0, 3}, {1, 2})]
    with pytest.raises(NumericalFailure, match="certificate"):
        solve_restricted_master(4, rows, Master())


def test_bad_start_basis_raises():
    # Both packing rows claim row 0 as their basic column, and the carried
    # pivot count makes the next master rebuild its tableau from that basis.
    rows = [frozenset({0, 1})]
    master = Master()
    master.extend(rows)
    master.basis[:] = 0
    master.pivots = lp.REFACTOR_EVERY
    with pytest.raises(NumericalFailure, match="singular"):
        solve_restricted_master(2, rows + [frozenset({0})], master)


def grown_master(rng, n, rounds):
    """Row lists of a master grown round by round.  Each round appends rows
    over vertices no earlier row touched, rows over old vertices, and
    repeats, subsets and supersets of earlier rows, which make it degenerate."""
    rows: list[frozenset[int]] = []
    fresh = list(range(n))
    rng.shuffle(fresh)
    masters = []
    for _ in range(rounds):
        for _ in range(rng.randint(3, 12)):
            kind = rng.random()
            if fresh and (not rows or kind < 0.3):
                take = [fresh.pop() for _ in range(min(len(fresh), rng.randint(1, 3)))]
                old = rng.sample(sorted(set().union(*rows)), min(2, len(rows))) if rows else []
                rows.append(frozenset(take + old))
            elif kind < 0.5:
                rows.append(rng.choice(rows))
            elif kind < 0.7:
                base = sorted(rng.choice(rows))
                if len(base) > 1:
                    rows.append(frozenset(rng.sample(base, len(base) - 1)))
                else:
                    rows.append(frozenset(base) | {rng.choice(sorted(set().union(*rows)))})
            else:
                used = sorted(set().union(*rows))
                rows.append(frozenset(rng.sample(used, min(len(used), rng.randint(2, 6)))))
        masters.append(list(rows))
    return masters


def recorded_masters(circuit, level):
    """The row list of every master row generation solves on `circuit`,
    each checked first against what the master assumes of its caller."""
    masters = []
    solve = lp.solve_restricted_master

    def record(n, rows, master):
        oracles.assert_master_input(n, list(rows), master, masters[-1] if masters else [])
        masters.append(list(rows))
        return solve(n, rows, master)

    lp.solve_restricted_master = record
    try:
        solve_relaxation(circuit, level)
    finally:
        lp.solve_restricted_master = solve
    return masters


@pytest.mark.parametrize("bland_after", [lp.BLAND_AFTER, 1], ids=["default", "eager-bland"])
def test_warm_started_master_matches_cold_and_highs(monkeypatch, bland_after):
    """A master carried from the previous round reaches the same optimum
    as one started from the slack basis, and as HiGHS.  The
    400-vertex circuit's masters run more than BLAND_AFTER degenerate pivots
    in a row, so they price by Bland's rule at the default too; eager-bland
    switches to it after every degenerate pivot."""
    rng = random.Random(29)
    grown = [(n, grown_master(rng, n, rng.randint(3, 8))) for n in (12, 30, 60, 90)]
    big = layered(10, 40, 0.3, 1)
    grown.append((big.n, recorded_masters(big, 3)[1:]))
    monkeypatch.setattr(lp, "BLAND_AFTER", bland_after)
    for n, masters in grown:
        master = Master()
        for rows in masters:
            warm_weights, warm = solve_restricted_master(n, rows, master)
            _, cold = solve_restricted_master(n, rows, Master())
            assert set(master.vertices) == set().union(*rows)
            assert master.packing.shape == (len(master.vertices), len(rows))
            assert warm == pytest.approx(cold, abs=1e-9)
            assert warm == pytest.approx(scipy_covering_optimum(rows, n), abs=1e-9)
            for row in rows:
                assert sum(warm_weights[v] for v in row) >= 1.0 - 1e-9


def test_corrupted_carried_tableau_is_repaired(monkeypatch):
    """Halving the carried right-hand sides leaves every pivot choice as it
    was, so the next master reaches its optimal basis with z halved; the
    certificate rejects that, and the refactor from the final basis repairs
    it."""
    cycle = [frozenset({i, (i + 1) % 5}) for i in range(5)]
    master = Master()
    solve_restricted_master(5, cycle[:4], master)
    master.tableau[:-1, -1] *= 0.5  # the constraint rows' right-hand sides
    refactor = lp.Master.refactor
    refactors = []

    def counted(self):
        refactors.append(1)
        refactor(self)

    monkeypatch.setattr(lp.Master, "refactor", counted)
    weights, objective = solve_restricted_master(5, cycle, master)
    assert len(refactors) == 1
    assert objective == pytest.approx(scipy_covering_optimum(cycle, 5), abs=1e-9)
    assert objective == pytest.approx(2.5, abs=1e-9)
    for row in cycle:
        assert sum(weights[v] for v in row) >= 1.0 - 1e-9


def test_carried_master_solves_only_to_rebuild(monkeypatch):
    """No master solves for its tableau on entry: np.linalg.solve runs only
    in the rebuilds after every REFACTOR_EVERY pivots, counted across
    rounds.  The 750-vertex circuit's dozen or so masters run thousands of
    pivots; a solve on entry would add one per master."""
    solves = []
    solve = np.linalg.solve

    def counted_solve(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    since_rebuild = []  # pivots since the last rebuild, at each rebuild
    refactor = lp.Master.refactor

    def counted_refactor(self):
        since_rebuild.append(self.pivots)
        refactor(self)

    monkeypatch.setattr(lp.Master, "refactor", counted_refactor)
    masters = []
    master_solve = lp.solve_restricted_master

    def record(n, rows, master):
        masters.append(master)
        return master_solve(n, rows, master)

    monkeypatch.setattr(lp, "solve_restricted_master", record)
    solve_relaxation(layered(15, 50, 0.3, 1), 3)
    pivots = sum(since_rebuild) + masters[-1].pivots
    assert pivots > lp.REFACTOR_EVERY
    assert since_rebuild == [lp.REFACTOR_EVERY] * len(solves)
    assert len(solves) == pivots // lp.REFACTOR_EVERY


def test_empty_row_rejected():
    with pytest.raises(NumericalFailure, match="unbounded direction"):
        solve_restricted_master(2, [frozenset()], Master())


@pytest.mark.parametrize(
    "circuit,level",
    [(random_circuit(40, s), level) for s in range(4) for level in (1, 2)]
    + [(layered(6, 8, 0.4, s), level) for s in range(3) for level in (1, 2)]
    + [(layered(10, 40, 0.3, 1), 3)],
)
def test_relaxation_gives_the_master_what_it_assumes(circuit, level):
    # recorded_masters checks each call's rows and basis before the master runs.
    assert len(recorded_masters(circuit, level)) >= 2


def test_master_solution_is_feasible_and_bounded():
    rng = random.Random(5)
    for trial in range(40):
        n = rng.randint(2, 12)
        rows = [
            frozenset(rng.sample(range(n), rng.randint(1, min(4, n))))
            for _ in range(rng.randint(1, 10))
        ]
        weights, objective = solve_restricted_master(n, rows, Master())
        assert all(-1e-9 <= w <= 1 + 1e-9 for w in weights)
        for row in rows:
            assert sum(weights[v] for v in row) >= 1.0 - 1e-7
        assert objective == pytest.approx(sum(weights), abs=1e-9)
        assert objective == pytest.approx(scipy_covering_optimum(rows, n), abs=1e-7)


def test_master_matches_vertex_enumeration_on_small_lps():
    rng = random.Random(11)
    for trial in range(30):
        n = rng.randint(1, 4)
        rows = [
            frozenset(rng.sample(range(n), rng.randint(1, n)))
            for _ in range(rng.randint(1, 4))
        ]
        _, objective = solve_restricted_master(n, rows, Master())
        expected = oracles.covering_lp_by_vertex_enumeration(rows, n)
        assert objective == pytest.approx(expected, abs=1e-9)


def test_master_matches_highs_at_master_scale():
    """Sizes and degeneracy of the masters that 150-vertex circuits at L=2
    produce: many short rows over shared vertices, some nested in earlier
    rows and some repeated."""
    rng = random.Random(17)
    for trial in range(12):
        n = rng.randint(40, 100)
        rows: list[frozenset[int]] = []
        for _ in range(rng.randint(60, 150)):
            kind = rng.random()
            if rows and kind < 0.15:
                rows.append(rng.choice(rows))
            elif rows and kind < 0.35:
                base = sorted(rng.choice(rows))
                if len(base) > 1 and rng.random() < 0.5:
                    rows.append(frozenset(rng.sample(base, len(base) - 1)))
                else:
                    rows.append(frozenset(base) | {rng.randrange(n)})
            else:
                rows.append(frozenset(rng.sample(range(n), rng.randint(2, 8))))
        weights, objective = solve_restricted_master(n, rows, Master())
        assert all(0.0 <= w <= 1.0 for w in weights)
        for row in rows:
            assert sum(weights[v] for v in row) >= 1.0 - 1e-7
        assert objective == pytest.approx(sum(weights), abs=1e-9)
        assert objective == pytest.approx(scipy_covering_optimum(rows, n), abs=1e-7)


# --- row generation ---------------------------------------------------------


def test_no_interesting_paths_means_zero_objective():
    c = build("wrr", (0, 1, 2), (0, 2, 1), (1, 2, 1))
    result = solve_relaxation(c, 3)
    assert result.objective == 0.0
    assert result.weights == [0.0] * 3
    assert result.constraints_generated == 0
    assert result.iterations == 1


def test_separation_repeating_a_master_row_raises(monkeypatch):
    # A master that ignores its rows leaves the chain's one interesting path
    # violated, so the second round re-finds a row it already holds.
    monkeypatch.setattr(lp, "solve_restricted_master", lambda n, rows, basis: ([0.0] * n, 0.0))
    with pytest.raises(NumericalFailure):
        solve_relaxation(red_chain(4), 1)


def test_separation_walking_back_to_a_master_row_raises(monkeypatch):
    # A walk-back that always returns the first row it found: the second
    # round's master covers that row, other finals of the chain are still
    # violated, and every row separation finds for them is already present.
    walk = lp.backtrack_path
    found = []

    def first_row_only(tables, vertex, level):
        found.append(found[0] if found else walk(tables, vertex, level))
        return found[-1]

    monkeypatch.setattr(lp, "backtrack_path", first_row_only)
    with pytest.raises(NumericalFailure, match="violated row already present in the master"):
        solve_relaxation(red_chain(4), 1)
    assert len(found) > 1


def test_a_held_row_raises_beside_a_new_one(monkeypatch):
    # The second round's first walk-back finds a new row and its second
    # returns a row the master holds: the round raises, though it added a row.
    walk, solve = lp.backtrack_path, lp.solve_restricted_master
    masters, walks = [], []  # the rows of each master; this round's walks

    def record(n, rows, master):
        masters.append(list(rows))
        walks.clear()
        return solve(n, rows, master)

    def held_second(tables, vertex, level):
        walks.append(walk(tables, vertex, level))
        if len(masters) == 2 and len(walks) == 2:
            return tuple(sorted(masters[1][0]))
        return walks[-1]

    monkeypatch.setattr(lp, "solve_restricted_master", record)
    monkeypatch.setattr(lp, "backtrack_path", held_second)
    with pytest.raises(NumericalFailure, match="violated row already present in the master"):
        solve_relaxation(layered(10, 15, 0.5, 1), 2)
    assert len(masters) == 2 and frozenset(walks[0]) not in masters[1]


@pytest.mark.parametrize(
    "circuit",
    [red_chain(6), layered(10, 15, 0.5, 1), layered(10, 15, 0.5, 2)],
    ids=["chain", "layered-1", "layered-2"],
)
def test_each_walk_back_adds_a_row_and_each_master_one_table(circuit, monkeypatch):
    # A pred that feeds several violated finals is walked back once, and a
    # round sweeps the level table once, at its budget.
    calls = {"walk": 0, "sweep": 0, "master": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)

        return call

    monkeypatch.setattr(lp, "backtrack_path", counted("walk", lp.backtrack_path))
    monkeypatch.setattr(lp, "level_lengths", counted("sweep", lp.level_lengths))
    monkeypatch.setattr(
        lp, "solve_restricted_master", counted("master", lp.solve_restricted_master)
    )
    result = solve_relaxation(circuit, 2)
    assert calls["walk"] == len(result.rows)
    assert calls["sweep"] == calls["master"] == result.iterations
    assert result.tables.budget == 2 and len(result.tables.lengths) == 3


@PROPERTY
@given(circuits(max_vertices=9), st.sampled_from((2, 3)))
def test_every_added_row_is_a_violated_interesting_path(circuit, level):
    masters = []  # (weights, row count) of each master, in order
    solve = lp.solve_restricted_master

    def record(n, rows, master):
        weights, objective = solve(n, rows, master)
        masters.append((weights, len(rows)))
        return weights, objective

    with pytest.MonkeyPatch.context() as mp:  # the fixture would span examples
        mp.setattr(lp, "solve_restricted_master", record)
        result = solve_relaxation(circuit, level)
    paths = oracles.interesting_paths_brute(circuit, level)
    rows = {frozenset(p[:-1]) for p in paths}
    counts = [count for _, count in masters[1:]] + [len(result.rows)]
    for (weights, start), stop in zip(masters, counts):
        def violated(row):
            return sum(weights[v] for v in row) < 1.0 - lp.VIOLATION_TOL

        finals = {p[-1] for p in paths if violated(p[:-1])}
        added = result.rows[start:stop]
        assert len(added) <= 2 * len(finals)
        for row in added:
            assert row in rows
            assert violated(row)


def test_chain_relaxation_value_one():
    c = build("wrrrr", *[(i, i + 1, 2) for i in range(4)])
    result = solve_relaxation(c, 3)
    assert result.objective == pytest.approx(1.0, abs=1e-9)
    assert result.rows == (frozenset({1, 2, 3}),)


def test_relaxation_certificate_and_row_satisfaction():
    rng = random.Random(23)
    for trial in range(25):
        c = random_circuit(rng.randint(4, 12), rng.randrange(2**31))
        level = rng.choice((1, 2, 3))
        result = solve_relaxation(c, level)
        tables = level_lengths(c, level + 1, result.weights)
        for v in c.red_vertices:
            assert tables.lengths[level + 1][v] >= 1.0 - 1e-7
        for row in result.rows:
            assert sum(result.weights[v] for v in row) >= 1.0 - 1e-7
        assert result.objective == pytest.approx(sum(result.weights), abs=1e-9)
        assert all(-1e-9 <= w <= 1 + 1e-9 for w in result.weights)


def test_relaxation_returns_the_table_it_certified():
    rng = random.Random(41)
    for trial in range(30):
        size = rng.randint(4, 14)
        seed = rng.randrange(2**31)
        c = (random_circuit(size, seed), layered(3, size // 3, 0.5, seed))[trial % 2]
        level = rng.choice((1, 2, 3))
        result = solve_relaxation(c, level)
        rebuilt = level_lengths(c, level, result.weights)
        assert result.tables.budget == level
        assert result.tables.weights == rebuilt.weights
        assert result.tables.lengths == rebuilt.lengths


def test_relaxation_lower_bounds_every_feasible_set():
    """LP value <= any integral feasible cardinality (spot check vs full LP)."""
    rng = random.Random(31)
    for trial in range(15):
        c = random_circuit(rng.randint(4, 10), rng.randrange(2**31))
        level = rng.choice((1, 2))
        result = solve_relaxation(c, level)
        paths = oracles.interesting_paths_brute(c, level)
        if not paths:
            assert result.objective == 0.0
            continue
        # The full covering LP over all interesting paths must agree: row
        # generation stops exactly when its master already dominates it.
        full_rows = {frozenset(p[:-1]) for p in paths}
        full = scipy_covering_optimum(sorted(full_rows, key=sorted), c.n)
        assert result.objective == pytest.approx(full, abs=1e-6)


@pytest.mark.parametrize(
    "shape, level",
    [
        ((15, 50, 0.3, 1), 3),
        ((10, 35, 0.35, 11), 3),
        ((12, 40, 0.4, 9), 4),
        ((10, 40, 0.3, 1), 3),
    ],
    ids=["750-vertex", "350-vertex", "480-vertex", "400-vertex"],
)
def test_degenerate_relaxations_agree_with_highs(shape, level):
    # Masters of about 200 to 800 highly degenerate rows, with long runs of
    # degenerate pivots whose right-hand sides are rounding noise around 0;
    # the solve must finish and agree with HiGHS on the rows it generated.
    c = layered(*shape)
    result = solve_relaxation(c, level)
    assert result.objective == pytest.approx(
        scipy_covering_optimum(result.rows, c.n), abs=1e-6
    )


def test_lp_dense_shaped_plans_are_frozen():
    # The shape planbench's lp-dense workload times: 150 vertices at L = 2,
    # masters of about a hundred rows with long degenerate stretches.  Any
    # change to the pivots' arithmetic that reaches another optimum moves
    # the marks, the threshold or the row set pinned here.
    digest = hashlib.sha256()
    for s in range(12):
        result = plan(layered(10, 15, 0.5, s), 2)
        digest.update(repr((
            sorted(result.marks),
            result.rounding.t_used.hex(),
            f"{result.lp.objective:.9f}",
            len(result.lp.rows),
            result.lp.iterations,
        )).encode())
    assert digest.hexdigest() == (
        "12e3fb1fcb9e391cbf856e2326d19ad5275901fd06a70946fb39082e005d2b34"
    )


def test_lp_dense_shaped_objectives_are_frozen():
    # The LP value of each instance pinned above.  Separating otherwise or
    # pivoting otherwise may reach another optimum, never another value.
    objectives = [
        f"{solve_relaxation(layered(10, 15, 0.5, s), 2).objective:.9f}" for s in range(12)
    ]
    assert objectives == [
        "18.000000000", "19.500000000", "23.000000000", "22.500000000",
        "23.000000000", "25.500000000", "22.500000000", "22.500000000",
        "24.000000000", "28.500000000", "27.000000000", "25.000000000",
    ]


def test_relaxation_outputs_are_frozen_bit_for_bit(monkeypatch):
    # Every bit of the relaxation: the weights and objective as float.hex,
    # the rows in the order they were added, and the round count.  The
    # masters of the twelve lp-dense shapes above and of the 400-vertex
    # circuit reach these exact floats only through the same pivots in the
    # same arithmetic.  On single-threaded BLAS (conftest.py) the twelve
    # never price by Bland's rule, while the 400-vertex circuit does 39
    # times at the default BLAND_AFTER (its longest degenerate run is 71
    # pivots), so its outputs differ from those of Dantzig pricing alone.
    # It is solved once more with Bland's rule pricing after every
    # degenerate pivot (598 times).
    def outputs(circuit, level, bland_after):
        monkeypatch.setattr(lp, "BLAND_AFTER", bland_after)
        result = solve_relaxation(circuit, level)
        return repr((
            [w.hex() for w in result.weights],
            result.objective.hex(),
            [sorted(row) for row in result.rows],
            result.iterations,
        ))

    digest = hashlib.sha256()
    default, big = lp.BLAND_AFTER, layered(10, 40, 0.3, 1)
    cases = [(layered(10, 15, 0.5, s), 2, default) for s in range(12)]
    cases += [(big, 3, default), (big, 3, 1)]
    for case in cases:
        digest.update(outputs(*case).encode())
    assert digest.hexdigest() == (
        "1b47cbbd70684b146947bdf7af7d3694c719cb29d794de05b9d372568299157e"
    )
    assert outputs(big, 3, 10**9) != outputs(big, 3, default)


def test_trace_lines_and_monotone_objective(caplog):
    # One INFO record per round on bootplan.lp, whose args carry the values.
    c = build("wrrrrrr", *[(i, i + 1, 2) for i in range(6)])
    with caplog.at_level(logging.INFO, logger="bootplan.lp"):
        result = solve_relaxation(c, 2)
    records = [r for r in caplog.records if r.name == "bootplan.lp"]
    assert len(records) == result.iterations
    assert all(r.levelno == logging.INFO for r in records)
    assert [r.args[0] for r in records] == list(range(1, result.iterations + 1))
    objectives = [r.args[1] for r in records]
    assert objectives == sorted(objectives)
    assert objectives[-1] == result.objective
    added = [r.args[2] for r in records]
    assert all(a > 0 for a in added[:-1]) and added[-1] == 0
    assert sum(added) == result.constraints_generated
    for r in records:
        assert r.getMessage() == f"{r.args[0]}\t{r.args[1]:.9f}\t{r.args[2]}"


def test_iteration_limit_raises(monkeypatch):
    # The cap is max(1, ROUNDS_PER_VERTEX_LEVEL * n * level): one round here,
    # and the chain needs more.
    monkeypatch.setattr(lp, "ROUNDS_PER_VERTEX_LEVEL", 0)
    c = build("wrrrr", *[(i, i + 1, 2) for i in range(4)])
    with pytest.raises(IterationLimitExceeded, match="exceeded 1 iterations"):
        solve_relaxation(c, 1)


@PROPERTY
@given(circuits(max_vertices=9))
def test_relaxation_value_never_exceeds_feasible_cardinality(circuit):
    level = 2
    result = solve_relaxation(circuit, level)
    # after_every_red is feasible, so the LP can never exceed the red count.
    assert result.objective <= len(circuit.red_vertices) + 1e-7
    marks = frozenset(circuit.red_vertices)
    assert is_feasible_by_levels(circuit, marks, level)


@pytest.mark.parametrize("seed, lp_value, opt", [(11, 25.0, 26), (12, 28.0, 29), (13, 25.5, 30)])
def test_compact_program_certifies_the_value_and_the_chain(seed, lp_value, opt):
    # The compact program reaches the covering LP without separation, so
    # its relaxation checks the row-generation value at 150 vertices, where
    # no brute force reaches, and its integral optimum places OPT in the
    # chain LP <= OPT <= rounded <= L * LP.
    c, level = layered(10, 15, 0.5, seed), 2
    result = solve_relaxation(c, level)
    relaxed = oracles.compact_covering(c, level, integral=False)
    optimum = oracles.compact_covering(c, level, integral=True)
    rounded = len(derandomized_round(c, level, result.tables).marks)
    assert relaxed == pytest.approx(result.objective, abs=1e-7)
    assert (relaxed, optimum) == pytest.approx((lp_value, opt), abs=1e-7)
    assert result.objective - 1e-9 <= round(optimum) <= rounded <= level * result.objective + 1e-9


def test_compact_program_optimum_is_the_exact_optimum():
    # Few Whites, so most optima are above 0 (0 to 5 here).
    rng = random.Random(26)
    for _ in range(20):
        c = random_circuit(rng.randint(10, 20), rng.randrange(2**31), white_fraction=0.15)
        level = rng.randint(1, 2)
        optimum = oracles.compact_covering(c, level, integral=True)
        assert optimum == pytest.approx(exact_bootstrap(c, level).optimum, abs=1e-7)
