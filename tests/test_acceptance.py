"""Acceptance suite: one check per shipped guarantee, one printed line each.

Each test prints a single `[acceptance] ...: PASS/FAIL` summary through the
capture-disabled channel so the verdicts are visible in a plain pytest run,
then asserts.  Counts, tolerances, and time budgets are part of the checks.
All randomness is seeded, so the suite is deterministic.
"""

from __future__ import annotations

import random
import statistics
import time

import oracles
from bootplan.baselines import after_every_red, greedy_topological
from bootplan.circuit import is_feasible_by_levels
from bootplan.dvd import reduce_to_circuit
from bootplan.exact import exact_bootstrap
from bootplan.generate import layered, random_circuit, red_chain
from bootplan.lp import solve_relaxation
from bootplan.paths import level_lengths
from bootplan.rounding import breakpoints, derandomized_round
from oracles import exact_dvd, pull_back, random_dvd
from strategies import build


def report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def varied_circuit(rng, lo, hi):
    """Random instance with drawn color mix, so deep Red paths are common.

    The default mix leaves most small instances without any interesting path;
    the checks below also assert a floor on nontrivial draws to stay honest.
    """
    return random_circuit(
        rng.randint(lo, hi),
        rng.randrange(2**31),
        white_fraction=rng.uniform(0.05, 0.3),
        red_fraction=rng.uniform(0.4, 0.95),
    )


def test_acceptance_01_feasibility_checkers_agree(capsys):
    rng = random.Random(101)
    start = time.perf_counter()
    disagreements = 0
    infeasible_seen = 0
    trials = 1000
    for _ in range(trials):
        c = varied_circuit(rng, 2, 12)
        level = rng.choice((1, 2, 3))
        p = rng.random()
        marks = frozenset(v for v in range(c.n) if rng.random() < p)
        by_levels = is_feasible_by_levels(c, marks, level)
        by_paths = oracles.feasible_by_paths_brute(c, marks, level)
        if by_levels != by_paths:
            disagreements += 1
        if not by_levels:
            infeasible_seen += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and infeasible_seen >= 100 and elapsed < 60
    report(
        capsys,
        "1 level/path feasibility equivalence",
        ok,
        f"{trials} triples, {disagreements} disagreements, "
        f"{infeasible_seen} infeasible draws, {elapsed:.1f}s",
    )
    assert disagreements == 0
    assert infeasible_seen >= 100
    assert elapsed < 60


def test_acceptance_02_length_tables_match_enumeration(capsys):
    rng = random.Random(202)
    start = time.perf_counter()
    worst = 0.0
    mismatches = 0
    trials = 200
    for _ in range(trials):
        c = random_circuit(rng.randint(2, 10), rng.randrange(2**31))
        level = rng.choice((1, 2, 3))
        weights = [0.0 if c.colors[v].value == "white" else rng.random() for v in range(c.n)]
        tables = level_lengths(c, level + 1, weights)
        expected = oracles.min_lengths_brute(c, level, weights)
        for i in range(1, level + 2):
            for v in range(c.n):
                got = tables.lengths[i][v]
                want = expected.get((v, i), float("inf"))
                if (got == float("inf")) != (want == float("inf")):
                    mismatches += 1
                elif got != float("inf"):
                    worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and worst <= 1e-9 and elapsed < 60
    report(
        capsys,
        "2 length tables match path enumeration",
        ok,
        f"{trials} pairs, max error {worst:.2e}, {mismatches} infinity mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert worst <= 1e-9
    assert elapsed < 60


def test_acceptance_03_rounding_feasible_at_every_threshold(capsys):
    rng = random.Random(303)
    start = time.perf_counter()
    checked = 0
    failures = 0
    trials = 500
    nontrivial = 0
    for _ in range(trials):
        c = varied_circuit(rng, 3, 16)
        level = rng.choice((1, 2, 3))
        lp = solve_relaxation(c, level)
        if lp.objective > 1e-9:
            nontrivial += 1
        tables = level_lengths(c, level, lp.weights)
        thresholds = breakpoints(tables, level) + [rng.random() for _ in range(20)]
        for t in thresholds:
            checked += 1
            if not is_feasible_by_levels(c, oracles.round_at(tables, level, t), level):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and nontrivial >= 180 and elapsed < 120
    report(
        capsys,
        "3 rounding feasible at every threshold",
        ok,
        f"{trials} instances ({nontrivial} nontrivial), {checked} thresholds, "
        f"{failures} infeasible, {elapsed:.1f}s",
    )
    assert failures == 0
    assert nontrivial >= 180
    assert elapsed < 120


def test_acceptance_04_approximation_chain(capsys):
    rng = random.Random(404)
    start = time.perf_counter()
    violations = 0
    trials = 300
    nontrivial = 0
    for _ in range(trials):
        c = varied_circuit(rng, 6, 14)
        level = rng.choice((2, 3))
        lp = solve_relaxation(c, level)
        if lp.objective > 1e-9:
            nontrivial += 1
        tables = level_lengths(c, level, lp.weights)
        rounded = derandomized_round(c, level, tables).cardinality
        opt = exact_bootstrap(c, level).optimum
        chain_holds = (
            lp.objective <= opt + 1e-6
            and opt <= rounded
            and rounded <= level * lp.objective + 1e-6
            and level * lp.objective <= level * opt + 1e-6
        )
        if not chain_holds:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and nontrivial >= 100
    report(
        capsys,
        "4 relaxation <= optimum <= rounded <= L*relaxation",
        ok,
        f"{trials} instances ({nontrivial} nontrivial), {violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0
    assert nontrivial >= 100


def test_acceptance_05_budget_one_rounding_is_optimal(capsys):
    rng = random.Random(505)
    start = time.perf_counter()
    violations = 0
    trials = 300
    nontrivial = 0
    for _ in range(trials):
        c = varied_circuit(rng, 3, 12)
        lp = solve_relaxation(c, 1)
        if lp.objective > 1e-9:
            nontrivial += 1
        tables = level_lengths(c, 1, lp.weights)
        rounded = derandomized_round(c, 1, tables).cardinality
        if rounded != exact_bootstrap(c, 1).optimum:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and nontrivial >= 150
    report(
        capsys,
        "5 budget-1 rounding equals the optimum",
        ok,
        f"{trials} instances ({nontrivial} nontrivial), {violations} mismatches, {elapsed:.1f}s",
    )
    assert violations == 0
    assert nontrivial >= 150


def test_acceptance_06_reduction_preserves_optimum(capsys):
    rng = random.Random(606)
    start = time.perf_counter()
    violations = 0
    trials = 200
    for _ in range(trials):
        n = rng.randint(1, 8)
        level = rng.choice((2, 3))
        inst = random_dvd(n, seed=rng.randint(0, 10**9))
        opt = exact_dvd(inst, level)
        rmap = reduce_to_circuit(inst)
        result = exact_bootstrap(rmap.circuit, level, max_subsets=1 << rmap.circuit.n)
        if result.optimum != opt.optimum:
            violations += 1
            continue
        back = pull_back(rmap, result.witness, level)
        if oracles.longest_path_brute(inst, back) >= level or len(back) != opt.optimum:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 120
    report(
        capsys,
        "6 deletion/bootstrap optima coincide",
        ok,
        f"{trials} instances, {violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0
    assert elapsed < 120


def test_acceptance_07_regression_fixtures(capsys):
    # Fixture 1: three Reds sharing a Blue fan-out; marking after every Red
    # costs 3, the optimum is 2, and budget-1 rounding reaches it exactly.
    a = build("wrbrr", (0, 1, 2), (1, 2, 2), (2, 3, 1), (1, 3, 1), (3, 4, 1), (2, 4, 1))
    a_exact = exact_bootstrap(a, 1)
    a_lp = solve_relaxation(a, 1)
    a_round = derandomized_round(a, 1, a_lp.tables)
    fixture_a = (
        a_exact.optimum == 2
        and a_exact.witness == frozenset({1, 3})
        and len(after_every_red(a)) == 3
        and len(greedy_topological(a, 1)) == 3
        and abs(a_lp.objective - 2.0) <= 1e-9
        and a_round.cardinality == 2
        and a_round.marks == frozenset({1, 3})
    )

    # Fixture 2: seven Reds in a row at budget 3; the naive baseline marks
    # all 7, the optimum is 2, and rounding lands on the optimal {r3, r6}.
    b = red_chain(7)
    b_exact = exact_bootstrap(b, 3)
    b_lp = solve_relaxation(b, 3)
    b_round = derandomized_round(b, 3, b_lp.tables)
    fixture_b = (
        b_exact.optimum == 2
        and len(after_every_red(b)) == 7
        and abs(b_lp.objective - 2.0) <= 1e-9
        and b_round.cardinality == 2
        and b_round.marks == frozenset({3, 6})
        and b_round.cardinality <= 3 * b_exact.optimum
    )

    ok = fixture_a and fixture_b
    report(
        capsys,
        "7 golden fixtures (optimum 2 vs naive 3 and 7)",
        ok,
        f"fixture1 {'ok' if fixture_a else 'broken'}, fixture2 {'ok' if fixture_b else 'broken'}",
    )
    assert fixture_a
    assert fixture_b


def test_acceptance_08_scale_smoke(capsys):
    start = time.perf_counter()
    c = layered(25, 400, 0.10, seed=1)
    assert c.n == 10_000
    lp = solve_relaxation(c, 10)
    tables = level_lengths(c, 10, lp.weights)
    outcome = derandomized_round(c, 10, tables)
    elapsed = time.perf_counter() - start
    feasible = is_feasible_by_levels(c, outcome.marks, 10)
    within_factor = outcome.cardinality <= 10 * lp.objective + 1e-6
    ok = feasible and within_factor and elapsed < 300
    report(
        capsys,
        "8 scale smoke (10^4 vertices, budget 10)",
        ok,
        f"relaxation {lp.objective:.2f} with {lp.constraints_generated} rows, "
        f"marked {outcome.cardinality}, feasible {feasible}, {elapsed:.1f}s",
    )
    assert feasible
    assert within_factor
    assert elapsed < 300


def test_acceptance_09_randomized_rounding_statistics(capsys):
    rng = random.Random(909)
    start = time.perf_counter()
    level = 2
    instances = []
    draws = 0
    while len(instances) < 20:
        c = varied_circuit(rng, 6, 12)
        lp = solve_relaxation(c, level)
        if lp.objective > 0.25:
            instances.append((c, lp))
        draws += 1
        assert draws < 10_000
    n_seeds = 10_000
    mean_violations = 0
    min_violations = 0
    infeasible = 0
    for c, lp in instances:
        tables = level_lengths(c, level, lp.weights)
        cards = []
        for seed in range(n_seeds):
            t = random.Random(seed).random()
            marks = oracles.round_at(tables, level, t)
            if not is_feasible_by_levels(c, marks, level):
                infeasible += 1
            cards.append(len(marks))
        mean = statistics.fmean(cards)
        stderr = statistics.stdev(cards) / n_seeds**0.5
        if mean > level * lp.objective + 3 * stderr + 1e-9:
            mean_violations += 1
        rounded = derandomized_round(c, level, tables).cardinality
        if rounded > min(cards):
            min_violations += 1
    elapsed = time.perf_counter() - start
    ok = mean_violations == 0 and min_violations == 0 and infeasible == 0
    report(
        capsys,
        "9 randomized rounding statistics",
        ok,
        f"20 instances x {n_seeds} seeds, {mean_violations} mean bound violations, "
        f"{min_violations} below-derandomized, {infeasible} infeasible, {elapsed:.1f}s",
    )
    assert mean_violations == 0
    assert min_violations == 0
    assert infeasible == 0
