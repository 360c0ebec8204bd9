"""Brute-force oracle behavior: optima, witnesses, caps."""

from __future__ import annotations

import random
from itertools import chain, combinations
from math import comb

import pytest
from hypothesis import given, settings

import oracles
from bootplan.circuit import Color, eval_levels, is_feasible_by_levels
from bootplan.dvd import reduce_to_circuit, validate_dvd
from bootplan.errors import TooLarge
from bootplan.exact import BLOCK_MAX, BLOCK_MIN, ExactResult, disjoint_rows, exact_bootstrap
from bootplan.generate import layered, random_circuit, red_chain, series_parallel
from oracles import exact_dvd, longest_path_brute, random_dvd
from strategies import build, circuits

PROPERTY = settings(max_examples=60, deadline=None)


def red_chain4():
    return build("wrrrr", *[(i, i + 1, 2) for i in range(4)])


def test_chain_level3_single_mark():
    result = exact_bootstrap(red_chain4(), 3)
    assert result.optimum == 1
    assert result.witness == frozenset({1})
    # The empty set fails, then the first singleton succeeds.
    assert result.explored == 2


def test_chain_level1_needs_all_but_last():
    result = exact_bootstrap(red_chain4(), 1)
    assert result.optimum == 3
    assert result.witness == frozenset({1, 2, 3})
    assert result.explored == 1 + 4 + 6 + 1


def test_feasible_instance_has_zero_optimum():
    c = build("wrr", (0, 1, 2), (0, 2, 1), (1, 2, 1))
    result = exact_bootstrap(c, 2)
    assert result.optimum == 0
    assert result.witness == frozenset()
    assert result.explored == 1


def test_white_vertices_never_enter_the_pool():
    c = build("wwr", (0, 2, 1), (1, 2, 1))
    result = exact_bootstrap(c, 1)
    assert result.witness.isdisjoint({0, 1})


def test_subset_cap_raises_too_large():
    with pytest.raises(TooLarge):
        exact_bootstrap(red_chain4(), 1, max_subsets=10)


@pytest.mark.parametrize("cap", [0, -1])
def test_subset_cap_below_one_rejected(cap):
    with pytest.raises(ValueError, match="subset cap must be >= 1"):
        exact_bootstrap(red_chain4(), 1, max_subsets=cap)


def test_empty_pools_answer():
    assert exact_bootstrap(build("ww"), 1) == ExactResult(0, frozenset(), 1)
    assert exact_dvd(validate_dvd(0, []), 2) == ExactResult(0, frozenset(), 1)


@PROPERTY
@given(circuits(max_vertices=8))
def test_optimum_matches_path_based_enumeration(circuit):
    level = 2
    result = exact_bootstrap(circuit, level)
    candidates = [v for v in range(circuit.n) if circuit.colors[v] is not Color.WHITE]
    best = None
    for marks in chain.from_iterable(
        combinations(candidates, k) for k in range(len(candidates) + 1)
    ):
        if oracles.feasible_brute(circuit, frozenset(marks), level):
            best = len(marks)
            break
    assert result.optimum == best
    assert oracles.feasible_brute(circuit, result.witness, level)


def test_search_matches_the_reference_subset_loop():
    # Same optimum, same witness and same count of subsets tried as the
    # reference loop over the non-White vertices with the brute-force check.
    rng = random.Random(13)
    for trial in range(40):
        circuit = random_circuit(rng.randint(1, 14), rng.randint(0, 10**6))
        level = rng.choice((1, 2, 3))
        pool = [v for v in range(circuit.n) if circuit.colors[v] is not Color.WHITE]
        expected = oracles.smallest_feasible(
            pool, lambda marks: oracles.feasible_brute(circuit, marks, level)
        )
        assert exact_bootstrap(circuit, level) == expected


def test_levels_past_any_small_dtype_do_not_wrap():
    # 130 Reds in a row reach level 130 unmarked: one level over L = 129, so
    # the empty set fails and the first singleton, {1}, is the witness.
    assert exact_bootstrap(red_chain(130), 129, max_subsets=1 << 131) == ExactResult(
        1, frozenset({1}), 2
    )


def block_ends(circuit, level, total: int) -> list[int]:
    """1-based stream positions that end a block, up to `total`.  The first
    block starts after the sizes below the disjoint-row bound."""
    pool = sum(1 for c in circuit.colors if c is not Color.WHITE)
    skipped = sum(comb(pool, k) for k in range(len(disjoint_rows(circuit, level))))
    ends, block = [skipped + BLOCK_MIN], BLOCK_MIN
    while ends[-1] < total:
        block = min(2 * block, BLOCK_MAX)
        ends.append(ends[-1] + block)
    return ends


def reference_search(circuit, level):
    """The search one subset at a time, each checked by eval_levels."""
    pool = [v for v in range(circuit.n) if circuit.colors[v] is not Color.WHITE]
    return oracles.smallest_feasible(
        pool, lambda marks: is_feasible_by_levels(circuit, marks, level)
    )


@pytest.mark.parametrize(
    "circuit, level",
    [
        (layered(6, 3, 1.0, 4), 1),
        (layered(6, 2, 0.7, 489986), 1),
        (layered(6, 2, 0.5, 342741), 1),
        (random_circuit(12, 998564), 1),
        (random_circuit(15, 962810), 1),
        (series_parallel(6, 0.8, 145463), 1),
        (series_parallel(6, 0.8, 227669), 1),
        (series_parallel(6, 0.8, 789121), 1),
    ],
)
def test_witnesses_past_several_blocks_match_the_reference_loop(circuit, level):
    expected = reference_search(circuit, level)
    assert len(block_ends(circuit, level, expected.explored)) > 3  # three blocks end before it
    assert exact_bootstrap(circuit, level) == expected


@pytest.mark.parametrize(
    "circuit, level, edge",
    [
        (layered(5, 2, 0.7, 128068), 1, "last"),
        (series_parallel(5, 0.8, 225630), 5, "first"),
        (series_parallel(10, 0.9, 115850), 6, "first"),
        (series_parallel(10, 1.0, 484912), 3, "last"),
    ],
)
def test_witnesses_on_a_block_edge_match_the_reference_loop(circuit, level, edge):
    expected = reference_search(circuit, level)
    ends = block_ends(circuit, level, expected.explored)
    assert expected.explored in (ends if edge == "last" else [e + 1 for e in ends])
    assert exact_bootstrap(circuit, level) == expected


# --- the disjoint-row bound -------------------------------------------------


def bound_cases(seed: int, trials: int, max_vertices: int):
    """Seeded random and (deeper) series-parallel circuits of at most
    max_vertices vertices, at levels 1-4."""
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(2, max_vertices)
        if rng.random() < 0.6:
            circuit = random_circuit(n, rng.randint(0, 10**6))
        else:
            circuit = series_parallel(n, rng.choice((0.5, 0.8, 1.0)), rng.randint(0, 10**6))
        if circuit.n <= max_vertices:
            yield circuit, rng.choice((1, 2, 3, 4))


def test_disjoint_rows_are_disjoint_interesting_paths():
    rows_seen = long_rows = 0
    for circuit, level in bound_cases(21, 200, 12):
        rows = disjoint_rows(circuit, level)
        marked = [v for row in rows for v in row]
        assert len(marked) == len(set(marked))
        paths = {p[:-1] for p in oracles.interesting_paths_brute(circuit, level)}
        assert paths.issuperset(rows)
        rows_seen += len(rows)
        long_rows += sum(len(row) > 1 for row in rows)
    assert rows_seen > 50 and long_rows > 20  # the cases exercise the walk


def test_disjoint_rows_bound_the_optimum():
    for circuit, level in bound_cases(22, 200, 14):
        rows = disjoint_rows(circuit, level)
        assert len(rows) <= reference_search(circuit, level).optimum


def test_disjoint_rows_are_the_optimum_on_all_red_layers_at_level_1():
    # At L = 1 every Red with a successor must be marked, and each is a row.
    rng = random.Random(23)
    for trial in range(30):
        circuit = layered(rng.randint(1, 5), rng.randint(1, 3), 1.0, rng.randint(0, 10**6))
        assert len(disjoint_rows(circuit, 1)) == reference_search(circuit, 1).optimum


def test_search_below_an_inexact_bound_matches_the_reference_loop():
    strict = 0
    for circuit, level in bound_cases(24, 1000, 16):
        result = exact_bootstrap(circuit, level)
        if len(disjoint_rows(circuit, level)) < result.optimum:
            assert result == reference_search(circuit, level)
            strict += 1
    assert strict >= 5


# --- deletion instances -----------------------------------------------------


def path_dvd():
    return validate_dvd(4, [(0, 1), (1, 2), (2, 3)])


def test_longest_path_counts_vertices():
    inst = path_dvd()
    assert longest_path_brute(inst, frozenset()) == 4
    assert longest_path_brute(inst, {1}) == 2
    assert longest_path_brute(inst, {1, 2}) == 1
    assert longest_path_brute(inst, {0, 1, 2, 3}) == 0


def test_dvd_feasibility_threshold():
    # Deleting {1} leaves a 2-vertex path, so {1} fails level 2 and passes
    # level 3, as a deletion set and as marks on the reduced circuit alike.
    inst = path_dvd()
    assert longest_path_brute(inst, {1}) == 2
    circuit = reduce_to_circuit(inst).circuit
    assert not is_feasible_by_levels(circuit, {1}, 2)
    assert is_feasible_by_levels(circuit, {1}, 3)


def test_exact_dvd_on_a_path():
    result = exact_dvd(path_dvd(), 2)
    assert result.optimum == 2
    assert result.witness == frozenset({0, 2})
    assert result.explored == 1 + 4 + 2

    result = exact_dvd(path_dvd(), 3)
    assert result.optimum == 1
    assert result.witness == frozenset({1})
    assert result.explored == 1 + 2


def test_longest_path_matches_brute_force():
    # With a deletion set as marks, the reduced circuit's top level is one
    # more than the longest path left: the clone after its last vertex.
    rng = random.Random(3)
    for trial in range(40):
        n = rng.randint(1, 7)
        inst = random_dvd(n, seed=rng.randint(0, 10**6))
        deleted = frozenset(v for v in range(n) if rng.random() < 0.3)
        circuit = reduce_to_circuit(inst).circuit
        assert max(eval_levels(circuit, deleted)) == longest_path_brute(inst, deleted) + 1


def test_exact_dvd_witness_is_minimal():
    rng = random.Random(9)
    for trial in range(25):
        n = rng.randint(1, 6)
        level = rng.choice((2, 3))
        inst = random_dvd(n, seed=rng.randint(0, 10**6))
        result = exact_dvd(inst, level)
        assert longest_path_brute(inst, result.witness) <= level - 1
        for smaller in combinations(range(n), max(result.optimum - 1, 0)):
            if result.optimum:
                assert longest_path_brute(inst, frozenset(smaller)) >= level
