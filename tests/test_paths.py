"""Interesting paths, the level-length table, extraction."""

from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bootplan.circuit import Color
from bootplan.generate import layered, random_circuit, series_parallel
from bootplan.paths import backtrack_path, level_lengths
from strategies import build, circuits, levels_st, marked_circuits, weighted_circuits

PROPERTY = settings(max_examples=150, deadline=None)


def red_chain(k):
    """White source, then k Reds in a chain of double edges."""
    return build("w" + "r" * k, *[(i, i + 1, 2) for i in range(k)])


# --- enumeration ---------------------------------------------------------


def test_chain_has_single_interesting_path():
    c = red_chain(4)
    assert oracles.interesting_paths_brute(c, 3) == [(1, 2, 3, 4)]


def test_chain_windows_for_smaller_budget():
    c = red_chain(4)
    assert oracles.interesting_paths_brute(c, 1) == [(1, 2), (2, 3), (3, 4)]
    assert oracles.interesting_paths_brute(c, 2) == [(1, 2, 3), (2, 3, 4)]


def test_no_interesting_paths_when_budget_exceeds_depth():
    c = red_chain(3)
    assert oracles.interesting_paths_brute(c, 3) == []


def test_blue_interiors_are_traversed():
    # w r b r : the blue vertex sits inside the only interesting path.
    c = build("wrbr", (0, 1, 2), (1, 2, 2), (2, 3, 1), (1, 3, 1))
    assert oracles.interesting_paths_brute(c, 1) == [(1, 2, 3), (1, 3)]


def test_parallel_edges_do_not_duplicate_paths():
    c = red_chain(2)
    assert oracles.interesting_paths_brute(c, 1) == [(1, 2)]


# --- feasibility equivalence ---------------------------------------------


def test_final_vertex_mark_does_not_cover():
    c = red_chain(2)
    assert not oracles.feasible_by_paths_brute(c, frozenset({2}), 1)
    assert oracles.feasible_by_paths_brute(c, frozenset({1}), 1)


@PROPERTY
@given(marked_circuits(max_vertices=9))
def test_path_cover_equals_level_recursion(case):
    from bootplan.circuit import is_feasible_by_levels

    circuit, marks = case
    for level in (1, 2, 3):
        by_paths = oracles.feasible_by_paths_brute(circuit, marks, level)
        assert by_paths == is_feasible_by_levels(circuit, marks, level)


# --- blue distances -------------------------------------------------------
# A level-1 Blue entry is the least weight of a path from a Red start whose
# interior is all Blue: the blue-interior distance from that Red.


def test_blue_distances_chain():
    # w -> u(red) -> b(blue) -> v(blue), x_u = 0.4, x_b = 0.2
    c = build("wrbb", (0, 1, 2), (1, 2, 2), (2, 3, 2))
    t = level_lengths(c, 1, [0.0, 0.4, 0.2, 0.0])
    assert t.lengths[1][2:] == pytest.approx([0.4, 0.6])


def test_blue_distances_absent_pair():
    # Two parallel stacks; u cannot reach the other stack's blue vertex, so
    # no path visits both Reds.
    c = build("wwrbrb", (0, 2, 2), (2, 3, 2), (1, 4, 2), (4, 5, 2))
    t = level_lengths(c, 2, [0.0] * 6)
    assert t.lengths[1][3] == t.lengths[1][5] == 0.0
    assert all(math.isinf(length) for length in t.lengths[2])


def test_blue_distances_red_interior_blocks():
    # u(red) -> r(red) -> b(blue): no all-blue interior path u..b, so b's
    # level-1 entry starts at r and the path from u sits one level up.
    c = build("wrrb", (0, 1, 2), (1, 2, 2), (2, 3, 2))
    t = level_lengths(c, 2, [0.0, 0.5, 0.5, 0.0])
    assert t.lengths[1][3] == 0.5
    assert t.lengths[1][2] + t.weights[2] == t.lengths[1][3]  # entered from r
    assert t.lengths[2][3] == 1.0


def test_blue_distances_pick_cheaper_route():
    # u -> b1 -> b3 and u -> b2 -> b3 with asymmetric weights.
    c = build("wrbbb", (0, 1, 2), (1, 2, 2), (1, 3, 2), (2, 4, 1), (3, 4, 1))
    t = level_lengths(c, 1, [0.0, 0.1, 0.7, 0.2, 0.0])
    assert t.lengths[1][4] == pytest.approx(0.3)  # via b2: x_u + x_b2


# --- level-length table ----------------------------------------------------


def test_chain_table_frozen_values():
    c = red_chain(4)
    x = [0.0, 0.3, 0.2, 0.1, 0.0]
    t = level_lengths(c, 4, x)
    inf = math.inf
    assert t.lengths[1] == [inf, 0.0, 0.0, 0.0, 0.0]
    assert t.lengths[2] == pytest.approx([inf, inf, 0.3, 0.2, 0.1])
    assert t.lengths[3] == pytest.approx([inf, inf, inf, 0.5, 0.3])
    assert t.lengths[4] == pytest.approx([inf, inf, inf, inf, 0.6])


def test_table_red_base_and_white_rows():
    c = build("wrbr", (0, 1, 2), (1, 2, 2), (2, 3, 1), (1, 3, 1))
    t = level_lengths(c, 3, [0.0, 0.25, 0.5, 0.0])
    for i in range(1, 4):
        assert t.lengths[i][0] == math.inf
    assert t.lengths[1][1] == 0.0
    assert t.lengths[1][3] == 0.0


def test_blue_rows_compose_from_red_rows_and_delta():
    """The table's Blue entries equal min over Red u of lengths[i][u] + delta."""
    c = build(
        "wrrbbr",
        (0, 1, 2),
        (1, 2, 2),
        (2, 3, 1),
        (1, 3, 1),
        (3, 4, 2),
        (4, 5, 1),
        (2, 5, 1),
    )
    x = [0.0, 0.15, 0.3, 0.2, 0.05, 0.0]
    t = level_lengths(c, 3, x)
    delta = oracles.blue_distances_brute(c, x)
    blues = [v for v in range(c.n) if c.colors[v] is Color.BLUE]
    for i in range(1, 4):
        for v in blues:
            expected = min(
                (t.lengths[i][u] + delta[u].get(v, math.inf) for u in c.red_vertices),
                default=math.inf,
            )
            assert t.lengths[i][v] == pytest.approx(expected)


@PROPERTY
@given(weighted_circuits(max_vertices=9))
@example(
    (
        build(
            "wrrbbr",
            (0, 1, 2),
            (1, 2, 2),
            (2, 3, 1),
            (1, 3, 1),
            (3, 4, 2),
            (4, 5, 1),
            (2, 5, 1),
        ),
        [0.0, 0.15, 0.3, 0.2, 0.05, 0.0],
    )
)
def test_table_matches_path_enumeration(case):
    circuit, weights = case
    for level in (1, 2, 3):
        t = level_lengths(circuit, level + 1, weights)
        brute = oracles.min_lengths_brute(circuit, level, weights)
        for i in range(1, level + 2):
            for v in range(circuit.n):
                expected = brute.get((v, i), math.inf)
                got = t.lengths[i][v]
                if math.isinf(expected):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(expected, abs=1e-9)


# Weights in [0, 1] with exact zeros of both signs and repeats, so that ties
# between the two preds of a gate, and -0.0 sums, are common.
tie_weights = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


@PROPERTY
@given(circuits(max_vertices=12), levels_st, st.data())
def test_table_matches_the_per_pred_reference_bit_for_bit(circuit, level, data):
    weights = data.draw(st.lists(tie_weights, min_size=circuit.n, max_size=circuit.n))
    got = level_lengths(circuit, level, weights)
    want = oracles.level_lengths_reference(circuit, level, weights)
    assert [[x.hex() for x in row] for row in got.lengths] == [
        [x.hex() for x in row] for row in want.lengths
    ]
    assert [w.hex() for w in got.weights] == [w.hex() for w in want.weights]


def test_negative_zero_weight_sums_stay_bit_identical():
    # A Red whose weight is -0.0 adds 0.0 + -0.0 = 0.0 to its successors'
    # entries; reading x[v] alone would give -0.0.
    c = build("wrrb", (0, 1, 2), (1, 2, 2), (1, 3, 1), (2, 3, 1))
    weights = [0.0, -0.0, -0.0, 0.0]
    got = level_lengths(c, 2, weights).lengths
    want = oracles.level_lengths_reference(c, 2, weights).lengths
    assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in want]
    assert math.copysign(1.0, got[1][3]) == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_raise(bad):
    c = red_chain(3)
    with pytest.raises(ValueError, match="weights must be finite"):
        level_lengths(c, 2, [0.0, bad, 0.5, 0.5])


@PROPERTY
@given(circuits(max_vertices=12))
def test_gates_list_each_gate_once_in_topo_order(circuit):
    colors, preds = circuit.colors, circuit.preds
    gates = [v for v in circuit.topo if colors[v] is not Color.WHITE]
    assert [g[0] for g in circuit.gates] == gates
    for v, red, first, last in circuit.gates:
        assert red == (colors[v] is Color.RED)
        assert (first, last) == (preds[v][0], preds[v][-1])
        assert len(preds[v]) in (1, 2)


# --- extraction ------------------------------------------------------------


def test_backtrack_reconstructs_minimum_path():
    c = red_chain(4)
    x = [0.0, 0.3, 0.2, 0.1, 0.0]
    t = level_lengths(c, 4, x)
    assert backtrack_path(t, 4, 4) == (1, 2, 3, 4)


def test_backtrack_raises_when_no_predecessor_attains_an_entry():
    c = red_chain(4)
    t = level_lengths(c, 4, [0.0, 0.3, 0.2, 0.1, 0.0])
    t.lengths[4][4] = 0.25  # tamper: no predecessor sums to this
    with pytest.raises(AssertionError):
        backtrack_path(t, 4, 4)


def test_backtracked_paths_under_ties_are_frozen():
    # Weights on a 0.01 grid below 0.03 make equal-length predecessor choices
    # common (348 tied entries over these cases); the path taken among them
    # must stay the same across releases.
    rng = random.Random(5)
    digest = hashlib.sha256()
    for s in range(20):
        for c in (layered(5, 6, 0.5, s), random_circuit(25, s), series_parallel(30, 0.5, s)):
            for level in (1, 2, 3):
                t = level_lengths(c, level + 1, [round(rng.uniform(0, 0.03), 2) for _ in range(c.n)])
                for v in c.red_vertices:
                    if math.isfinite(t.lengths[level + 1][v]):
                        digest.update(repr(backtrack_path(t, v, level + 1)).encode())
    assert digest.hexdigest() == (
        "0c7a3393a9e4434c88a56cc94c32f588cb86c918d9dc37f716f3e4b4bdc4f1f3"
    )


@PROPERTY
@given(weighted_circuits(max_vertices=9))
def test_extracted_path_length_matches_table(case):
    circuit, weights = case
    level = 2
    t = level_lengths(circuit, level + 1, weights)
    interesting = set(oracles.interesting_paths_brute(circuit, level))
    for v in circuit.red_vertices:
        if math.isinf(t.lengths[level + 1][v]):
            continue
        p = backtrack_path(t, v, level + 1)
        assert p in interesting
        assert p[-1] == v
        assert sum(weights[u] for u in p[:-1]) == pytest.approx(
            t.lengths[level + 1][v], abs=1e-9
        )


@PROPERTY
@given(weighted_circuits(max_vertices=9), st.sampled_from((1, 2, 3)))
def test_walk_from_a_pred_is_the_least_path_through_it(case, level):
    # Row generation walks back from each pred u of a violated final at
    # level L: with the final appended, an interesting path of length
    # lengths[L][u] + x[u].
    circuit, weights = case
    t = level_lengths(circuit, level, weights)
    interesting = set(oracles.interesting_paths_brute(circuit, level))
    for v in circuit.red_vertices:
        for u in circuit.preds[v]:
            if math.isinf(t.lengths[level][u]):
                continue
            p = backtrack_path(t, u, level) + (v,)
            assert p in interesting
            assert sum(weights[w] for w in p[:-1]) == pytest.approx(
                t.lengths[level][u] + weights[u], abs=1e-9
            )


def test_walk_outside_the_table_raises():
    t = level_lengths(red_chain(4), 2, [0.0, 0.3, 0.2, 0.1, 0.0])
    for vertex, level in ((4, 0), (4, 3), (4, 4), (0, 1)):  # no level 0, 3 or 4; White is +inf
        with pytest.raises(ValueError, match="no path through"):
            backtrack_path(t, vertex, level)


# --- short-bypass regression (distance shortcuts must not fool the table) --


def make_bypass_circuit(k):
    """u,u1 Red then k Blues then Red v, plus a short non-interesting u->v
    bypass edge; the unique interesting path for L=2 runs through every Blue."""
    colors = "wrr" + "b" * k + "r"
    edges = [(0, 1, 2), (1, 2, 2), (2, 3, 2)]
    for i in range(3, 3 + k - 1):
        edges.append((i, i + 1, 2))
    v = 3 + k
    edges.append((2 + k, v, 1))
    edges.append((1, v, 1))
    return build(colors, *edges)


def test_bypass_does_not_shortcut_interesting_path():
    k = 3
    c = make_bypass_circuit(k)
    v = 3 + k
    assert oracles.interesting_paths_brute(c, 2) == [(1, 2, 3, 4, 5, v)]
    x = [0.0] * c.n
    for i in range(3, 3 + k):
        x[i] = 1.0 / k
    t = level_lengths(c, 3, x)
    # The bypass edge (u, v) carries 2 Reds only, so the constraint distance
    # is the full Blue chain, not the shortcut.
    assert t.lengths[3][v] == pytest.approx(1.0)
    assert backtrack_path(t, v, 3) == (1, 2, 3, 4, 5, v)
