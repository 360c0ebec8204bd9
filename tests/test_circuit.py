"""Circuit validation and the noise-level recursion."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bootplan.circuit import Color, dag_order, eval_levels, is_feasible_by_levels, validate
from bootplan.dvd import validate_dvd
from bootplan.errors import BootplanError, CycleDetected, IndegreeViolation, UnknownVertex
from strategies import build, circuit_parts, circuits, marked_circuits

PROPERTY = settings(max_examples=200, deadline=None)


def test_minimal_circuit_is_valid():
    c = build("w")
    assert c.n == 1
    assert c.edges == ()
    assert eval_levels(c, frozenset()) == [0]


def test_empty_circuit_is_valid():
    c = validate([], [])
    assert c.n == 0
    assert is_feasible_by_levels(c, frozenset(), 1)


def test_single_in_edge_rejected():
    with pytest.raises(IndegreeViolation) as info:
        build("wr", (0, 1, 1))
    assert info.value.vertex == 1
    assert info.value.expected == 2
    assert info.value.actual == 1


def test_unnamed_vertices_carry_default_names():
    assert build("wr", (0, 1, 2)).names == ("v0", "v1")
    assert validate_dvd(2, [(0, 1)]).names == ("v0", "v1")
    with pytest.raises(IndegreeViolation, match="^v1: expected indegree 2, got 1$"):
        build("wr", (0, 1, 1))


def test_white_with_in_edge_rejected():
    with pytest.raises(IndegreeViolation):
        build("ww", (0, 1, 2))


def test_indegree_three_rejected():
    with pytest.raises(IndegreeViolation):
        build("wwr", (0, 2, 2), (1, 2, 1))


def test_cycle_rejected():
    # 1 and 2 feed each other; indegrees are fine, order is not.
    with pytest.raises(CycleDetected):
        build("wbb", (0, 1, 1), (2, 1, 1), (1, 2, 2))


def test_self_loop_rejected():
    with pytest.raises(CycleDetected):
        build("wb", (0, 1, 1), (1, 1, 1))


def test_dangling_edge_rejected():
    with pytest.raises(UnknownVertex):
        build("wr", (0, 1, 1), (5, 1, 1))


@pytest.mark.parametrize(
    "colors, edges, names",
    [
        (["white"], [], None),  # a color word, not a Color
        ([Color.WHITE], [], ["a", "b"]),  # names for a vertex that is not there
        ([Color.WHITE, Color.RED], [(0, 1, 2, 0)], None),  # edge of arity 4
        ([Color.WHITE, Color.RED], [(0, 1, 0)], None),  # multiplicity 0
        ([Color.WHITE, Color.RED], [(0, 1, 3)], None),  # multiplicity 3
        ([Color.WHITE, Color.RED], [(0, 1), (0, 1)], None),  # edges of arity 2
        ([Color.WHITE, Color.RED], [()], None),  # an edge with no entries
    ],
)
def test_malformed_input_rejected(colors, edges, names):
    with pytest.raises(ValueError):
        validate(colors, edges, names)


def test_parallel_edges_aggregate():
    c = build("wr", (0, 1, 1), (0, 1, 1))
    assert c.edges == ((0, 1, 2),)
    assert c.edge_count == 2


@PROPERTY
@given(circuit_parts(), st.randoms(use_true_random=False))
def test_edges_are_derived_from_preds(parts, rnd):
    # Feed validate the edges split into single arcs where it may, in a
    # shuffled order; the derived edge lists must still aggregate them.
    colors, edges = parts
    raw = []
    for src, dst, m in edges:
        raw += [(src, dst, 1)] * 2 if m == 2 and rnd.random() < 0.5 else [(src, dst, m)]
    rnd.shuffle(raw)
    mult = Counter()
    for src, dst, m in raw:
        mult[src, dst] += m
    c = validate(colors, raw)
    assert c.edges == tuple(sorted((s, d, m) for (s, d), m in mult.items()))
    for dtype in (np.int64, np.uint64):  # the same triples as an (E, 3) array
        assert validate(colors, np.array(raw, dtype).reshape(-1, 3)) == c
    gates = sum(1 for color in colors if color is not Color.WHITE)
    assert c.edge_count == sum(mult.values()) == 2 * gates
    assert oracles.dvd_edges(validate_dvd(c.n, [e[:2] for e in raw])) == tuple(sorted(mult))


def outcome(make, *args):
    try:
        return "ok", repr(make(*args))
    except (BootplanError, ValueError) as error:
        return type(error).__name__, str(error)


# Beside the valid 1 and 2: too large, non-positive, and integers past int64,
# which edge_columns reads through its object-dtype fallback.
MULTIPLICITIES = st.sampled_from([1, 2, 3, 0, -1, 2**63, 10**30])


@PROPERTY
@given(
    circuit_parts(),
    st.lists(st.tuples(st.integers(-1, 10), st.integers(-1, 10), MULTIPLICITIES), max_size=2),
    st.randoms(use_true_random=False),
)
def test_validate_matches_the_per_edge_reference(parts, extra, rnd):
    # A valid circuit, then maybe stray or bad edges, some rows as numpy
    # integers, in a shuffled order: the same Circuit, or the same error for
    # the same edge.
    colors, edges = parts
    edges = [
        tuple(map(rnd.choice([np.int64, np.int32]), e))
        if rnd.random() < 0.3 and all(-(2**31) <= x < 2**31 for x in e)
        else e
        for e in edges + extra
    ]
    rnd.shuffle(edges)
    assert outcome(validate, colors, edges) == outcome(oracles.validate_reference, colors, edges)
    pairs = [e[:2] for e in edges]
    n = len(colors)
    assert outcome(validate_dvd, n, pairs) == outcome(oracles.validate_dvd_reference, n, pairs)


@st.composite
def graphs(draw):
    """(n, edges): ids that ascend along every edge, the same DAG under
    shuffled ids, or any edges at all, so cycles and self loops too."""
    n = draw(st.integers(min_value=0, max_value=12))
    ids = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=3 * n)) if n else []
    kind = draw(st.sampled_from(["ascending", "shuffled", "any"]))
    if kind == "any":
        return n, pairs
    pairs = [(min(u, v), max(u, v)) for u, v in pairs if u != v]
    if kind == "shuffled":
        relabel = draw(st.permutations(range(n)))
        pairs = [(relabel[u], relabel[v]) for u, v in pairs]
    return n, pairs


@PROPERTY
@given(graphs())
def test_dag_order_matches_heap_kahn(graph):
    n, pairs = graph
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    pred_sets = [{u for u, w in pairs if w == v} for v in range(n)]
    got = outcome(dag_order, n, src, dst, "graph")
    assert got == outcome(oracles.kahn_order, pred_sets, "graph")
    # The smallest-id-first order is the identity exactly when every edge
    # ascends, which is when dag_order skips the heap.
    if got[0] == "ok":
        topo, _ = dag_order(n, src, dst, "graph")
        assert (topo == tuple(range(n))) == all(u < v for u, v in pairs)


def test_topo_order_recomputed_from_scrambled_input():
    # Ids in reverse dependency order, edges listed sink first.
    c = validate([Color.RED, Color.RED, Color.WHITE], [(1, 0, 2), (2, 1, 2)])
    assert c.topo == (2, 1, 0)


def test_levels_on_red_chain():
    c = build("wrr", (0, 1, 2), (1, 2, 2))
    assert eval_levels(c, frozenset()) == [0, 1, 2]
    assert eval_levels(c, frozenset({1})) == [0, 1, 1]


def test_marking_does_not_lower_own_level():
    c = build("wrr", (0, 1, 2), (1, 2, 2))
    assert eval_levels(c, frozenset({2})) == [0, 1, 2]
    assert not is_feasible_by_levels(c, frozenset({2}), 1)
    assert is_feasible_by_levels(c, frozenset({1}), 1)


def test_blue_takes_max_without_increment():
    c = build("wrb", (0, 1, 2), (1, 2, 2))
    assert eval_levels(c, frozenset()) == [0, 1, 1]


def test_mark_all_is_always_feasible():
    c = build("wrrrb", (0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 4, 2))
    assert is_feasible_by_levels(c, frozenset(range(5)), 1)


def test_level_zero_rejected():
    c = build("w")
    with pytest.raises(ValueError):
        is_feasible_by_levels(c, frozenset(), 0)


def test_unknown_mark_rejected():
    c = build("w")
    with pytest.raises(UnknownVertex):
        eval_levels(c, frozenset({3}))


def test_numpy_integer_marks_are_ids():
    c = build("wrr", (0, 1, 2), (1, 2, 2))
    assert eval_levels(c, {np.int64(1)}) == [0, 1, 1]
    assert is_feasible_by_levels(c, {np.uint8(1)}, 1)
    for bad in (np.int64(3), np.int64(-1), 1.0, np.float64(1.0), "1"):
        with pytest.raises(UnknownVertex):
            eval_levels(c, {bad})


def test_no_reds_means_empty_set_feasible():
    c = build("wbb", (0, 1, 2), (1, 2, 2))
    assert is_feasible_by_levels(c, frozenset(), 1)


@PROPERTY
@given(marked_circuits())
def test_levels_match_independent_recursion(case):
    circuit, marks = case
    assert eval_levels(circuit, marks) == oracles.levels_brute(circuit, marks)


@PROPERTY
@given(marked_circuits())
def test_white_marks_are_noops(case):
    circuit, marks = case
    whites = {v for v in range(circuit.n) if circuit.colors[v] is Color.WHITE}
    assert eval_levels(circuit, marks) == eval_levels(circuit, marks - whites)


@PROPERTY
@given(marked_circuits())
def test_levels_antitone_in_marks(case):
    """Adding marks never raises any level."""
    circuit, marks = case
    base = eval_levels(circuit, frozenset())
    marked = eval_levels(circuit, marks)
    assert all(m <= b for m, b in zip(marked, base))


@PROPERTY
@given(circuits())
def test_unmarked_level_counts_path_reds(circuit):
    """With no marks, level(v) is the max number of Reds on a path ending at v."""
    levels = eval_levels(circuit, frozenset())
    best = {v: 0 for v in range(circuit.n)}
    reds = set(circuit.red_vertices)
    for p in oracles.all_paths(circuit):
        count = sum(1 for v in p if v in reds)
        best[p[-1]] = max(best[p[-1]], count)
    assert levels == [best[v] for v in range(circuit.n)]


@PROPERTY
@given(circuits())
def test_color_level_floors(circuit):
    levels = eval_levels(circuit, frozenset())
    for v in range(circuit.n):
        if circuit.colors[v] is Color.WHITE:
            assert levels[v] == 0
        elif circuit.colors[v] is Color.RED:
            assert levels[v] >= 1


@PROPERTY
@given(circuits())
def test_mark_everything_reaches_level_at_most_one(circuit):
    assert max(eval_levels(circuit, frozenset(range(circuit.n))), default=0) <= 1
