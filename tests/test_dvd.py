"""Reduction from DAG vertex deletion to bootstrapping, and back."""

from __future__ import annotations

import random

import pytest

import oracles
from bootplan.circuit import Color, is_feasible_by_levels
from bootplan.dvd import reduce_to_circuit, validate_dvd
from bootplan.errors import CycleDetected, UnknownVertex
from bootplan.exact import exact_bootstrap
from bootplan.generate import layered, random_circuit
from oracles import exact_dvd, pull_back, random_dvd
from strategies import build


def test_validate_dvd_rejects_unknown_and_cycles():
    with pytest.raises(UnknownVertex):
        validate_dvd(2, [(0, 2)])
    with pytest.raises(CycleDetected):
        validate_dvd(2, [(0, 1), (1, 0)])


def test_deletion_instances_share_the_circuit_graph_order():
    # Both validators build adjacency with one helper, so the same arcs give
    # the same graph either way.
    circuits = [layered(5, 6, 0.4, s) for s in range(4)]
    circuits += [random_circuit(25, s) for s in range(4)]
    for c in circuits:
        inst = validate_dvd(c.n, [(s, d) for s, d, _ in c.edges])
        assert inst.preds == c.preds


def test_cycle_messages_name_the_graph_kind():
    with pytest.raises(CycleDetected, match="^circuit graph contains a cycle$"):
        build("wbb", (0, 1, 1), (2, 1, 1), (1, 2, 2))
    with pytest.raises(CycleDetected, match="^deletion instance contains a cycle$"):
        validate_dvd(2, [(0, 1), (1, 0)])


def test_duplicate_edges_collapse():
    inst = validate_dvd(2, [(0, 1), (0, 1)])
    assert oracles.dvd_edges(inst) == ((0, 1),)
    assert inst.preds[1] == (0,)


def test_reduce_single_vertex():
    rmap = reduce_to_circuit(validate_dvd(1, []))
    c = rmap.circuit
    assert c.n == 3
    assert [c.colors[v] for v in range(3)] == [Color.RED, Color.WHITE, Color.RED]
    assert c.edges == ((0, 2, 2), (1, 0, 2))
    assert rmap.source == 1
    assert rmap.clone_of == (2,)
    assert rmap.gadget_of == {}
    # One lone vertex can never carry a 2-vertex path.
    assert exact_bootstrap(c, 2).optimum == 0


def test_reduce_path_instance():
    rmap = reduce_to_circuit(validate_dvd(3, [(0, 1), (1, 2)]))
    c = rmap.circuit
    assert c.n == 7
    assert rmap.source == 3
    assert rmap.clone_of == (4, 5, 6)
    assert c.edges == (
        (0, 1, 1),
        (0, 4, 2),
        (1, 2, 1),
        (1, 5, 2),
        (2, 6, 2),
        (3, 0, 2),
        (3, 1, 1),
        (3, 2, 1),
    )


def fan_in_map():
    return reduce_to_circuit(validate_dvd(4, [(0, 3), (1, 3), (2, 3)]))


def test_reduce_fan_in_builds_blue_chain():
    rmap = fan_in_map()
    c = rmap.circuit
    assert c.n == 12
    assert rmap.gadget_of == {3: (9, 10, 11)}
    assert [c.colors[v] for v in (9, 10, 11)] == [Color.BLUE] * 3
    assert c.edges == (
        (0, 5, 2),
        (0, 9, 2),
        (1, 6, 2),
        (1, 10, 1),
        (2, 7, 2),
        (2, 11, 1),
        (3, 8, 2),
        (4, 0, 2),
        (4, 1, 2),
        (4, 2, 2),
        (9, 10, 1),
        (10, 11, 1),
        (11, 3, 2),
    )
    assert c.name_of(9) == "w1(v3)"
    assert c.name_of(11) == "w3(v3)"


def test_reduction_size_formula():
    rng = random.Random(21)
    for trial in range(30):
        n = rng.randint(1, 8)
        inst = random_dvd(n, seed=rng.randint(0, 10**6), edge_probability=0.5)
        c = reduce_to_circuit(inst).circuit
        gadget = sum(len(inst.preds[v]) for v in range(n) if len(inst.preds[v]) >= 3)
        assert c.n == 2 * n + 1 + gadget


def test_fresh_names_never_collide():
    rmap = reduce_to_circuit(validate_dvd(2, [(0, 1)], names=["s0", "clone(s0)"]))
    names = [rmap.circuit.name_of(v) for v in range(rmap.circuit.n)]
    assert len(set(names)) == len(names)
    assert names[rmap.source] == "s0_"


def test_interesting_paths_visit_originals():
    # Every non-final Red on an interesting path of the reduced circuit is an
    # original vertex, which is why deletion sets transfer without loss.
    rng = random.Random(33)
    for trial in range(20):
        n = rng.randint(1, 6)
        level = rng.choice((2, 3))
        inst = random_dvd(n, seed=rng.randint(0, 10**6))
        rmap = reduce_to_circuit(inst)
        paths = oracles.interesting_paths_brute(rmap.circuit, level)
        for path in paths:
            for v in path[:-1]:
                if rmap.circuit.colors[v] is Color.RED:
                    assert v < inst.n
        # An interesting path exists exactly when the instance still has a
        # directed path with `level` vertices.
        assert bool(paths) == (oracles.longest_path_brute(inst, frozenset()) >= level)


def test_pull_back_relocates_gadget_marks():
    rmap = fan_in_map()
    assert pull_back(rmap, frozenset({11}), 2) == frozenset({3})
    assert pull_back(rmap, frozenset({9, 11}), 2) == frozenset({3})
    assert pull_back(rmap, frozenset({3}), 2) == frozenset({3})


def test_pull_back_drops_clones():
    rmap = reduce_to_circuit(validate_dvd(3, [(0, 1), (1, 2)]))
    marks = frozenset({1, 5})
    assert is_feasible_by_levels(rmap.circuit, marks, 2)
    assert pull_back(rmap, marks, 2) == frozenset({1})


def test_pull_back_rejects_infeasible_marks():
    rmap = fan_in_map()
    with pytest.raises(ValueError, match="not feasible"):
        pull_back(rmap, frozenset({9}), 2)


def test_single_relocation_preserves_feasibility():
    # Replay the relocation loop by hand and check feasibility at each step.
    rmap = fan_in_map()
    current = {9, 11}
    assert is_feasible_by_levels(rmap.circuit, current, 2)
    owner = oracles.gadget_owner(rmap)
    while True:
        gadget_marks = sorted(w for w in current if w in owner)
        if not gadget_marks:
            break
        w = gadget_marks[0]
        current.discard(w)
        current.add(owner[w])
        assert is_feasible_by_levels(rmap.circuit, current, 2)
    assert current == {3}


def test_push_forward_checks_deletion_feasibility():
    # Originals keep their ids, so a deletion set is pushed forward as the
    # same set of marks: feasible exactly when the deletion set is.
    rmap = fan_in_map()
    assert is_feasible_by_levels(rmap.circuit, frozenset({3}), 2)
    assert not is_feasible_by_levels(rmap.circuit, frozenset({0}), 2)


def test_optima_agree_on_random_instances():
    rng = random.Random(41)
    for trial in range(25):
        n = rng.randint(1, 6)
        level = rng.choice((2, 3))
        inst = random_dvd(n, seed=rng.randint(0, 10**6))
        opt = exact_dvd(inst, level)
        rmap = reduce_to_circuit(inst)
        result = exact_bootstrap(rmap.circuit, level, max_subsets=1 << rmap.circuit.n)
        assert result.optimum == opt.optimum

        back = pull_back(rmap, result.witness, level)
        assert oracles.longest_path_brute(inst, back) <= level - 1
        assert len(back) <= result.optimum

        assert is_feasible_by_levels(rmap.circuit, opt.witness, level)
