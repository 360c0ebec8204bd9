"""Generators: deterministic, structurally valid by construction."""

from __future__ import annotations

import hashlib

import pytest

from bootplan.circuit import Color
from bootplan.formats import format_circuit
from bootplan.generate import layered, random_circuit, red_chain, series_parallel
from oracles import dvd_edges, format_dvd, random_dvd


def test_red_chain_shape():
    c = red_chain(3)
    assert c.n == 4
    assert c.colors[0] is Color.WHITE
    assert all(c.colors[v] is Color.RED for v in range(1, 4))
    assert c.edges == ((0, 1, 2), (1, 2, 2), (2, 3, 2))
    assert [c.name_of(v) for v in range(4)] == ["w0", "r1", "r2", "r3"]
    with pytest.raises(ValueError):
        red_chain(0)


def test_layered_shape():
    c = layered(4, 5, 0.5, seed=0)
    assert c.n == 20
    for slot in range(5):
        assert c.colors[slot] is Color.WHITE
    for v in range(5, 20):
        assert c.colors[v] is not Color.WHITE
        assert sum(m for (_, dst, m) in c.edges if dst == v) == 2
        for src, dst, _ in c.edges:
            if dst == v:
                assert (v // 5) - 1 == src // 5
    assert c.name_of(7) == "n1_2"


def test_layered_rejects_degenerate_dimensions():
    with pytest.raises(ValueError):
        layered(0, 3, 0.5, seed=0)
    with pytest.raises(ValueError):
        layered(3, 0, 0.5, seed=0)


def test_generators_are_seed_deterministic():
    for seed in range(5):
        a = layered(3, 4, 0.4, seed=seed)
        b = layered(3, 4, 0.4, seed=seed)
        assert a.edges == b.edges and a.colors == b.colors
        a = series_parallel(20, 0.5, seed=seed)
        b = series_parallel(20, 0.5, seed=seed)
        assert a.edges == b.edges and a.colors == b.colors
        a = random_circuit(15, seed)
        b = random_circuit(15, seed)
        assert a.edges == b.edges and a.colors == b.colors
        a = random_dvd(8, seed)
        b = random_dvd(8, seed)
        assert dvd_edges(a) == dvd_edges(b)


def test_different_seeds_differ_somewhere():
    produced = {layered(4, 6, 0.5, seed=s).edges for s in range(8)}
    assert len(produced) > 1


def test_series_parallel_validates_across_seeds():
    # The recursive construction must respect the indegree-2 rule for every
    # seed, not just lucky ones; validate() inside the generator enforces it.
    for seed in range(100):
        c = series_parallel(12, 0.5, seed=seed)
        assert c.n >= 2
        for v in range(c.n):
            indeg = sum(m for (_, dst, m) in c.edges if dst == v)
            assert indeg in (0, 2)
            if indeg == 0:
                assert c.colors[v] is Color.WHITE


def test_random_dvd_edges_are_forward():
    inst = random_dvd(10, seed=5, edge_probability=0.5)
    assert all(u < v for u, v in dvd_edges(inst))


@pytest.mark.parametrize("bad", [-0.1, 1.5, 7.0, float("nan")])
def test_fractions_outside_unit_interval_rejected(bad):
    calls = [
        (lambda: layered(3, 3, bad, 0), "red_fraction"),
        (lambda: series_parallel(10, bad, 0), "red_fraction"),
        (lambda: random_circuit(5, 0, white_fraction=bad), "white_fraction"),
        (lambda: random_circuit(5, 0, red_fraction=bad), "red_fraction"),
    ]
    for call, name in calls:
        with pytest.raises(ValueError, match=f"{name} must be in \\[0, 1\\]"):
            call()


def test_series_parallel_honours_size():
    # Blocks are joined in series until `size` is reached; the overshoot is
    # what the recursion still owes when it gets there.
    for size in (2, 3, 12, 40, 1000, 3000):
        for seed in range(200):
            assert size <= series_parallel(size, 0.5, seed).n <= size + 26


def test_generator_output_is_frozen():
    # Generated files must stay byte-identical across releases: saved
    # instances and benchmark inputs are replayed from (generator, seed).
    digest = hashlib.sha256()
    for s in range(50):
        digest.update(format_circuit(layered(8, 9, 0.4, s)).encode())
        digest.update(format_circuit(random_circuit(30, s)).encode())
        digest.update(format_dvd(random_dvd(10, s)).encode())
    assert digest.hexdigest() == (
        "ebf357c10efbc0ff96345ee3c8f7899d0210eaafbd29c5dc1eba479d35afcf32"
    )


def test_series_parallel_output_is_frozen():
    digest = hashlib.sha256()
    for s in range(50):
        digest.update(format_circuit(series_parallel(40, 0.5, s)).encode())
    assert digest.hexdigest() == (
        "30c8a89e697c4206a55ad4f316ee6ac9c03cecf098b5cb7f67ce26927396b9b4"
    )
