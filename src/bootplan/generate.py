"""Deterministic instance generators.

Every generator takes an integer seed and produces the same instance for
the same arguments, so generated files are byte-identical across runs.
Indegree rules are enforced by construction: non-source vertices draw
exactly two predecessors (possibly the same one twice, which validate merges
into a double edge) or have their single in-edge doubled.
"""

from __future__ import annotations

import random

from .circuit import Circuit, Color, validate


def require_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def red_chain(length: int) -> Circuit:
    """One White source feeding a chain of `length` Red vertices."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    colors = [Color.WHITE] + [Color.RED] * length
    edges = [(i, i + 1, 2) for i in range(length)]
    names = ["w0"] + [f"r{i}" for i in range(1, length + 1)]
    return validate(colors, edges, names=names)


def layered(
    layers: int,
    width: int,
    red_fraction: float,
    seed: int,
) -> Circuit:
    """`layers` rows of `width` vertices; row 0 is White input, every later
    vertex draws its two predecessors uniformly from the previous row."""
    if layers < 1 or width < 1:
        raise ValueError("layers and width must be >= 1")
    require_fraction("red_fraction", red_fraction)
    rng = random.Random(seed)
    colors: list[Color] = []
    edges: list[tuple[int, int, int]] = []
    names: list[str] = []
    for layer in range(layers):
        for slot in range(width):
            vid = layer * width + slot
            if layer == 0:
                colors.append(Color.WHITE)
            else:
                colors.append(Color.RED if rng.random() < red_fraction else Color.BLUE)
                base = (layer - 1) * width
                edges.append((base + rng.randrange(width), vid, 1))
                edges.append((base + rng.randrange(width), vid, 1))
            names.append(f"n{layer}_{slot}")
    return validate(colors, edges, names=names)


def series_parallel(size: int, red_fraction: float, seed: int) -> Circuit:
    """Random two-terminal series/parallel blocks, joined in series until
    there are at least `size` vertices; indegrees are fixed up by doubling
    single in-edges, and source vertices are White."""
    if size < 2:
        raise ValueError("size must be >= 2")
    require_fraction("red_fraction", red_fraction)
    rng = random.Random(seed)
    edges: list[list[int]] = []  # [src, dst], multiplicity fixed later
    node_count = 0

    def new_node() -> int:
        nonlocal node_count
        node_count += 1
        return node_count - 1

    def block(depth: int) -> tuple[int, int]:
        if node_count >= size or depth <= 0 or rng.random() < 0.25:
            u, v = new_node(), new_node()
            edges.append([u, v])
            return u, v
        if rng.random() < 0.5:
            a, b = block(depth - 1)
            c, d = block(depth - 1)
            edges.append([b, c])
            return a, d
        s, t = new_node(), new_node()
        a1, b1 = block(depth - 1)
        a2, b2 = block(depth - 1)
        edges.append([s, a1])
        edges.append([s, a2])
        edges.append([b1, t])
        edges.append([b2, t])
        return s, t

    _, sink = block(12)
    while node_count < size:
        source, next_sink = block(12)
        edges.append([sink, source])
        sink = next_sink
    indeg = [0] * node_count
    for src, dst in edges:
        indeg[dst] += 1
    final_edges: list[tuple[int, int, int]] = []
    for src, dst in edges:
        final_edges.append((src, dst, 2 if indeg[dst] == 1 else 1))
    colors: list[Color] = []
    for v in range(node_count):
        if indeg[v] == 0:
            colors.append(Color.WHITE)
        else:
            colors.append(Color.RED if rng.random() < red_fraction else Color.BLUE)
    names = [f"n{v}" for v in range(node_count)]
    return validate(colors, final_edges, names=names)


def random_circuit(
    n: int,
    seed: int,
    white_fraction: float = 0.3,
    red_fraction: float = 0.5,
) -> Circuit:
    """Small random circuit: each vertex is White with probability
    `white_fraction` (vertex 0 always is), otherwise draws two predecessors
    among earlier vertices and is Red with probability `red_fraction`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    require_fraction("white_fraction", white_fraction)
    require_fraction("red_fraction", red_fraction)
    rng = random.Random(seed)
    colors: list[Color] = []
    edges: list[tuple[int, int, int]] = []
    for v in range(n):
        if v == 0 or rng.random() < white_fraction:
            colors.append(Color.WHITE)
            continue
        colors.append(Color.RED if rng.random() < red_fraction else Color.BLUE)
        edges.append((rng.randrange(v), v, 1))
        edges.append((rng.randrange(v), v, 1))
    return validate(colors, edges)
