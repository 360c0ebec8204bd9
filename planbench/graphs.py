"""The benchmark's own circuit model and generators; no bootplan import.

The generators replay the random draws of `bootplan.generate.layered` and
`bootplan.generate.random_circuit` and write the text `formats.format_circuit`
would write, so every instance is byte-identical to the program's own
generator output for the recorded instance seed (`bootplan gen --kind layered
--seed <s>` for the layered ones).  Alongside the text each instance keeps
the benchmark's own copy of the graph, which the checkers in `checks.py`
evaluate instead of the program's `Circuit`.

Vertex ids follow declaration order, and every generator only draws
predecessors among earlier ids, so id order is a topological order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

WHITE, BLUE, RED = 0, 1, 2
_COLOR_WORDS = ("white", "blue", "red")


@dataclass(frozen=True)
class Graph:
    """names[v], colors[v] and the distinct predecessors preds[v] (all < v)."""

    names: tuple[str, ...]
    colors: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, int], ...]  # (src, dst, multiplicity), sorted

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: v for v, name in enumerate(self.names)}

    @cached_property
    def succs(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for v, ps in enumerate(self.preds):
            for u in ps:
                out[u].append(v)
        return tuple(tuple(s) for s in out)

    def text(self) -> str:
        names = self.names
        lines = [f"node {names[v]} {_COLOR_WORDS[c]}" for v, c in enumerate(self.colors)]
        for src, dst, mult in self.edges:
            suffix = f" {mult}" if mult != 1 else ""
            lines.append(f"edge {names[src]} {names[dst]}{suffix}")
        return "\n".join(lines) + "\n"


def _graph(names, colors, pred_pairs) -> Graph:
    preds = []
    edges = []
    for v, pair in enumerate(pred_pairs):
        if pair is None:
            preds.append(())
            continue
        a, b = pair
        if a == b:
            preds.append((a,))
            edges.append((a, v, 2))
        else:
            preds.append((min(a, b), max(a, b)))
            edges.append((a, v, 1))
            edges.append((b, v, 1))
    edges.sort()
    return Graph(tuple(names), tuple(colors), tuple(preds), tuple(edges))


def layered(layers: int, width: int, red_fraction: float, seed: int) -> Graph:
    """Same draws as bootplan.generate.layered(layers, width, red_fraction, seed)."""
    rng = random.Random(seed)
    names, colors, pairs = [], [], []
    for layer in range(layers):
        base = (layer - 1) * width
        for slot in range(width):
            names.append(f"n{layer}_{slot}")
            if layer == 0:
                colors.append(WHITE)
                pairs.append(None)
                continue
            colors.append(RED if rng.random() < red_fraction else BLUE)
            pairs.append((base + rng.randrange(width), base + rng.randrange(width)))
    return _graph(names, colors, pairs)


def random_circuit(
    n: int, seed: int, white_fraction: float = 0.3, red_fraction: float = 0.5
) -> Graph:
    """Same draws as bootplan.generate.random_circuit(n, seed, ...)."""
    rng = random.Random(seed)
    colors, pairs = [], []
    for v in range(n):
        if v == 0 or rng.random() < white_fraction:
            colors.append(WHITE)
            pairs.append(None)
            continue
        colors.append(RED if rng.random() < red_fraction else BLUE)
        pairs.append((rng.randrange(v), rng.randrange(v)))
    return _graph([f"v{v}" for v in range(n)], colors, pairs)


def threshold_marks(graph: Graph, threshold: int) -> set[int]:
    """Sweep marking every vertex whose level reaches `threshold`; feasible
    for any budget >= threshold, since unmarked vertices stay below it."""
    colors = graph.colors
    levels = [0] * graph.n
    marks: set[int] = set()
    for v, ps in enumerate(graph.preds):
        if colors[v] == WHITE:
            continue
        m = 0
        for u in ps:
            if u not in marks and levels[u] > m:
                m = levels[u]
        levels[v] = m + (colors[v] == RED)
        if levels[v] >= threshold:
            marks.add(v)
    return marks
