"""Reference strategies the optimizer is measured against."""

from __future__ import annotations

from .circuit import Circuit, Color, require_level


def after_every_red(circuit: Circuit) -> frozenset[int]:
    """Mark every Red vertex; always feasible, cardinality = number of Reds."""
    return frozenset(circuit.red_vertices)


def greedy_topological(circuit: Circuit, level: int) -> frozenset[int]:
    """One topological sweep, marking a vertex the moment its level reaches L.

    Marking exactly at L (not above) keeps every later level within budget:
    an unmarked predecessor always carries level <= L-1, so Blue vertices
    stay below L and Red vertices never exceed it.  Only Red vertices can
    reach L, so the result contains no White or Blue vertex.
    """
    require_level(level)
    colors, preds, red = circuit.colors, circuit.preds, Color.RED
    marks: set[int] = set()
    levels = [0] * circuit.n
    for v in circuit.topo:  # a White vertex has no preds, so it stays at 0
        m = 0
        for u in preds[v]:
            if u not in marks and levels[u] > m:
                m = levels[u]
        levels[v] = m + 1 if colors[v] is red else m
        if levels[v] == level:
            marks.add(v)
    return frozenset(marks)
