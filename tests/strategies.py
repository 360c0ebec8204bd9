"""Hypothesis strategies and tiny builders shared across test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from bootplan.circuit import Circuit, Color, validate

COLOR_BY_LETTER = {"w": Color.WHITE, "b": Color.BLUE, "r": Color.RED}


def build(colors: str, *edges: tuple) -> Circuit:
    """Compact fixture builder: build("wrr", (0,1,2), (1,2,2))."""
    return validate([COLOR_BY_LETTER[ch] for ch in colors], list(edges))


@st.composite
def circuit_parts(draw, max_vertices: int = 10):
    """(colors, edges) as validate takes them, for a random circuit."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    colors: list[Color] = [Color.WHITE]
    edges: list[tuple[int, int, int]] = []
    for v in range(1, n):
        kind = draw(st.sampled_from("wbr"))
        colors.append(COLOR_BY_LETTER[kind])
        if kind == "w":
            continue
        a = draw(st.integers(min_value=0, max_value=v - 1))
        b = draw(st.integers(min_value=0, max_value=v - 1))
        if a == b:
            edges.append((a, v, 2))
        else:
            edges.append((a, v, 1))
            edges.append((b, v, 1))
    return colors, edges


def circuits(max_vertices: int = 10) -> st.SearchStrategy[Circuit]:
    return circuit_parts(max_vertices).map(lambda parts: validate(*parts))


@st.composite
def marked_circuits(draw, max_vertices: int = 10):
    circuit = draw(circuits(max_vertices=max_vertices))
    marks = draw(st.frozensets(st.integers(min_value=0, max_value=circuit.n - 1)))
    return circuit, marks


@st.composite
def weighted_circuits(draw, max_vertices: int = 10):
    circuit = draw(circuits(max_vertices=max_vertices))
    weights = [
        draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)) for _ in range(circuit.n)
    ]
    return circuit, weights


levels_st = st.integers(min_value=1, max_value=4)
