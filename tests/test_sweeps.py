"""The level sweeps on circuits whose topological order is not the identity.

strategies.circuits() draws ids that ascend along every edge, so its
topological order is range(n).  Relabeling such a circuit by a drawn
permutation sends dag_order through its heap (on about four draws in five),
and the sweeps must then match their references and answer as on the
original, up to the relabeling, except disjoint_rows, whose greedy rows
depend on the ids.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bootplan.baselines import greedy_topological
from bootplan.circuit import Color, eval_levels, validate
from bootplan.exact import disjoint_rows, exact_bootstrap
from bootplan.paths import level_lengths
from strategies import build, circuit_parts, levels_st
from test_paths import tie_weights

PROPERTY = settings(max_examples=200, deadline=None)


@st.composite
def relabeled_circuits(draw, max_vertices: int = 10):
    """(circuit, the same circuit with vertex v renamed relabel[v], relabel)."""
    colors, edges = draw(circuit_parts(max_vertices))
    relabel = draw(st.permutations(range(len(colors))))
    moved = [None] * len(colors)
    for v, color in enumerate(colors):
        moved[relabel[v]] = color
    moved_edges = [(relabel[u], relabel[v], m) for u, v, m in edges]
    return validate(colors, edges), validate(moved, moved_edges), relabel


@PROPERTY
@given(relabeled_circuits(), levels_st, st.data())
def test_sweeps_answer_alike_under_relabeled_ids(case, level, data):
    circuit, moved, relabel = case
    n = circuit.n
    marks = data.draw(st.frozensets(st.integers(min_value=0, max_value=n - 1)))
    assert eval_levels(moved, marks) == oracles.levels_brute(moved, marks)

    greedy = greedy_topological(circuit, level)
    assert greedy_topological(moved, level) == {relabel[v] for v in greedy}

    # The greedy rows depend on the ids, and so may their number (see
    # test_disjoint_row_count_depends_on_ids); they stay disjoint interesting
    # paths less their finals, and so a bound on the optimum.
    rows = disjoint_rows(moved, level)
    marked = [v for row in rows for v in row]
    assert len(marked) == len(set(marked))
    assert {p[:-1] for p in oracles.interesting_paths_brute(moved, level)}.issuperset(rows)

    # The exact kernel indexes its rows by vertex id, so Whites may sit at any
    # id: the whole result must match the reference subset loop.
    exact = exact_bootstrap(moved, level)
    pool = [v for v in range(n) if moved.colors[v] is not Color.WHITE]
    assert exact == oracles.smallest_feasible(
        pool, lambda marks: oracles.feasible_brute(moved, marks, level)
    )
    assert exact.optimum == exact_bootstrap(circuit, level).optimum
    assert len(rows) <= exact.optimum

    weights = data.draw(st.lists(tie_weights, min_size=n, max_size=n))
    got = level_lengths(moved, level, weights)
    want = oracles.level_lengths_reference(moved, level, weights)
    assert [[x.hex() for x in row] for row in got.lengths] == [
        [x.hex() for x in row] for row in want.lengths
    ]


def test_disjoint_row_count_depends_on_ids():
    # Reds 1 and 2 feed Blues b and b', b from 0 and 1, b' from 1 and 2,
    # and both feed Red 5.  Walking back from 5 to its lowest-id pred finds
    # the row through b first when b is 3: its row (1, b) leaves 2 -> b' -> 5
    # uncut, for two rows.  When b' is 3, the row (1, b') cuts both paths
    # through 1 and leaves none, for one row.  The optimum is 2 either way.
    for b, b2, rows in ((3, 4, [(1, 3), (2, 4)]), (4, 3, [(1, 3)])):
        edges = [(0, 1, 2), (0, 2, 2), (0, b, 1), (1, b, 1), (1, b2, 1), (2, b2, 1)]
        circuit = build("wrrbbr", *edges, (b, 5, 1), (b2, 5, 1))
        assert disjoint_rows(circuit, 1) == rows
        assert exact_bootstrap(circuit, 1).optimum == 2
