"""Text format parsing, printing, and error reporting."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings

from bootplan.circuit import Circuit, Color, dag_order, validate
from bootplan.dvd import reduce_to_circuit
from bootplan.errors import CycleDetected, IndegreeViolation, ParseError
from bootplan.formats import format_circuit, parse_circuit, parse_dvd, parse_marks
from bootplan.generate import layered, random_circuit, red_chain
from oracles import dvd_edges, format_dvd, random_dvd
from strategies import circuits

SAMPLE = """\
# a small circuit
node in white
node g1 red
node g2 blue   # trailing comment
edge in g1 2
edge g1 g2
edge in g2
"""


def test_parse_sample_circuit():
    c = parse_circuit(SAMPLE)
    assert c.names == ("in", "g1", "g2")
    assert c.colors == (Color.WHITE, Color.RED, Color.BLUE)
    assert c.edges == ((0, 1, 2), (0, 2, 1), (1, 2, 1))


def test_forward_edge_reference_allowed():
    text = "edge a b 2\nnode a white\nnode b red\n"
    c = parse_circuit(text)
    assert c.edges == ((0, 1, 2),)


def test_roundtrip_print_parse():
    c = parse_circuit(SAMPLE)
    assert parse_circuit(format_circuit(c)) == c


@settings(max_examples=100, deadline=None)
@given(circuits())
def test_roundtrip_generated(circuit):
    assert parse_circuit(format_circuit(circuit)) == circuit


def test_roundtrip_random_named_circuit():
    c = random_circuit(30, seed=7)
    text = format_circuit(c)
    again = parse_circuit(text)
    assert format_circuit(again) == text


CIRCUIT_ERRORS = [
    ("node a white\nnode a red\n", 2, "duplicate node name 'a'"),
    ("node a mauve\n", 1, "unknown color 'mauve'"),
    ("node a white extra junk\n", 1, "expected: node <name> <white|blue|red>"),
    ("vertex a white\n", 1, "unknown directive 'vertex'"),
    ("node a white\nedge a\n", 2, "expected: edge <src> <dst> [multiplicity]"),
    ("node a white\nnode b red\nedge a b 0\n", 3, "bad multiplicity '0'"),
    ("node a white\nnode b red\nedge a b two\n", 3, "bad multiplicity 'two'"),
    # Only the tokens 1 and 2: a gate has indegree 2.
    ("node a white\nnode b red\nedge a b 3\n", 3, "bad multiplicity '3'"),
    ("node a white\nnode b red\nedge a b +1\n", 3, "bad multiplicity '+1'"),
    ("node a white\nnode b red\nedge a b 01\n", 3, "bad multiplicity '01'"),
    ("node a white\nnode b red\nedge a b ٣\n", 3, "bad multiplicity '٣'"),
    (
        "node a white\nnode b red\nedge a b 99999999999999999999\n",
        3,
        "bad multiplicity '99999999999999999999'",
    ),
    ("node a white\nedge a ghost\n", 2, "edge references undeclared node 'ghost'"),
    # Node lines and directives are read before any edge line is checked,
    # so a later bad node or directive line is the one reported.
    ("node a white\nedge a\nnode a red\n", 3, "duplicate node name 'a'"),
    ("edge a ghost\nnode a white\nbogus\n", 3, "unknown directive 'bogus'"),
    ("node a white\nnode b red\nedge a b two\nnode c mauve\n", 4, "unknown color 'mauve'"),
]


@pytest.mark.parametrize(
    "text,line,message", CIRCUIT_ERRORS, ids=[f"{text}-{line}" for text, line, _ in CIRCUIT_ERRORS]
)
def test_circuit_parse_errors_carry_line_numbers(text, line, message):
    with pytest.raises(ParseError) as info:
        parse_circuit(text, source="bad.circuit")
    assert info.value.line == line
    assert str(info.value) == f"bad.circuit:{line}: {message}"


def test_structural_errors_propagate():
    with pytest.raises(IndegreeViolation):
        parse_circuit("node a white\nnode b red\nedge a b\n")
    with pytest.raises(CycleDetected):
        parse_circuit(
            "node a white\nnode b blue\nnode c blue\n"
            "edge a b\nedge c b\nedge b c 2\n"
        )


# str.splitlines breaks at these too; a file line does not.
OTHER_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", OTHER_SEPARATORS)
def test_comment_runs_past_other_line_separators(sep):
    c = parse_circuit(f"node a white\n# note{sep}node b white\n")
    assert c.names == ("a",)


def test_directive_after_form_feed_stays_in_its_comment():
    assert parse_circuit("node a white\n# x\x0cbogus\n").names == ("a",)
    with pytest.raises(ParseError, match="unknown directive 'foo'") as info:
        parse_circuit("node a white\n# x\x0cbogus\nfoo\n")
    assert info.value.line == 3


def test_marks_comment_runs_past_form_feed():
    c = parse_circuit(SAMPLE)
    assert parse_marks("g1 # g2\x0cg2\n", c) == frozenset({1})


def test_lines_end_at_newline_and_carriage_return():
    text = "node a white\r\nnode b red\redge a b 2\n\rbogus\n"
    with pytest.raises(ParseError, match="unknown directive 'bogus'") as info:
        parse_circuit(text)
    assert info.value.line == 5
    assert parse_circuit(text.replace("bogus", "# ok")).names == ("a", "b")


def test_empty_circuit_file():
    c = parse_circuit("# nothing\n")
    assert c.n == 0
    assert format_circuit(c) == ""


@pytest.mark.parametrize(
    "names",
    [["a", "a", "b"], ["a", "", "b"], ["a", "b c", "d"], ["a", "b\tc", "d"], ["a#", "b", "c"]],
)
def test_writers_reject_names_that_do_not_read_back(names):
    colors = [Color.WHITE, Color.RED, Color.BLUE]
    circuit = validate(colors, [(0, 1, 2), (0, 2, 1), (1, 2, 1)], names)
    with pytest.raises(ValueError, match="node name"):
        format_circuit(circuit)


def test_parse_dvd_roundtrip():
    d = random_dvd(9, seed=11)
    text = format_dvd(d)
    again = parse_dvd(text)
    assert dvd_edges(again) == dvd_edges(d)
    assert format_dvd(again) == text


def test_parse_dvd_duplicate_edges_collapse():
    d = parse_dvd("node a\nnode b\nedge a b\nedge a b\n")
    assert dvd_edges(d) == ((0, 1),)


def test_parse_dvd_errors():
    for text, line, message in [
        ("node a b\n", 1, "expected: node <name>"),
        ("edge a b\n", 1, "edge references undeclared node 'a'"),
        ("node a\nnode a\n", 2, "duplicate node name 'a'"),
        ("node a\nnode b\nedge a b 2\n", 3, "expected: edge <src> <dst>"),
        ("node a\nedge a ghost\n", 2, "edge references undeclared node 'ghost'"),
        # As in circuit files, node lines and directives come before edges.
        ("node a\nedge a\nbogus\n", 3, "unknown directive 'bogus'"),
        ("edge a ghost\nnode a\nnode a\n", 3, "duplicate node name 'a'"),
        ("node a\nedge a\nnode a\n", 3, "duplicate node name 'a'"),
        ("node a\nnode b\nedge a b 2\nnode c d\n", 4, "expected: node <name>"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_dvd(text, source="bad.dvd")
        assert info.value.line == line
        assert str(info.value) == f"bad.dvd:{line}: {message}"


def test_marks_roundtrip_and_errors():
    c = parse_circuit(SAMPLE)
    marks = parse_marks("g1 g2\n", c)
    assert marks == frozenset({1, 2})
    assert parse_marks("g1\ng2\n", c) == marks
    assert parse_marks("# none\n", c) == frozenset()
    with pytest.raises(ParseError) as info:
        parse_marks("g1\nnosuch\n", c, source="m.txt")
    assert info.value.line == 2


def test_loaded_graphs_are_frozen():
    # topo and preds of generated, parsed and reduced graphs must stay the
    # same across releases; a deletion instance stores no order, so its topo
    # is the one dag_order derives from its preds.  Parsing shuffled lines
    # gives ids that are not in topological order, with edges declared
    # before their nodes.
    def shuffled(text, seed):
        lines = text.splitlines()
        random.Random(seed).shuffle(lines)
        return "\n".join(lines) + "\n"

    graphs = [red_chain(5)]
    for s in range(20):
        for c in (layered(5, 6, 0.4, s), random_circuit(25, s)):
            graphs += [c, parse_circuit(shuffled(format_circuit(c), s))]
        d = random_dvd(9, s)
        graphs += [d, parse_dvd(shuffled(format_dvd(d), s)), reduce_to_circuit(d).circuit]
    digest = hashlib.sha256()
    for g in graphs:
        if isinstance(g, Circuit):
            topo = g.topo
        else:
            src, dst = np.array(dvd_edges(g), dtype=np.int64).reshape(-1, 2).T
            topo = dag_order(g.n, src, dst, "deletion instance")[0]
        digest.update(repr((topo, g.preds)).encode())
    assert digest.hexdigest() == (
        "06aec44ace920fa71dadd0bc5a42cde349994c786a645a9b18c422bce4b75016"
    )
