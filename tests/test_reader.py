"""The graph and mark readers against the line-based reference in oracles.

Each text is read by both readers, and they must agree on everything: the
parsed graph (compared by repr, so ids stay Python ints), or the error's
type, line and message.  Texts are seeded random circuits and deletion
instances, each read by both graph readers, with a few random mutations
applied: to token counts, directives, names, colors, multiplicities,
separators, comments, line ends and line order.  Every listed name,
separator, directive and multiplicity is also read once in its slot of a
fixed small text.
"""

from __future__ import annotations

import random

import pytest

import oracles
from bootplan.errors import BootplanError
from bootplan.formats import format_circuit, parse_circuit, parse_dvd, parse_marks
from bootplan.generate import layered, random_circuit

# Names that collide with directives, colors or multiplicities.
ODD_NAMES = ["node", "edge", "white", "red", "2", "+1", "٣", "x\x00y"]
# Whitespace to str.split, but not a line end in a file.
INNER_SPACES = ["\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u2029", "\u3000"]
# Only the tokens 1 and 2 are multiplicities; other spellings of a count are bad.
MULTIPLICITIES = ["+1", "01", "1_0", "٣", "0", "-1", "two", "2", "3", "-0", "1.0", "0x1"]
MULTIPLICITIES += ["99999999999999999999", "1" * 5000]  # digits past int64, and past int()'s limit
DIRECTIVES = ["edge#x", "nodeX", "vertex", "EDGE", "node#", "edges", "#node", "edge\x0c"]

# A small valid circuit and deletion instance with one slot per list above
# (a deletion edge has no multiplicity); the defaults fill every slot validly.
SLOT_DEFAULTS = {"name": "b", "directive": "edge", "space": " ", "multiplicity": "2"}
SLOTTED_TEXTS = [
    (parse_circuit, oracles.parse_circuit_reference,
     "node a white\nnode {name} red\n{directive} a{space}{name} {multiplicity}\n"),
    (parse_dvd, oracles.parse_dvd_reference, "node a\nnode {name}\n{directive} a{space}{name}\n"),
]
SLOTTED = [
    pytest.param(slot, value, id=f"{slot}-{i}")
    for slot, values in (
        ("name", ODD_NAMES),
        ("directive", DIRECTIVES),
        ("space", INNER_SPACES),
        ("multiplicity", MULTIPLICITIES),
    )
    for i, value in enumerate(values)
]


def outcome(parse, *args):
    try:
        return "ok", repr(parse(*args))
    except BootplanError as error:
        return type(error).__name__, getattr(error, "line", None), str(error)


def _mutate_line(lines: list[str], rng: random.Random) -> None:
    if not lines:
        lines.append(rng.choice(DIRECTIVES))
        return
    i = rng.randrange(len(lines))
    tokens = lines[i].split(" ")
    kind = rng.randrange(9)
    if kind == 0 and tokens:  # a token fewer
        del tokens[rng.randrange(len(tokens))]
    elif kind == 1:  # a token more
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(["x", "2", "red", "node"]))
    elif kind == 2:  # another directive
        tokens[0] = rng.choice(DIRECTIVES)
    elif kind == 3:  # another multiplicity, or one on a DVD edge
        if tokens[0] == "edge":
            tokens[3:] = [rng.choice(MULTIPLICITIES)]
    elif kind == 4:  # another color
        if tokens[0] == "node":
            tokens[2:] = [rng.choice(["mauve", "Red", "blue", "white", "red"])]
    elif kind == 5:  # another name: undeclared, duplicate or odd
        j = rng.randrange(1, len(tokens)) if len(tokens) > 1 else 0
        tokens[j] = rng.choice(ODD_NAMES + ["ghost", rng.choice(rng.choice(lines).split(" "))])
    elif kind == 6:  # a separator inside the line, maybe splitting a token
        line = " ".join(tokens)
        k = rng.randrange(len(line) + 1)
        tokens = (line[:k] + rng.choice(INNER_SPACES) + line[k:]).split(" ")
    elif kind == 7:  # a comment, trailing or cutting the line
        line = " ".join(tokens)
        k = rng.randrange(len(line) + 1)
        tokens = (line[:k] + rng.choice(["#", " # note", "#node a red"])).split(" ")
    else:  # padding around and between tokens
        tokens = [rng.choice(["", " ", "\t"]) + t for t in tokens] + [rng.choice(["", " "])]
    lines[i] = " ".join(tokens)


def _mutate_lines(lines: list[str], rng: random.Random) -> None:
    kind = rng.randrange(6)
    if kind == 0:  # forward references
        rng.shuffle(lines)
    elif kind == 1 and lines:  # a duplicate line
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    elif kind == 2 and lines:  # a line dropped: undeclared names, indegree
        del lines[rng.randrange(len(lines))]
    elif kind == 3:  # blank and comment lines
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "   ", "# c", "\t# edge a b"]))
    elif kind == 4 and lines:  # a reversed edge: maybe a cycle
        i = rng.randrange(len(lines))
        tokens = lines[i].split(" ")
        if tokens[0] == "edge" and len(tokens) >= 3:
            tokens[1], tokens[2] = tokens[2], tokens[1]
            lines[i] = " ".join(tokens)
    else:
        _mutate_line(lines, rng)


def _join(lines: list[str], rng: random.Random) -> str:
    ends = rng.choice([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]])
    text = "".join(line + rng.choice(ends) for line in lines)
    return text[: -len(ends[0])] if lines and rng.random() < 0.2 else text


def _base_lines(rng: random.Random) -> list[str]:
    kind, seed = rng.randrange(3), rng.randrange(10**6)
    if kind == 0:
        text = format_circuit(random_circuit(rng.randint(1, 12), seed))
    elif kind == 1:
        text = format_circuit(layered(rng.randint(1, 4), rng.randint(1, 4), 0.5, seed))
    else:
        text = oracles.format_dvd(oracles.random_dvd(rng.randint(0, 8), seed))
    return text.splitlines()


def mutated_texts(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        lines = _base_lines(rng)
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            _mutate_lines(lines, rng)
        yield _join(lines, rng)


def test_graph_readers_match_the_reference():
    kinds: set[str] = set()
    for text in mutated_texts(3000, seed=2026):
        for parse, reference in (
            (parse_circuit, oracles.parse_circuit_reference),
            (parse_dvd, oracles.parse_dvd_reference),
        ):
            got = outcome(parse, text, "t.txt")
            assert got == outcome(reference, text, "t.txt"), text
            kinds.add(got[0] if got[0] != "ParseError" else got[2].split(": ", 1)[1].split(" '")[0])
    # The mutations reach every outcome the readers have.
    assert kinds == {
        "ok",
        "IndegreeViolation",
        "CycleDetected",
        "expected: node <name> <white|blue|red>",
        "expected: edge <src> <dst> [multiplicity]",
        "expected: node <name>",
        "expected: edge <src> <dst>",
        "duplicate node name",
        "unknown directive",
        "unknown color",
        "edge references undeclared node",
        "bad multiplicity",
    }


@pytest.mark.parametrize("slot, value", SLOTTED)
def test_every_listed_value_reaches_the_readers(slot, value):
    # The random corpus draws most listed values into a few texts and some
    # into none, so each one is also put into its slot once here.
    for parse, reference, template in SLOTTED_TEXTS:
        text = template.format(**{**SLOT_DEFAULTS, slot: value})
        assert outcome(parse, text, "t.txt") == outcome(reference, text, "t.txt"), text


def test_mark_reader_matches_the_reference():
    rng = random.Random(7)
    for _ in range(400):
        circuit = random_circuit(rng.randint(1, 12), rng.randrange(10**6))
        names = list(circuit.names) + ["ghost", "v1#v2"]
        lines = [
            rng.choice(["", " ", "\t"]).join(rng.choice(names) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(0, 4))
        ]
        for _ in range(rng.choice([0, 1, 2])):
            _mutate_line(lines, rng)
        text = _join(lines, rng)
        got = outcome(parse_marks, text, circuit, "m.txt")
        assert got == outcome(oracles.parse_marks_reference, text, circuit, "m.txt"), text


@pytest.mark.parametrize("last", ["bogus", "node v7 white", "edge v0 v1 two"])
def test_errors_past_line_100000_without_final_newline(last):
    text = "".join(f"node v{i} white\n" for i in range(100_000)) + "# end\n" + last
    got = outcome(parse_circuit, text, "big")
    assert got == outcome(oracles.parse_circuit_reference, text, "big")
    assert got[1] == 100_002
