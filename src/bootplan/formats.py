"""Line-oriented text formats for circuits, DVD instances, and mark sets.

Circuit files:
    node <name> <white|blue|red>
    edge <src> <dst> [multiplicity]
where the multiplicity is 1 (the default) or 2, since a gate has indegree 2.
DVD files use the same layout without colors or multiplicities:
    node <name>
    edge <src> <dst>
Mark files are whitespace-separated vertex names.  '#' starts a comment in
all three formats, and runs to the end of the line: lines end only at '\n',
'\r\n' or '\r'.  The budget L never appears in a file and no reader takes
it; each feasibility check does.  Vertex ids follow declaration order, so
formatting a circuit then parsing it reproduces the same object; the writer
raises ValueError for names that would not read back (empty, holding
whitespace or '#', or repeated), so the reader need not guard against its
own output.  DVD files are only read.

Both graph readers read in the same two regex passes over the text, so no
line is split into tokens and no edge line is kept: _node_pass reads node
lines into the name-to-id map, skips edge lines (an edge may name a later
node) and rejects unknown directives; _edge_pass streams each edge line's
ids and multiplicity into three int lists, returned as one array, which
validate or validate_dvd then checks.  So node-line and directive errors
come first; the circuit reader adds only one check, a node line's color.
A line that fails a pattern is reported from its own match, its line
number counted from the match offset only then.  Mark files are scanned for tokens the same way.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, Color, validate
from .dvd import DvdInstance, validate_dvd
from .errors import ParseError

_COLORS = {c.value: c for c in Color}
# An edge line's multiplicity token (None when it has none) to its count.
_MULTIPLICITIES = {None: 1, "1": 1, "2": 2}

# Lines end at '\n' once '\r\n' and '\r' are rewritten to it, and the text
# gains a leading '\n', so every line starts after one: a pattern that
# begins with '\n' is searched for that character alone, not tried at every
# position.  '\s' is str.isspace, so '.' and these classes run past form
# feeds and the other separators at which str.splitlines would end a line.
_GAP = r"[^\S\n]"  # whitespace within a line
_TOKEN = r"([^\s#]+)"
_END = _GAP + r"*(?:#.*)?$"  # optional comment, then the end of the line
_ANY_EDGE = r"edge(?![^\s#])"  # a line whose first token is edge


class _Format(NamedTuple):
    """A graph format's usage lines and its two line patterns.

    nodes matches each content line that is a node line with the token
    count of node_usage (groups: its fields after "node"), a node line of
    another count (no group set) or a line whose first token is neither
    node nor edge (last group: that token).  edges matches each line whose
    first token is edge: with 3 tokens up to edge_usage's count it sets
    groups src, dst and an optional multiplicity, so always three groups;
    otherwise none.
    """

    node_usage: str
    edge_usage: str
    nodes: re.Pattern
    edges: re.Pattern


def _format(node_usage: str, edge_usage: str) -> _Format:
    fields = (_GAP + "+" + _TOKEN) * (len(node_usage.split()) - 1)
    extra = len(edge_usage.split()) - 3
    return _Format(
        node_usage,
        edge_usage,
        re.compile(
            rf"\n{_GAP}*(?:node(?![^\s#])(?:{fields}{_END})?|(?!{_ANY_EDGE}){_TOKEN})", re.M
        ),
        re.compile(
            rf"\n{_GAP}*{_ANY_EDGE}"
            rf"(?:{_GAP}+{_TOKEN}{_GAP}+{_TOKEN}(?:{_GAP}+{_TOKEN}){{0,{extra}}}{_END})?",
            re.M,
        ),
    )


_CIRCUIT = _format("node <name> <white|blue|red>", "edge <src> <dst> [multiplicity]")
_DVD = _format("node <name>", "edge <src> <dst>")
_MARK = re.compile(r"#.*|" + _TOKEN)


def _text(text: str) -> str:
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return "\n" + text


def _line(text: str, pos: int) -> int:
    return text.count("\n", 0, pos + 1)


def _node_pass(text: str, form: _Format, ids: dict[str, int], source: str):
    """First pass: the match of each node line, once its new name has the
    next id in `ids`.  Edge lines are skipped; any other directive raises."""
    for m in form.nodes.finditer(text):
        name = m[1]
        if name is None:
            if m.lastindex:
                message = f"unknown directive {m[m.lastindex]!r}"
            else:
                message = f"expected: {form.node_usage}"
            raise ParseError(message, source, _line(text, m.start()))
        if name in ids:
            raise ParseError(f"duplicate node name {name!r}", source, _line(text, m.start()))
        ids[name] = len(ids)
        yield m


def _edge_pass(text: str, form: _Format, ids: dict[str, int], source: str):
    """Second pass: the src, dst and multiplicity of every edge line, each
    line checked against the declared `ids`, as the rows of an (E, 3) int
    array."""
    src: list[int] = []
    dst: list[int] = []
    mult: list[int] = []
    get = ids.get
    multiplicity = _MULTIPLICITIES.get
    for m in form.edges.finditer(text):
        s, d, k = m.groups()
        u = get(s)
        v = get(d)
        if u is None or v is None:
            if d is None:
                message = f"expected: {form.edge_usage}"
            else:
                message = f"edge references undeclared node {s if u is None else d!r}"
            raise ParseError(message, source, _line(text, m.start()))
        count = multiplicity(k)
        if count is None:
            raise ParseError(f"bad multiplicity {k!r}", source, _line(text, m.start()))
        src.append(u)
        dst.append(v)
        mult.append(count)
    return np.array((src, dst, mult), dtype=np.int64).T


def parse_circuit(text: str, source: str = "<circuit>") -> Circuit:
    text = _text(text)
    ids: dict[str, int] = {}  # in declaration order, so its keys are the names
    colors: list[Color] = []
    for m in _node_pass(text, _CIRCUIT, ids, source):
        color = _COLORS.get(m[2])
        if color is None:
            raise ParseError(f"unknown color {m[2]!r}", source, _line(text, m.start()))
        colors.append(color)
    return validate(colors, _edge_pass(text, _CIRCUIT, ids, source), names=ids)


def format_circuit(circuit: Circuit) -> str:
    names = circuit.names
    seen: set[str] = set()
    for name in names:
        if name.split() != [name] or "#" in name:
            raise ValueError(f"node name {name!r} is not one token without '#'")
        if name in seen:
            raise ValueError(f"duplicate node name {name!r}")
        seen.add(name)
    out = [f"node {names[v]} {color.value}" for v, color in enumerate(circuit.colors)]
    for src, dst, mult in circuit.edges:
        line = f"edge {names[src]} {names[dst]}"
        if mult != 1:
            line += f" {mult}"
        out.append(line)
    return "\n".join(out) + "\n" if out else ""


def parse_dvd(text: str, source: str = "<dvd>") -> DvdInstance:
    text = _text(text)
    ids: dict[str, int] = {}  # in declaration order, so its keys are the names
    for _ in _node_pass(text, _DVD, ids, source):
        pass
    edges = _edge_pass(text, _DVD, ids, source)
    return validate_dvd(len(ids), edges[:, :2], names=ids)


def parse_marks(text: str, circuit: Circuit, source: str = "<marks>") -> frozenset[int]:
    text = _text(text)
    ids = dict(zip(circuit.names, range(circuit.n)))
    marks: set[int] = set()
    for m in _MARK.finditer(text):
        name = m[1]
        if name is None:  # a comment
            continue
        if name not in ids:
            raise ParseError(f"unknown vertex name {name!r}", source, _line(text, m.start()))
        marks.add(ids[name])
    return frozenset(marks)
