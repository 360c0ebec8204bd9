"""Line-oriented text formats for circuits, DVD instances, and mark sets.

Circuit files:
    node <name> <white|blue|red>
    edge <src> <dst> [multiplicity]
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

Both graph readers read in the same two passes, so no edge line is kept:
_nodes reads node lines, skips edge lines (an edge may name a later node)
and rejects unknown directives; _edges checks each edge line and streams it
into validate or validate_dvd.  So node-line and directive errors come
first; the circuit reader adds only one check, a node line's color.
"""

from __future__ import annotations

from .circuit import Circuit, Color, validate
from .dvd import DvdInstance, validate_dvd
from .errors import ParseError

_COLORS = {c.value: c for c in Color}


def _lines(text: str):
    # Lines end only at \n, \r\n and \r: str.splitlines would also end them
    # at form feeds and other separators, and so end a comment early.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _nodes(text: str, ids: dict[str, int], usage: str, source: str):
    """First pass: (lineno, tokens) per node line, once its token count is
    checked against `usage` and its new name given the next id in `ids`.
    Edge lines are skipped; any other directive raises."""
    count = len(usage.split())
    for lineno, tokens in _lines(text):
        if tokens[0] == "node":
            if len(tokens) != count:
                raise ParseError(f"expected: {usage}", source, lineno)
            if tokens[1] in ids:
                raise ParseError(f"duplicate node name {tokens[1]!r}", source, lineno)
            ids[tokens[1]] = len(ids)
            yield lineno, tokens
        elif tokens[0] != "edge":
            raise ParseError(f"unknown directive {tokens[0]!r}", source, lineno)


def _edges(text: str, ids: dict[str, int], usage: str, source: str):
    """Second pass: (src, dst, multiplicity) per edge line, checked against
    the declared `ids` and against `usage`, whose token count caps the line's."""
    most = len(usage.split())
    for lineno, tokens in _lines(text):
        if tokens[0] != "edge":
            continue
        if not 3 <= len(tokens) <= most:
            raise ParseError(f"expected: {usage}", source, lineno)
        for name in tokens[1:3]:
            if name not in ids:
                raise ParseError(f"edge references undeclared node {name!r}", source, lineno)
        mult = 1
        if len(tokens) == 4:
            try:
                mult = int(tokens[3])
            except ValueError:
                mult = 0
            if mult < 1:
                raise ParseError(f"bad multiplicity {tokens[3]!r}", source, lineno)
        yield ids[tokens[1]], ids[tokens[2]], mult


def parse_circuit(text: str, source: str = "<circuit>") -> Circuit:
    ids: dict[str, int] = {}  # in declaration order, so its keys are the names
    colors: list[Color] = []
    for lineno, tokens in _nodes(text, ids, "node <name> <white|blue|red>", source):
        if tokens[2] not in _COLORS:
            raise ParseError(f"unknown color {tokens[2]!r}", source, lineno)
        colors.append(_COLORS[tokens[2]])
    edges = _edges(text, ids, "edge <src> <dst> [multiplicity]", source)
    return validate(colors, edges, names=ids)


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
    ids: dict[str, int] = {}  # in declaration order, so its keys are the names
    for _ in _nodes(text, ids, "node <name>", source):
        pass
    edges = _edges(text, ids, "edge <src> <dst>", source)
    return validate_dvd(len(ids), ((u, v) for u, v, _ in edges), names=ids)


def parse_marks(text: str, circuit: Circuit, source: str = "<marks>") -> frozenset[int]:
    ids = {circuit.name_of(v): v for v in range(circuit.n)}
    marks: set[int] = set()
    for lineno, tokens in _lines(text):
        for name in tokens:
            if name not in ids:
                raise ParseError(f"unknown vertex name {name!r}", source, lineno)
            marks.add(ids[name])
    return frozenset(marks)
