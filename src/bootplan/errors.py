"""Exception types shared across the package.

The exit code of each is set in one place, the bootplan.cli docstring.
"""

from __future__ import annotations


class BootplanError(Exception):
    """Base class for every error raised by this package."""


class CycleDetected(BootplanError):
    """The input graph is not acyclic."""


class IndegreeViolation(BootplanError):
    """A vertex has an indegree incompatible with its color."""

    def __init__(self, vertex: int, expected: int, actual: int, name: str):
        self.vertex = vertex
        self.expected = expected
        self.actual = actual
        super().__init__(f"{name}: expected indegree {expected}, got {actual}")


class UnknownVertex(BootplanError):
    """An edge or mark references a vertex id that does not exist."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"unknown vertex id {vertex}")


class ParseError(BootplanError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message: str, source: str, line: int):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}")


class ResourceLimit(BootplanError):
    """A configured cap on work or size was reached; the input may be fine."""


class TooLarge(ResourceLimit):
    """The exhaustive search space exceeds the configured subset cap."""


class IterationLimitExceeded(ResourceLimit):
    """Row generation or the master simplex hit its iteration cap."""


class NumericalFailure(BootplanError):
    """The master simplex found no pivot above tolerance (an unbounded
    direction), its solution failed the optimality certificate, or
    separation re-found a row the master already holds."""


class NoFeasibleCandidate(BootplanError):
    """No rounding candidate passed the exact feasibility re-check.

    This signals an internal bug (every candidate is feasible by
    construction); it is surfaced instead of silently repaired.
    """
