"""Exception types shared across the package."""

from __future__ import annotations


class HurwitzError(Exception):
    """Base class for errors raised by this package."""


class GroupTableError(HurwitzError, ValueError):
    """A multiplication table fails one of the group axioms."""


class ParseError(HurwitzError, ValueError):
    """Malformed textual input.

    ``position`` is the character offset of the offending token, or None
    when the error points at no one place in the text (a missing flag, a
    wrong number of entries); only a located error names its position.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class CapExceeded(HurwitzError, RuntimeError):
    """An enumeration outgrew its configured cap.

    ``visited`` carries the number of states (or ``unit``) reached before
    aborting, so a failed run still reports how far it got.
    """

    def __init__(self, message: str, visited: int, unit: str = "states"):
        super().__init__(f"{message} (visited {visited} {unit})")
        self.visited = visited


class HomologyError(HurwitzError, RuntimeError):
    """Torsor counting hit an inconsistency (usually a sub-stable level)."""
