"""Exception types shared across the engine.

Structural failures carry a machine-readable ``kind`` plus the witness that
triggered them, so tests and callers can assert on the exact axiom that broke
instead of parsing messages.
"""

from __future__ import annotations


def clipped(text: str) -> str:
    """`text` whole up to 80 characters, else its first 80 and its length,
    so an error message never echoes a refused input whole."""
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


def quoted(value) -> str:
    """repr(value) for error messages, `clipped`."""
    return clipped(repr(value))


class SpbwError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SpbwError):
    """An input object violates a structural axiom.

    kind    short snake_case tag of the violated axiom, e.g. "non_associative"
    witness tuple of element indices (or similar) exhibiting the failure
    """

    def __init__(self, kind: str, witness=None, message: str = ""):
        self.kind = kind
        self.witness = witness
        if not message:
            message = kind if witness is None else f"{kind}: witness={witness!r}"
        super().__init__(message)


class PresentationMismatch(SpbwError):
    """Two operands belong to different presentations, rings, or modules."""


class SearchSpaceTooLarge(SpbwError):
    """A bounded exhaustive search would exceed its candidate budget."""

    def __init__(self, space: int, limit: int, what: str = "search"):
        self.space = space
        self.limit = limit
        self.what = what
        super().__init__(f"{what}: {space} candidates exceeds limit {limit}")


class TooLarge(SpbwError):
    """An exact lattice enumeration was requested on a carrier above the cap."""

    def __init__(self, size: int, limit: int, what: str = "enumeration"):
        self.size = size
        self.limit = limit
        self.what = what
        super().__init__(f"{what}: carrier of size {size} exceeds cap {limit}")


class UnknownProperty(SpbwError):
    """A property name was not recognized by the decider registry."""


class ParseError(SpbwError):
    """An instance file or polynomial literal failed to parse."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class EngineInvariantError(SpbwError):
    """An internal cross-check failed.

    This always indicates a bug in the engine, never a fact about the
    mathematics of the instance under test.
    """
