"""Errors raised by the SPARQLT front end."""

from __future__ import annotations


class SparqltError(Exception):
    """Base class for SPARQLT language errors."""


class LexError(SparqltError):
    """Malformed token in the query text."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SparqltError):
    """The token stream does not form a valid SPARQLT query."""


class EvaluationError(SparqltError):
    """A filter expression could not be evaluated: over one binding (the
    filter then rejects that row), or at all — it names a variable no
    pattern of the query binds, which parsing refuses."""
