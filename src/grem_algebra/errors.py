"""Exception hierarchy shared by the whole engine."""

from __future__ import annotations


class GremAlgebraError(Exception):
    """Base class for all engine errors."""


class GraphFormatError(GremAlgebraError):
    """Raised when a graph file is malformed or violates a graph invariant."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class ParseError(GremAlgebraError):
    """Raised by the tokenizer/parser; always carries a source position."""

    def __init__(self, message: str, pos: int, line: int, col: int):
        self.pos = pos
        self.line = line
        self.col = col
        super().__init__(f"{message} at line {line}, column {col}")


class CompileError(GremAlgebraError):
    """Raised when an accepted traversal cannot be mapped to the algebra."""


class EvaluationError(GremAlgebraError):
    """Raised for runtime errors during plan evaluation."""
