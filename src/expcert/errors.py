"""Exception hierarchy shared by every module.

All library errors derive from ExpcertError so CLI code can catch one type
and translate it into an exit code.
"""

from __future__ import annotations


class ExpcertError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ExpcertError):
    """Malformed input text.

    Carries the 1-based line number of the offending token, when known, so
    CLI diagnostics can point at the file location.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message + ("" if line is None else f" (line {line})"))


class ValidationError(ExpcertError):
    """Structurally well-formed input violating a semantic invariant."""


class DimensionMismatch(ExpcertError):
    """Vector/matrix/system dimensions are incompatible."""


class SingularMatrix(ExpcertError):
    """Linear solve met a non-invertible (or numerically singular) matrix."""


class ExactModeUnsupported(ExpcertError):
    """Operation requires floating arithmetic (e.g. evaluating sin of a nonzero rational)."""


class NotCertified(ExpcertError):
    """A predicate needing a certified approximate solution got an uncertified one."""


class PreconditionFailed(ExpcertError):
    """A documented precondition of an operation does not hold."""


class NotRealMap(ExpcertError):
    """System data fails the syntactic all-real check required for realness tests."""
