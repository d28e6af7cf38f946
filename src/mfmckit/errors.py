"""Exception taxonomy shared by all toolkit modules."""

from __future__ import annotations


class MfmcError(Exception):
    """Base class for every error raised by this package."""


class NotZeroOne(MfmcError):
    """A matrix entry outside {0, 1} where a clutter was required."""

    def __init__(self, row: int, col: int, value: int, line: int = None):
        self.row, self.col, self.value, self.line = row, col, value, line
        at = "" if line is None else f"line {line}: "
        super().__init__(f"{at}entry {value} at row {row}, column {col} is not 0/1")


class NotAntichain(MfmcError):
    """One generator divides another, violating minimal generation."""

    def __init__(self, smaller, larger):
        self.smaller, self.larger = smaller, larger
        super().__init__(f"generator {smaller} divides generator {larger}")


class EmptyEdge(MfmcError):
    """A zero exponent vector (vertex-free edge) was supplied."""


class OverlappingSpec(MfmcError):
    """A minor specification names a vertex as both zero and one."""


class SizeLimit(MfmcError):
    """A configured enumeration cap was exceeded."""

    def __init__(self, stage: str, needed: int, cap: int):
        self.stage, self.needed, self.cap = stage, needed, cap
        super().__init__(f"{stage}: needs {needed} states, cap is {cap}")


class ZeroCone(MfmcError):
    """No non-zero generators were given for a cone."""


class ClassificationError(MfmcError):
    """A Rees cone facet normal does not fit the coordinate/vertex split."""


class NotSquareFree(MfmcError):
    """Symbolic powers were requested for a non-square-free ideal."""


class InconsistencyError(MfmcError):
    """Two routes that must agree produced different answers (a bug)."""


class ParseError(MfmcError):
    """Malformed input text."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnsupportedMode(ParseError):
    """An input mode other than the Rees-algebra mode."""


class DimensionMismatch(ParseError):
    """Row or column counts disagree with the declared header."""
