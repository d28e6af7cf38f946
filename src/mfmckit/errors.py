"""Exception taxonomy and frozen record base shared by all toolkit modules."""

from __future__ import annotations


class Record:
    """Base of the package's frozen value types.

    A subclass's annotations, in order, are its fields (_fields); a class
    attribute is that field's default.  Each subclass compiles an
    __init__ that sets the fields and then calls __post_init__, if the
    class has one, and __eq__ and __hash__ over the tuple of its fields
    less those named in _hidden, which repr leaves out too.  Fields are
    set only through object.__setattr__."""

    _fields = _hidden = ()

    def __init_subclass__(cls):
        names = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = [n for n in names if n in cls.__dict__]
        ns = {"_set": object.__setattr__, **{f"_d_{n}": cls.__dict__[n] for n in defaults}}
        compared = [n for n in names if n not in cls._hidden]
        mine, theirs = ("(%s)" % "".join(f"{obj}.{n}, " for n in compared)
                        for obj in ("self", "other"))
        exec("\n".join([
            "def __init__(self, %s):" % ", ".join(
                f"{n}=_d_{n}" if n in defaults else n for n in names),
            *(f"  _set(self, {n!r}, {n})" for n in names),
            "  self.__post_init__()" if hasattr(cls, "__post_init__") else "",
            "def __eq__(self, other):",
            f"  return {mine} == {theirs} if other.__class__ is self.__class__ else NotImplemented",
            f"def __hash__(self): return hash({mine})",
        ]), ns)
        cls.__init__, cls.__eq__, cls.__hash__ = ns["__init__"], ns["__eq__"], ns["__hash__"]

    @classmethod
    def _trusted(cls, *values):
        """An instance holding one value per field, in order, as given:
        __post_init__ does not run, so only values the package built and
        knows to be canonical may come here, never input."""
        self = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(self, name, value)
        return self

    def __repr__(self):
        shown = (f"{n}={getattr(self, n)!r}" for n in self._fields if n not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
    """A clutter fact or symbolic power was requested for a non-square-free ideal."""


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
