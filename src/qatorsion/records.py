"""The base of the package's immutable records.

A record's fields are the names annotated in its class body, in order,
and a class-level value is that field's default.  This is what
`dataclasses.dataclass(frozen=True)` provides, without importing
`dataclasses` (and the `inspect`, `ast` and `dis` it pulls in) or
generating code for each class when the package is imported.
"""

from __future__ import annotations


class Record:
    """Built positionally or by keyword, then checked by `__post_init__`;
    fields cannot be reassigned; `==`, `hash` and `repr` are field-wise."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        # One attribute at a time, as a dataclass does, not through
        # `self.__dict__`: a materialised instance dict made every later
        # attribute read slower (`verdict` passes about 2% slower).
        for field, value in zip(self._fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    @classmethod
    def _arguments(cls, args, kwargs) -> list:
        """Every field's value, in order, from the arguments and defaults."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, "
                            f"got {len(args)}")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields or field in values:
                raise TypeError(f"{name}() got an unexpected or repeated "
                                f"argument {field!r}")
            values[field] = value
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        return [values[f] if f in values else cls._defaults[f] for f in fields]

    def __post_init__(self):
        pass

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
