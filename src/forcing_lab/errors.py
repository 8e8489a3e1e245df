"""Shared bases of every layer: the exception base the CLI maps to exit
codes, and the immutable value base of the package's data types."""


class ForcingLabError(Exception):
    """Base class for all structured errors raised by this package."""


class FrozenValue:
    """Immutable value whose fields are named, in order, by `_fields`.

    The fields drive a positional constructor, equality with values of the
    same type only, a hash of the field values (TypeError when one is
    unhashable), and a repr in the form Name(field=value, ...).  Setting or
    deleting an attribute raises AttributeError.  A type that checks or
    converts its input defines its own __init__ and passes the final field
    values to FrozenValue.__init__.  Attributes outside the fields, such as
    a functools.cached_property, live in the instance dict and take no part
    in equality, hash or repr.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} arguments, got {len(values)}")
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
