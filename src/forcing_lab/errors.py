"""Shared bases of every layer: the exception base the CLI maps to exit
codes, and the immutable value base of the package's data types."""


class ForcingLabError(Exception):
    """Base class for all structured errors raised by this package."""


class FrozenValue:
    """Immutable value whose fields are the names its class annotates, in
    order (the class's own annotations only; they are read, never evaluated).

    The fields drive a positional constructor, equality with values of the
    same type only, a hash of the field values (TypeError when one is
    unhashable), and a repr in the form Name(field=value, ...).  A trailing
    field the class body assigns (u: tuple = ()) takes that value when the
    caller leaves it out; any other missing or extra argument is a
    TypeError.  Setting or deleting an attribute raises AttributeError.  A
    type that checks or converts its input defines its own __init__ and
    passes the final field values to FrozenValue.__init__.  Attributes
    outside the fields, such as a functools.cached_property, live in the
    instance dict and take no part in equality, hash or repr.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            values += self._defaults(len(values))
        self.__dict__.update(zip(self._fields, values))

    @classmethod
    def _defaults(cls, given: int) -> tuple:
        """The class-body values of the fields after the first `given`."""
        missing = cls._fields[given:]
        if not missing or not all(map(cls.__dict__.__contains__, missing)):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} arguments, got {given}")
        return tuple(map(cls.__dict__.__getitem__, missing))

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
