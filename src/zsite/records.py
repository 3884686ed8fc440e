"""Base classes of the package's records.

Records are plain classes with written-out constructors.  A record's fields
are the parameters of its ``__init__``, which stores each once through
``vars(self)``, out of the assignment guard's sight;
``functools.cached_property`` writes to the same instance dict, so cached
lookups work on frozen records too.
"""


class Record:
    """Frozen record compared by identity: assignment raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Record):
    """Frozen record that compares and hashes by the tuple of its fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())
