"""Record classes that generate no code when their module is imported.

Plain records are typing.NamedTuples.  A record that checks its input, or
stores a converted form of it, subclasses Record: it names its fields in
__slots__, and its __init__ checks the values and stores them with _set.
A Record compares and hashes by its field values (equal only to a record of
its own class), refuses assignment and deletion with AttributeError, and
prints as Name(field=value, ...).
"""


class Record:
    __slots__ = ()

    def _set(self, *values):
        """Store one value per field, in __slots__ order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
