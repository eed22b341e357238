"""Immutable record classes without generated code.

A record subclasses Record and lists its fields once, in order, as
``__slots__``; trailing fields may take defaults from ``_defaults``.  The
base supplies what the records need:

* construction by position or keyword, then an optional ``__post_init__``
  hook that may validate and fill derived fields with object.__setattr__;
* frozen fields: assignment and deletion raise FrozenInstanceError;
* value equality and hashing over the fields, against records of the
  same class only;
* a ``ClassName(field=value, ...)`` repr;
* ``replace(**changes)``, a copy with some fields changed.

A field whose name starts with an underscore is engine state riding along
with the value: it takes no part in equality, hashing or the repr.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["FrozenInstanceError", "Record"]


class FrozenInstanceError(AttributeError):
    """A field of a record was assigned or deleted."""


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        compared = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        cls._compared = compared
        cls._key = attrgetter(*compared)  # a tuple for two or more fields

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        put = object.__setattr__
        for field, value in zip(fields, args):
            put(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                put(self, field, kwargs.pop(field))
            elif field in self._defaults:
                put(self, field, self._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got unexpected or repeated arguments {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, field, value):
        raise FrozenInstanceError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise FrozenInstanceError(f"cannot delete field {field!r}")

    def replace(self, **changes):
        values = {f: getattr(self, f) for f in self.__slots__}
        values.update(changes)
        return type(self)(**values)
