"""Immutable records, the base of the package's value classes.

A record lists its fields in ``__slots__``; a slot named with a leading
underscore is private, outside equality, hashing and the repr, as is every
slot of a base that is not a record.  A class whose field is a view computed
from private slots names its fields in ``_fields`` instead, as the
polynomial classes do over the stored form of ``exact_algebra._Poly``.
Assignment and deletion raise ``AttributeError``, so constructors set slots
with ``object.__setattr__``.  No code is generated at import time.

A record with no ``__init__`` of its own binds its arguments to its fields
as a dataclass does: by position, then by keyword, the trailing fields
defaulting to the class's ``_defaults``; a missing, extra or repeated
argument raises ``TypeError``.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls) -> None:
        slots = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._fields = cls.__dict__.get("_fields", slots)
        get = attrgetter(*cls._fields)
        # The field tuple, a 1-tuple for one field, as equality and the hash need.
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))
        cls._setters = tuple(getattr(cls, name).__set__ for name in slots)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._setters):
            args = self._bind(args, kwargs)
        self._init(*args)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call with ``args`` and ``kwargs``."""
        fields, name = cls._fields, f"{cls.__qualname__}.__init__()"
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields[len(fields) - len(cls._defaults) :], cls._defaults))
        values.update(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name} got an unexpected keyword argument {key!r}")
            if fields.index(key) < len(args):
                raise TypeError(f"{name} got multiple values for argument {key!r}")
            values[key] = value
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name} missing required arguments: {', '.join(missing)}")
        return tuple(values[key] for key in fields)

    def _init(self, *values) -> None:
        """Set the public slots, in order, to ``values``."""
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # copy and pickle restore a record through here, from (None, {slot: value}).
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
