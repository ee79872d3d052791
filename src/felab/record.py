"""Frozen value records: one set of methods shared by every record class, so that
defining a class generates and compiles no code. Fields come, in order, from the
class's own annotations and defaults from class attributes; __post_init__ runs
if defined; equality needs the same class. A class that defines no to_json gets
one that maps each field, in order, through jsonable."""

from typing import Any, Mapping

_MISSING = object()


def record(cls):
    cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
    cls._post_init = getattr(cls, "__post_init__", None)
    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = _init, _eq, _hash, _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    if "to_json" not in cls.__dict__:
        cls.to_json = _to_json
    return cls


def _init(self, *args, **kwargs):
    cls = type(self)
    if kwargs or len(args) != len(cls._fields):  # every field given by position needs no filling
        args += tuple(kwargs.pop(f) if f in kwargs else vars(cls).get(f, _MISSING)
                      for f in cls._fields[len(args):])
        if kwargs or len(args) > len(cls._fields) or _MISSING in args:
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
    # object.__setattr__ keeps the compact instance layout, so field reads stay fast
    for name, value in zip(cls._fields, args):
        object.__setattr__(self, name, value)
    if cls._post_init is not None:
        self.__post_init__()


def _values(self) -> tuple:
    return tuple([getattr(self, f) for f in self._fields])


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self):
    return hash(_values(self))


def _repr(self):
    inner = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, _values(self)))
    return f"{type(self).__qualname__}({inner})"


def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def _to_json(self) -> dict:
    return {f: jsonable(getattr(self, f)) for f in self._fields}


def jsonable(value: Any) -> Any:
    """Recursively coerce tuples/sets into deterministic JSON-friendly forms."""
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return [jsonable(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value
