"""Frozen record classes, built without ``dataclasses``.

``@record`` (or ``@record(slots=True)``) turns a class body of annotated
fields into an immutable record.  It gives exactly the part of
``@dataclass(frozen=True[, slots=True])`` that covwalk uses:

- ``__init__`` taking the fields in order, positionally or by keyword, with
  their defaults, and calling ``__post_init__`` when the class defines one;
- ``==`` between instances of the same class, comparing the field tuples;
- ``hash`` of the field tuple;
- ``Name(field=value!r, ...)`` as the repr, unless the class defines its own;
- assignment or deletion raising ``FrozenRecordError`` (an AttributeError);
- ``__slots__`` with ``slots=True``, an instance ``__dict__`` otherwise.

Anything else (a base class, ``dataclasses.field()``, a ``ClassVar``, a
field without default after one with, or an own ``__eq__``, ``__hash__``,
``__setattr__`` or ``__delattr__``) raises TypeError.  On Python 3.11
``dataclasses`` compiles each generated method with its own ``exec`` and
imports ``inspect``; here each class compiles only its ``__init__``, and the
other methods are shared functions.
"""

from __future__ import annotations

import sys
from operator import attrgetter

_OWN = ("__eq__", "__hash__", "__setattr__", "__delattr__")


class FrozenRecordError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


def _setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _eq(self, other):
    if other.__class__ is self.__class__:
        key = self.__record_key__
        return key(self) == key(other)
    return NotImplemented


def _hash(self):
    return hash(self.__record_key__(self))


def _repr(self):
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__record_fields__)
    return f"{self.__class__.__qualname__}({fields})"


def _key(names: tuple[str, ...]):
    """The field tuple of an instance (attrgetter gives a bare value for one
    name and refuses none)."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def record(cls=None, /, *, slots: bool = False):
    """Class decorator: make ``cls`` a frozen record (see the module doc)."""
    if cls is None:
        return lambda c: _build(c, slots)
    return _build(cls, slots)


def _build(cls, slots: bool):
    name = cls.__qualname__
    if cls.__bases__ != (object,):
        raise TypeError(f"record {name} cannot have a base class")
    ns = dict(cls.__dict__)
    own = [m for m in _OWN if m in ns]
    if own:
        raise TypeError(f"record {name} cannot define {', '.join(own)}")
    dc = sys.modules.get("dataclasses")  # a field() exists only once it is loaded
    names: list[str] = []
    defaults: list[object] = []
    for field, ann in ns.get("__annotations__", {}).items():
        text = ann if isinstance(ann, str) else repr(ann)
        if "ClassVar" in text.split("[", 1)[0]:
            raise TypeError(f"record {name}.{field}: ClassVar is not supported")
        if field in ns:
            if dc is not None and isinstance(ns[field], dc.Field):
                raise TypeError(f"record {name}.{field}: field() is not supported")
            defaults.append(ns[field])
        elif defaults:
            raise TypeError(f"record {name}.{field}: no default after a default")
        names.append(field)
    fields = tuple(names)

    body = [f"    _set(self, {n!r}, {n})" for n in fields]
    if "__post_init__" in ns:
        body.append("    self.__post_init__()")
    src = f"def __init__(self, {', '.join(fields)}):\n" + ("\n".join(body) or "    pass")
    scope = {"_set": object.__setattr__, "__name__": cls.__module__}
    exec(src, scope)
    init = scope["__init__"]
    init.__defaults__ = tuple(defaults) or None
    init.__qualname__ = f"{name}.__init__"

    if slots:
        for n in (*fields, "__dict__", "__weakref__"):
            ns.pop(n, None)
        ns["__slots__"] = fields
        cls = type(cls)(cls.__name__, cls.__bases__, ns)
        cls.__qualname__ = name
    cls.__init__ = init
    cls.__record_fields__ = fields
    cls.__record_key__ = staticmethod(_key(fields))
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    if "__repr__" not in ns:
        cls.__repr__ = _repr
    return cls
