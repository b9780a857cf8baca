"""Immutable records as named tuples, checked on every construction path.

A record subclasses a :func:`record` named tuple with ``__slots__ = ()``
and, where its fields need checking, a ``__new__`` that checks them.
Records compare and hash by value (a record equals the plain tuple of its
fields), print as ``Name(field=value, ...)``, copy with ``_replace`` and
convert with ``_asdict``.  Unlike frozen dataclasses they need neither
dataclasses nor its inspect, so no ``triconc`` command pays at start-up
for importing those or for building its records' classes through them.
"""

from __future__ import annotations

import operator
from collections import namedtuple

__all__ = ["integer", "record"]


def record(typename: str, field_names: str) -> type:
    """namedtuple(typename, field_names), whose _make builds through
    cls(*fields).

    namedtuple's own _make, and so _replace, calls tuple.__new__ directly
    and would skip a subclass's __new__; routed through cls, every copy
    is checked as the constructor checks it."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base


def integer(name: str, value: object) -> int:
    """value as a plain int, or ValueError naming the field name."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
