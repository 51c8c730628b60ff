"""Immutable result records, defined without generated code.

Every CLI call imports all of qnl, so what a class costs to define, every
call pays.  Generating a record's methods at import, as the standard
library's frozen record decorator does, cost each call about 7 ms for
qnl's 16 records.  So qnl defines no class by code generation.  A record
that needs no checks of its own and may behave as a tuple is a NamedTuple
(criteria.MarginPolynomials, bell.MinimizeResult).  Every other record is
a Record subclass that lists its fields, in order, as __slots__, and whose
own __init__ checks them once per construction and stores each with
set_field.  Fields named in _hidden (the arrays) are left out of repr.
Records compare equal when their fields do, arrays by value.
"""

import numpy as np

set_field = object.__setattr__


def _same(a, b) -> bool:
    """Field equality as a tuple compares fields, arrays by value."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class Record:
    __slots__ = ()
    _hidden = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_same, self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__
                          if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle construct anew, checks included
        return type(self), self._values()
