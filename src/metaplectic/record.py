"""The one equality of the parameter records.

A record declares its fields in __slots__ and sets them in __init__,
normalised and checked there; a record derived from checked ones (a twist,
a product) is built by its module without __init__, normalised the same way
but not checked again.  Records of one class compare and hash
field by field; a record never equals a value of another class.
"""

from operator import attrgetter

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # _key: the tuple of the fields, read in C
        cls._key = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)
