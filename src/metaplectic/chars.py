"""Finite parameter algebra for tame smooth characters of Qp^*.

A tame character is determined by its value at p (a nonzero field
element) and a power of the mod-p cyclotomic character omega on units.
Only tamely ramified characters are representable; every character that
the classification machinery consumes factors through this family, and
wildly ramified input is rejected at parse time.

The subgroup S of squares in Qp^* is generated by p^2 and the squares of
units; a character of S is therefore a value at p^2 together with a tame
exponent mod (p-1)/2.  H is the diagonal torus of GL2(F_p); its
characters are pairs of omega-exponents mod p-1.
"""

from __future__ import annotations

from .record import Record

__all__ = [
    "TameChar",
    "SChar",
    "HChar",
    "char_restrict_S",
    "quadratic_chars",
]


class TameChar(Record):
    """A tame character of Qp^*: unram = value at p, omega^tame on units."""

    __slots__ = ("unram", "tame")

    def __init__(self, unram, tame):
        if unram.is_zero():
            raise ValueError("unram must be nonzero")
        self.unram = unram
        self.tame = tame % (unram.spec.p - 1)

    @property
    def spec(self):
        return self.unram.spec

    @classmethod
    def trivial(cls, spec):
        return cls(spec.one(), 0)

    def mul(self, other):
        chi = object.__new__(TameChar)  # a product of nonzero values is nonzero
        chi.unram = unram = self.unram * other.unram
        chi.tame = (self.tame + other.tame) % (unram.spec.p - 1)
        return chi

    def value_at_unit(self, c):
        """The value at an integer unit c: omega(c)^tame."""
        spec = self.spec
        if c % spec.p == 0:
            raise ValueError("not a unit")
        return spec.from_int(pow(c % spec.p, self.tame, spec.p))


class SChar(Record):
    """A tame character of S (the squares): value at p^2, exponent mod (p-1)/2."""

    __slots__ = ("val_p2", "tame")

    def __init__(self, val_p2, tame):
        if val_p2.is_zero():
            raise ValueError("val_p2 must be nonzero")
        self.val_p2 = val_p2
        self.tame = tame % ((val_p2.spec.p - 1) // 2)

    @property
    def spec(self):
        return self.val_p2.spec

    def is_trivial(self):
        return self.val_p2.is_one() and self.tame == 0

    def sort_key(self):
        return (self.tame, self.val_p2.coeffs)


class HChar(Record):
    """A character omega^{e1} (x) omega^{e2} of the torus of GL2(F_p)."""

    __slots__ = ("p", "e1", "e2")

    def __init__(self, p, e1, e2):
        self.p = p
        self.e1 = e1 % (p - 1)
        self.e2 = e2 % (p - 1)

    def bracket(self, i, j):
        half = (self.p - 1) // 2
        return HChar(self.p, self.e1 + i * half, self.e2 + j * half)

    def swap(self):
        return HChar(self.p, self.e2, self.e1)


def char_restrict_S(chi):
    """Restriction of a tame character of Qp^* to the squares S."""
    psi = object.__new__(SChar)  # the square of a nonzero value is nonzero
    psi.val_p2 = val = chi.unram ** 2
    psi.tame = chi.tame % ((val.spec.p - 1) // 2)
    return psi


def quadratic_chars(spec):
    """The 4 characters of order dividing 2: 1, mu_{-1}, omega^{(p-1)/2}, product."""
    p = spec.p
    one = spec.one()
    minus = spec.from_int(-1)
    half = (p - 1) // 2
    return [
        TameChar(one, 0),
        TameChar(minus, 0),
        TameChar(one, half),
        TameChar(minus, half),
    ]

