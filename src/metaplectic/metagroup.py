"""The two-fold metaplectic cover of GL2(Qp) as executable arithmetic.

Matrices are 2x2 with exact rational entries (p-power denominators are
the typical case; any denominator coprime to p is a p-adic unit and is
handled the same way).  The cover is the set G x {+-1} with multiplication
twisted by the quadratic-Hilbert-symbol 2-cocycle

    sigma(g1, g2) = ( c(g1 g2)/c(g1), c(g1 g2)/c(g2) * det(g1) ),

where c([[a,b],[c,d]]) = c if c != 0 else d.

Every symbol here reads a nonzero rational x = p^v u through one split
(v, e): the valuation v and the square class e = omega(u)^{(p-1)/2} in
{+1, -1} of the unit part u.  With eps = (-1)^{(p-1)/2} = omega(-1)^{(p-1)/2},
the Hilbert symbol is the closed form

    (a, b) = eps^{v(a) v(b)} * e(a)^{v(b)} * e(b)^{v(a)},

which is omega((-1)^{v(a) v(b)} * b^{v(a)} / a^{v(b)})^{(p-1)/2} read off
the splits, with no power of a rational formed.  The split is multiplicative
(v adds, e multiplies), so `cocycle` splits c(g1 g2), read off the product's
lower row as an unreduced integer pair, and forms no matrix and no quotient.

Convention: omega, read as a character of Qp^* via the class-field
normalization sending p to a (geometric) Frobenius, takes the value 1 at
p.  This pins chi_z, and the identity chi_z(x) = (z, x) is enforced by
the test suite rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

__all__ = [
    "PMatrix",
    "MetaElem",
    "QuadCharParams",
    "vp",
    "hilbert",
    "cocycle",
    "meta_mul",
    "meta_inv",
    "kappa_split",
    "chi_z",
    "quadchar_eval",
    "is_square_qp",
]


def _strip(n, p):
    """(k, n / p^k) for the largest k with p^k dividing the nonzero int n."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def _split_nd(n, d, p):
    """(v, e) of n/d for nonzero ints n and d, which need not be coprime."""
    vn, n = _strip(n, p)
    vd, d = _strip(d, p)
    # n/d and n*d have one square class, as d^2 is a square
    return vn - vd, 1 if pow(n % p * (d % p), (p - 1) // 2, p) == 1 else -1


def _split(x, p):
    """(v, e) for a nonzero rational x = p^v u: its valuation v and the
    square class e = omega(u)^{(p-1)/2} in {+1, -1} of its unit part u."""
    if type(x) is not Fraction:
        x = Fraction(x)
    if not x:
        raise ValueError("nonzero required")
    return _split_nd(x.numerator, x.denominator, p)


def vp(x, p):
    """p-adic valuation of a nonzero rational."""
    return _split(x, p)[0]


def _symbol(va, ea, vb, eb, p):
    """The Hilbert symbol (a, b) from the splits (va, ea) of a and (vb, eb) of b."""
    eps = 1 if p % 4 == 1 else -1
    return eps ** (va * vb % 2) * ea ** (vb % 2) * eb ** (va % 2)


def hilbert(a, b, p):
    """The quadratic Hilbert symbol (a, b) in {+1, -1}."""
    return _symbol(*_split(a, p), *_split(b, p), p)


def _pair(x, y, z, w):
    """x*y + z*w for Fractions as an unreduced (numerator, denominator) pair."""
    d1 = x.denominator * y.denominator
    d2 = z.denominator * w.denominator
    return x.numerator * y.numerator * d2 + z.numerator * w.numerator * d1, d1 * d2


class PMatrix:
    """An invertible 2x2 matrix over Q with exact rational entries."""

    __slots__ = ("a", "b", "c", "d", "det")

    def __init__(self, a, b, c, d):
        a, b, c, d = (x if type(x) is Fraction else Fraction(x) for x in (a, b, c, d))
        det = Fraction(*_pair(a, d, -b, c))
        if det == 0:
            raise ValueError("singular matrix")
        self.a, self.b, self.c, self.d, self.det = a, b, c, d, det

    @classmethod
    def _known(cls, a, b, c, d, det):
        """The matrix of Fractions a, b, c, d whose nonzero det is known."""
        g = object.__new__(cls)
        g.a, g.b, g.c, g.d, g.det = a, b, c, d, det
        return g

    def __mul__(self, other):
        return PMatrix._known(
            Fraction(*_pair(self.a, other.a, self.b, other.c)),
            Fraction(*_pair(self.a, other.b, self.b, other.d)),
            Fraction(*_pair(self.c, other.a, self.d, other.c)),
            Fraction(*_pair(self.c, other.b, self.d, other.d)),
            self.det * other.det,
        )

    def inv(self):
        det = self.det
        return PMatrix._known(self.d / det, -self.b / det, -self.c / det, self.a / det, 1 / det)

    def cc(self):
        """The lower-left entry if nonzero, else the lower-right one."""
        return self.c or self.d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @classmethod
    def scalar(cls, z):
        return cls(z, 0, 0, z)

    def __eq__(self, other):
        return isinstance(other, PMatrix) and self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"PMatrix[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    def to_json(self):
        return [[_frac_str(self.a), _frac_str(self.b)], [_frac_str(self.c), _frac_str(self.d)]]


def _frac_str(x):
    # Decimal prints an int of any length; str stops at sys.get_int_max_str_digits()
    n, d = Decimal(x.numerator), Decimal(x.denominator)
    return str(n) if d == 1 else f"{n}/{d}"


@dataclass(frozen=True)
class MetaElem:
    """An element (g, zeta) of the cover; zeta in {+1, -1}."""

    g: PMatrix
    zeta: int

    def __post_init__(self):
        if self.zeta not in (1, -1):
            raise ValueError("zeta must be +1 or -1")


def cocycle(g1, g2, p):
    """The 2-cocycle sigma(g1, g2) in {+1, -1}."""
    n, d = _pair(g1.c, g2.a, g1.d, g2.c)
    if not n:
        n, d = _pair(g1.c, g2.b, g1.d, g2.d)
    v, e = _split_nd(n, d, p)
    v1, e1 = _split(g1.cc(), p)
    v2, e2 = _split(g2.cc(), p)
    vdet, edet = _split(g1.det, p)
    return _symbol(v - v1, e * e1, v + vdet - v2, e * edet * e2, p)


def meta_mul(x, y, p):
    """(g1, z1) * (g2, z2) = (g1 g2, z1 z2 sigma(g1, g2))."""
    return MetaElem(x.g * y.g, x.zeta * y.zeta * cocycle(x.g, y.g, p))


def meta_inv(x, p):
    """The inverse in the cover."""
    ginv = x.g.inv()
    return MetaElem(ginv, x.zeta * cocycle(x.g, ginv, p))


def kappa_split(g, zeta, p):
    """The fixed splitting K x {+-1} -> K~ over the maximal compact.

    Requires integral entries (p-adic sense) and unit determinant; twists
    the sign by (c, d det(g)^{-1}) exactly when c lies in pZp - {0}.
    """
    c, d, det = g.c, g.d, g.det
    # Fractions are reduced: g is integral iff p divides no denominator, and
    # then det is a unit iff p does not divide its numerator
    if any(x.denominator % p == 0 for x in g.entries()) or det.numerator % p == 0:
        raise ValueError("not in K")
    if c and c.numerator % p == 0:  # then ad = det + bc is a unit, so d != 0
        d_det = _split_nd(d.numerator * det.denominator, d.denominator * det.numerator, p)
        return MetaElem(g, zeta * _symbol(*_split(c, p), *d_det, p))
    return MetaElem(g, zeta)


@dataclass(frozen=True)
class QuadCharParams:
    """An order <= 2 character of Qp^*: sign at p and tame omega-power."""

    unram: int
    tame: int  # exponent of omega on units, 0 or (p-1)/2

    def __post_init__(self):
        if self.unram not in (1, -1):
            raise ValueError("unram must be +1 or -1")


def chi_z(z, p):
    """The quadratic character attached to a central element z.

    On units u it is omega(u)^{v(z)(p-1)/2}; at p it takes the value
    ((-1)^{v(z)} omega(unit part of z))^{(p-1)/2} under omega(p) = 1.
    """
    v, e = _split(z, p)
    eps = 1 if p % 4 == 1 else -1
    return QuadCharParams(eps ** (v % 2) * e, v * (p - 1) // 2 % (p - 1))


def quadchar_eval(q, x, p):
    """Evaluate a QuadCharParams at a nonzero rational; result in {+1,-1}."""
    v, e = _split(x, p)
    return q.unram ** (v % 2) * (e if q.tame % (p - 1) else 1)


def is_square_qp(z, p):
    """Whether a nonzero rational is a square in Qp (p odd)."""
    v, e = _split(z, p)
    return v % 2 == 0 and e == 1
