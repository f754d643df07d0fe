"""The two-fold metaplectic cover of GL2(Qp) as executable arithmetic.

Matrices are 2x2 with exact rational entries (p-power denominators are
the typical case; any denominator coprime to p is a p-adic unit and is
handled the same way), held as four integers over one positive denominator
(see PMatrix).  The cover is the set G x {+-1} with multiplication twisted
by the quadratic-Hilbert-symbol 2-cocycle

    sigma(g1, g2) = ( c(g1 g2)/c(g1), c(g1 g2)/c(g2) * det(g1) ),

where c([[a,b],[c,d]]) = c if c != 0 else d.

Every symbol here reads a nonzero rational x = p^v u through one split
(v, e): the valuation v and the square class e = omega(u)^{(p-1)/2} in
{+1, -1} of the unit part u.  With eps = (-1)^{(p-1)/2} = omega(-1)^{(p-1)/2},
the Hilbert symbol is the closed form

    (a, b) = eps^{v(a) v(b)} * e(a)^{v(b)} * e(b)^{v(a)},

which is omega((-1)^{v(a) v(b)} * b^{v(a)} / a^{v(b)})^{(p-1)/2} read off
the splits, with no power of a rational formed.  The split is multiplicative
(v adds, e multiplies) and sees only square classes, so a rational n/d reads
as the integer n d.  `cocycle` reads c(g1 g2) off the product's lower row as
an integer over den1 den2 and takes one symbol of two integers in the
quotients' square classes: it forms no matrix and no Fraction.

Convention: omega, read as a character of Qp^* via the class-field
normalization sending p to a (geometric) Frobenius, takes the value 1 at
p.  This pins chi_z, and the identity chi_z(x) = (z, x) is enforced by
the test suite rather than assumed.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

from .record import Record

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
    "frac_str",
]


def _strip(n, p):
    """(k, n / p^k) for the largest k with p^k dividing the nonzero int n."""
    k = 0
    while n % p == 0:
        q, j = p, 1
        while n % q == 0:  # p, p^2, p^4, ... while they divide
            n //= q
            k += j
            q, j = q * q, j + j
    return k, n


def _rational(x, zero="nonzero required"):
    """x as an int or a Fraction, which both carry .numerator and .denominator."""
    x = x if type(x) is int or type(x) is Fraction else Fraction(x)
    if not x:
        raise ValueError(zero)
    return x


def _split(x, p):
    """(v, e) for a nonzero rational x = p^v u: its valuation v and the
    square class e = omega(u)^{(p-1)/2} in {+1, -1} of its unit part u."""
    x = _rational(x)
    n, d = x.numerator, x.denominator
    vn, n = _strip(n, p)
    vd, d = _strip(d, p)
    # n/d and n*d have one square class, as d^2 is a square
    return vn - vd, 1 if pow(n % p * d % p, (p - 1) // 2, p) == 1 else -1


def vp(x, p):
    """p-adic valuation of a nonzero rational."""
    return _split(x, p)[0]


def _int_symbol(x, y, p):
    """The Hilbert symbol (x, y) of nonzero ints: with x = p^a u and y = p^b t,
    eps^{ab} e(u)^b e(t)^a, each e read only where its exponent is odd."""
    a, x = _strip(x, p)
    b, y = _strip(y, p)
    h = (p - 1) // 2  # eps = (-1)^h
    odd = (a & b & h) + (b & 1 and pow(x % p, h, p) != 1) + (a & 1 and pow(y % p, h, p) != 1)
    return -1 if odd & 1 else 1


def hilbert(a, b, p):
    """The quadratic Hilbert symbol (a, b) in {+1, -1}: a rational n/d has
    the valuation parity and the square class of the int n d."""
    a, b = _rational(a), _rational(b)
    return _int_symbol(a.numerator * a.denominator, b.numerator * b.denominator, p)


def _reduced(na, nb, nc, nd, den):
    """The PMatrix (na, nb; nc, nd) / den, den > 0, divided by its content."""
    g = object.__new__(PMatrix)
    k = gcd(na, nb, nc, nd, den)
    if k != 1:
        na, nb, nc, nd, den = na // k, nb // k, nc // k, nd // k, den // k
    g.na, g.nb, g.nc, g.nd, g.den = na, nb, nc, nd, den
    return g


class PMatrix(Record):
    """An invertible 2x2 matrix over Q: ints na, nb, nc, nd over den > 0 with content
    gcd(na, nb, nc, nd, den) = 1, so equal matrices have equal slots; `Fraction` only at the edge."""

    __slots__ = ("na", "nb", "nc", "nd", "den")

    def __init__(self, a, b, c, d):
        # an int, like a Fraction, carries .numerator and .denominator
        ents = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in (a, b, c, d)]
        # over the lcm of reduced denominators the content is already 1
        self.den = den = lcm(*(x.denominator for x in ents))
        self.na, self.nb, self.nc, self.nd = (x.numerator * (den // x.denominator) for x in ents)
        if self.na * self.nd == self.nb * self.nc:
            raise ValueError("singular matrix")

    a = property(lambda self: Fraction(self.na, self.den))
    b = property(lambda self: Fraction(self.nb, self.den))
    c = property(lambda self: Fraction(self.nc, self.den))
    d = property(lambda self: Fraction(self.nd, self.den))
    det = property(lambda self: Fraction(self.na * self.nd - self.nb * self.nc, self.den * self.den))

    def __mul__(self, other):
        a, b, c, d = self.na, self.nb, self.nc, self.nd
        e, f, u, w = other.na, other.nb, other.nc, other.nd
        return _reduced(a * e + b * u, a * f + b * w, c * e + d * u, c * f + d * w, self.den * other.den)

    def inv(self):
        den, det = self.den, self.na * self.nd - self.nb * self.nc
        if det < 0:
            den, det = -den, -det
        return _reduced(self.nd * den, -self.nb * den, -self.nc * den, self.na * den, det)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    @staticmethod
    def scalar(z):
        z = _rational(z, "singular matrix")
        return _reduced(z.numerator, 0, 0, z.numerator, z.denominator)

    def __repr__(self):
        a, b, c, d = map(frac_str, self.entries())
        return f"PMatrix[[{a}, {b}], [{c}, {d}]]"


def frac_str(x):
    """The Fraction x as "n" or "n/d" at any length: Decimal prints an int of
    any size, where str stops at sys.get_int_max_str_digits()."""
    n, d = Decimal(x.numerator), Decimal(x.denominator)
    return str(n) if d == 1 else f"{n}/{d}"


class MetaElem(Record):
    """An element (g, zeta) of the cover; zeta in {+1, -1}."""

    __slots__ = ("g", "zeta")

    def __init__(self, g, zeta):
        if zeta not in (1, -1):
            raise ValueError("zeta must be +1 or -1")
        self.g = g
        self.zeta = zeta


def cocycle(g1, g2, p):
    """The 2-cocycle sigma(g1, g2) in {+1, -1}: with c(g1 g2) = n / (den1 den2),
    c(gi) = ci / deni and det(g1) = D / den1^2, one symbol of two integers in
    the square classes of n / (c1 den2) and n D / (c2 den1^3), which differ
    from them by the squares (c1 den2)^2 and (c2 den1^2)^2."""
    n = g1.nc * g2.na + g1.nd * g2.nc
    if not n:
        n = g1.nc * g2.nb + g1.nd * g2.nd
    D = g1.na * g1.nd - g1.nb * g1.nc
    return _int_symbol(n * (g1.nc or g1.nd) * g2.den, n * D * (g2.nc or g2.nd) * g1.den, p)


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
    det = g.na * g.nd - g.nb * g.nc
    # the content is 1: g is integral iff p does not divide den, and then
    # det = (na nd - nb nc) / den^2 is a unit iff p does not divide na nd - nb nc
    if g.den % p == 0 or det % p == 0:
        raise ValueError("not in K")
    if g.nc and g.nc % p == 0:  # then ad = det + bc is a unit, so d != 0
        # c = nc / den and d / det = nd den / (na nd - nb nc), up to squares
        return MetaElem(g, zeta * _int_symbol(g.nc * g.den, g.nd * g.den * det, p))
    return MetaElem(g, zeta)


class QuadCharParams(Record):
    """An order <= 2 character of Qp^*: sign at p and tame omega-power."""

    __slots__ = ("unram", "tame")

    def __init__(self, unram, tame):
        if unram not in (1, -1):
            raise ValueError("unram must be +1 or -1")
        self.unram = unram
        self.tame = tame  # exponent of omega on units, 0 or (p-1)/2


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
