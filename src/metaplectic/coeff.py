"""Exact arithmetic in the prime field F_p and its extensions F_{p^m}.

Elements of F_{p^m} are coefficient vectors over F_p reduced modulo a fixed
monic irreducible polynomial.  The modulus for a pair (p, m) is chosen
deterministically: monic degree-m polynomials are enumerated in counting
order (the polynomial X^m + c_{m-1} X^{m-1} + ... + c_0 has index
sum(c_j p^j), ascending) and the first irreducible one wins.  The
binomials X^m + c are skipped when none of them can be irreducible, which
changes no modulus.  This makes every serialized element reproducible
across runs.

The vector (a_0, ..., a_{m-1}) stands for a_0 + a_1 w + ... + a_{m-1} w^{m-1}
where w is the class of X.  The prime subfield embeds as constant vectors.

Addition is coordinate-wise.  Multiplication, inversion and powers in a
field of order q <= TABLE_MAX_ORDER go through a log/antilog table built on
the first such operation: g is the least primitive element in counting
order, log sends each coefficient vector to k with g^k equal to it (zero to
None) and exp lists g^0, ..., g^{q-2}, so a*b = exp[(log a + log b) % (q-1)]
returns an existing element.  Larger fields multiply polynomials modulo the
modulus and invert as a^(q-2).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "FieldSpec",
    "FieldElem",
    "field_make",
    "nth_roots",
    "omega_of_unit",
    "factorial_in",
    "is_prime",
]

# Fields up to this order get log/antilog tables (7^4 = 2401 and 13^3 = 2197
# fit).  A table costs q - 1 products to build, which a large field such as
# F_1000003 in `ss-image --p 1000003` would never earn back.
TABLE_MAX_ORDER = 4096


def is_prime(n):
    return n > 1 and _prime_factors(n) == [n]


# -- polynomial helpers over F_p; polynomials are tuples, index = degree --


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mulmod(a, b, modulus, p):
    if not a or not b:
        return ()
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem(prod, modulus, p)


def _poly_rem(a, modulus, p):
    a = list(a)
    dm = len(modulus) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        q = a[i]
        if q:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - q * modulus[j]) % p
    return _trim(a[:dm])


def _poly_powmod(a, e, modulus, p):
    result = (1,)
    base = _poly_rem(a, modulus, p)
    while e > 0:
        if e & 1:
            result = _poly_mulmod(result, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        lead_inv = pow(b[-1], p - 2, p)
        a, b = b, _poly_rem(a, tuple(c * lead_inv % p for c in b), p)
    return a


def _digits(idx, p, m):
    """The m base-p digits of idx, least significant first (counting order)."""
    coeffs = []
    for _ in range(m):
        coeffs.append(idx % p)
        idx //= p
    return tuple(coeffs)


def _prime_factors(n):
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return primes


def _is_irreducible(modulus, p):
    """Rabin's test for a monic f of degree m over F_p: f divides
    X^(p^m) - X, and gcd(X^(p^(m/q)) - X, f) = 1 for each prime q | m.
    Both conditions read the one chain X^(p^k) mod f, k = 0..m."""
    m = len(modulus) - 1
    chain = [_poly_rem((0, 1), modulus, p)]
    for _ in range(m):
        chain.append(_poly_powmod(chain[-1], p, modulus, p))
    if chain[m] != chain[0]:
        return False
    for q in _prime_factors(m):
        t = chain[m // q] + (0, 0)
        diff = (t[0], (t[1] - 1) % p) + t[2:]
        if len(_poly_gcd(diff, modulus, p)) != 1:
            return False
    return True


def _least_irreducible(p, m):
    """The first irreducible monic of degree m over F_p in counting order.

    The binomials X^m + c come first (indices below p).  None of them is
    irreducible when some prime of m does not divide p - 1, or when 4 | m
    and p = 3 mod 4 (Lidl-Niederreiter, Finite Fields, Thm 3.75); the
    search then starts past them, which changes no modulus.
    """
    binomials = all((p - 1) % q == 0 for q in _prime_factors(m)) and (m % 4 or p % 4 == 1)
    cands = (_digits(idx, p, m) + (1,) for idx in range(0 if binomials else p, p ** m))
    return next(f for f in cands if _is_irreducible(f, p))


class FieldSpec:
    """A finite field F_{p^m} with its fixed monic irreducible modulus.

    Shareable and never changed after construction, except that the
    log/antilog tables are filled in on first use; all element operations
    are pure.
    """

    __slots__ = ("p", "m", "modulus", "_one", "_zero", "_log", "_exp")

    def __init__(self, p, m):
        if p == 2 or not is_prime(p):
            raise ValueError("odd prime required")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.p, self.m, self.modulus = p, m, _least_irreducible(p, m)
        self._log = self._exp = None
        self._zero = FieldElem(self, (0,) * m)
        self._one = FieldElem(self, (1,) + (0,) * (m - 1))

    @property
    def order(self):
        return self.p ** self.m

    def elem(self, coeffs):
        return FieldElem(self, coeffs)

    def from_int(self, a):
        x = object.__new__(FieldElem)  # a % p is a residue: nothing to check
        x.spec, x.coeffs = self, (a % self.p,) + self._zero.coeffs[1:]
        return x

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def _tables(self):
        """The log dict of this field, built on first use; False above
        TABLE_MAX_ORDER.  The antilog list is left in self._exp."""
        log = self._log
        if log is not None:
            return log
        q, p, m, modulus = self.order, self.p, self.m, self.modulus
        if q > TABLE_MAX_ORDER:
            self._log = False
            return False
        n = q - 1
        primes = _prime_factors(n)
        for idx in range(2, q):
            g = _trim(_digits(idx, p, m))
            if all(_poly_powmod(g, n // ell, modulus, p) != (1,) for ell in primes):
                break
        log = {(0,) * m: None}
        exp = []
        x = (1,)
        for k in range(n):
            elem = FieldElem(self, x + (0,) * (m - len(x)))
            log[elem.coeffs] = k
            exp.append(elem)
            x = _poly_mulmod(x, g, modulus, p)
        self._exp, self._log = exp, log
        return log

    def nonzero_elements(self):
        """The nonzero field elements in counting order of coefficient
        vectors; index 0 is the zero vector."""
        p, m = self.p, self.m
        for idx in range(1, p ** m):
            yield FieldElem(self, _digits(idx, p, m))

    # the modulus is a function of (p, m), so (p, m) names the field
    def __eq__(self, other):
        return other is self or isinstance(other, FieldSpec) and self.p == other.p and self.m == other.m

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, m={self.m})"


_FIELD_CACHE = {}


def field_make(p, m=1):
    """The field F_{p^m}, built once per (p, m) and shared after that."""
    spec = _FIELD_CACHE.get((p, m))
    if spec is None:
        spec = _FIELD_CACHE[p, m] = FieldSpec(p, m)
    return spec


class FieldElem:
    """An element of F_{p^m}, stored as m residues mod p.

    Supports +, -, *, /, ** (negative exponents allowed for nonzero
    elements) and compares coefficient-wise.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        coeffs = tuple(c % spec.p for c in coeffs)
        if len(coeffs) != spec.m:
            raise ValueError("coefficient vector has wrong length")
        self.spec = spec
        self.coeffs = coeffs

    def is_zero(self):
        return not any(self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def in_prime_field(self):
        return not any(self.coeffs[1:])

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.spec is not self.spec and other.spec != self.spec:
                raise ValueError("elements live in different fields")
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.spec.p
        return FieldElem(
            self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        spec = self.spec
        if spec._log:  # -1 = g^((q-1)/2), read only from a table built already
            k, exp = spec._log[self.coeffs], spec._exp
            return self if k is None else exp[(k + len(exp) // 2) % len(exp)]
        p = spec.p
        return FieldElem(spec, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        log = spec._tables()
        if log:
            i, j = log[self.coeffs], log[other.coeffs]
            if i is None or j is None:
                return spec.zero()
            exp = spec._exp
            return exp[(i + j) % len(exp)]
        prod = _poly_mulmod(_trim(self.coeffs), _trim(other.coeffs), spec.modulus, spec.p)
        return FieldElem(spec, prod + (0,) * (spec.m - len(prod)))

    __rmul__ = __mul__

    def inv(self):
        return self ** -1

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, e):
        """self^e; a negative e needs a nonzero element, and 0^0 = 1."""
        spec = self.spec
        log = spec._tables()
        if log:
            k = log[self.coeffs]
            if k is not None:
                exp = spec._exp
                return exp[k * e % len(exp)]
        elif not self.is_zero():
            r = _poly_powmod(_trim(self.coeffs), e % (spec.order - 1), spec.modulus, spec.p)
            return FieldElem(spec, r + (0,) * (spec.m - len(r)))
        if e < 0:
            raise ZeroDivisionError("zero inverse")
        return spec.one() if e == 0 else self

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.spec.from_int(other)
        return other is self or (
            isinstance(other, FieldElem)
            and self.coeffs == other.coeffs
            and (self.spec is other.spec or self.spec == other.spec)
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.m, self.coeffs))

    def __int__(self):
        if not self.in_prime_field():
            raise ValueError("element lies outside the prime field")
        return self.coeffs[0]

    def __repr__(self):
        return f"FieldElem({self.as_string()!r} in F_{self.spec.p}^{self.spec.m})"

    def as_string(self):
        if self.spec.m == 1 or self.in_prime_field():
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*w" if c != 1 else "w")
            else:
                terms.append(f"{c}*w^{i}" if c != 1 else f"w^{i}")
        return "+".join(terms) if terms else "0"


def nth_roots(x, n):
    """All y in the field of x with y^n = x, sorted by coefficient vector.

    Returns exactly d = gcd(n, q - 1) elements when x is an n-th power,
    that is when x^((q-1)/d) = 1, and none otherwise.  In a tabled field,
    x = g^j and y = g^k is a root iff n k == j mod q - 1: that needs d | j,
    and then the roots are the d exponents k0 + t (q - 1)/d with
    k0 = (j/d) (n/d)^-1 mod (q - 1)/d.  In a larger field the roots are the
    first root in counting order times the d-th roots of unity, which are
    the values w^((q-1)/d); both are found by scanning the field from its
    start.
    """
    if x.is_zero():
        raise ValueError("nonzero required")
    if n < 1:
        raise ValueError("positive n required")
    spec = x.spec
    d = gcd(n, spec.order - 1)
    period = (spec.order - 1) // d
    log = spec._tables()
    if log:
        j = log[x.coeffs]
        if j % d:
            return []
        k0 = j // d * pow(n // d, -1, period) % period
        roots = [spec._exp[k0 + t * period] for t in range(d)]
    elif not (x ** period).is_one():
        return []
    else:
        first = next(y for y in spec.nonzero_elements() if y ** n == x)
        unity = set()
        for w in spec.nonzero_elements():
            unity.add(w ** period)
            if len(unity) == d:
                break
        roots = [first * z for z in unity]
    roots.sort(key=lambda y: y.coeffs)
    return roots


def omega_of_unit(u, spec):
    """The image in F_p of a p-adic unit rational u (reduction mod p).

    Tame reduction: for u = a/b with p dividing neither a nor b, returns
    a * b^{-1} mod p embedded in the prime subfield of spec.
    """
    u = Fraction(u)
    num, den = u.numerator, u.denominator
    p = spec.p
    if num % p == 0 or den % p == 0:
        raise ValueError("not a unit")
    return spec.from_int(num % p * pow(den % p, p - 2, p))


# r! mod p by r, one prefix list per p, grown to the largest r asked up to
# _FACTORIALS_KEPT
_FACTORIALS_KEPT = 4096
_FACTORIALS = {}


def factorial_in(spec, r):
    """r! as an element of F_p inside spec; 0! = 1.

    Read from the prefix list of p, which grows to r when r is at most
    _FACTORIALS_KEPT.  A larger r (the partner r' near p/2 of a large p) is
    multiplied out from the list's last entry and not kept."""
    if r < 0:
        raise ValueError("negative factorial")
    p = spec.p
    table = _FACTORIALS.get(p)
    if table is None:
        table = _FACTORIALS[p] = [1]
    if r > _FACTORIALS_KEPT:
        acc = table[-1]
        for i in range(len(table), r + 1):
            acc = acc * i % p
        return spec.from_int(acc)
    for i in range(len(table), r + 1):
        table.append(table[-1] * i % p)
    return spec.from_int(table[r])
