"""Exact arithmetic in the prime field F_p and its extensions F_{p^m}.

Elements of F_{p^m} are coefficient vectors over F_p reduced modulo a fixed
monic irreducible polynomial.  The modulus for a pair (p, m) is chosen
deterministically: monic degree-m polynomials are enumerated in counting
order (the polynomial X^m + c_{m-1} X^{m-1} + ... + c_0 has index
sum(c_j p^j), ascending) and the first irreducible one wins.  This makes
every serialized element reproducible across runs.

The vector (a_0, ..., a_{m-1}) stands for a_0 + a_1 w + ... + a_{m-1} w^{m-1}
where w is the class of X.  The prime subfield embeds as constant vectors.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "FieldSpec",
    "FieldElem",
    "field_make",
    "nth_roots",
    "omega_of_unit",
    "factorial_in",
    "is_prime",
]


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def _is_irreducible(modulus, p):
    """Deterministic irreducibility test for a monic polynomial over F_p."""
    m = len(modulus) - 1
    if m == 1:
        return True
    x = (0, 1)
    # X^{p^m} == X mod f
    t = x
    for _ in range(m):
        t = _poly_powmod(t, p, modulus, p)
    diff = list(t) + [0] * (2 - len(t))
    diff[1] = (diff[1] - 1) % p
    if _trim(diff):
        return False
    # gcd(X^{p^{m/q}} - X, f) == 1 for each prime q | m
    q = 2
    mm = m
    primes = set()
    while q * q <= mm:
        if mm % q == 0:
            primes.add(q)
            while mm % q == 0:
                mm //= q
        q += 1
    if mm > 1:
        primes.add(mm)
    for q in primes:
        t = x
        for _ in range(m // q):
            t = _poly_powmod(t, p, modulus, p)
        diff = list(t) + [0] * (2 - len(t))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(diff, modulus, p)
        if len(g) != 1:
            return False
    return True


class FieldSpec:
    """A finite field F_{p^m} with its fixed monic irreducible modulus.

    Immutable and shareable; all element operations are pure.
    """

    __slots__ = ("p", "m", "modulus", "_one", "_zero")

    def __init__(self, p, m, modulus):
        if p == 2 or not is_prime(p):
            raise ValueError("odd prime required")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if not _is_irreducible(modulus, p):
            raise ValueError("modulus is reducible")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "modulus", tuple(modulus))
        object.__setattr__(self, "_zero", None)
        object.__setattr__(self, "_one", None)

    def __setattr__(self, *a):
        raise AttributeError("FieldSpec is immutable")

    @property
    def order(self):
        return self.p ** self.m

    def elem(self, coeffs):
        return FieldElem(self, coeffs)

    def from_int(self, a):
        return FieldElem(self, (a % self.p,) + (0,) * (self.m - 1))

    def zero(self):
        z = self._zero
        if z is None:
            z = self.from_int(0)
            object.__setattr__(self, "_zero", z)
        return z

    def one(self):
        e = self._one
        if e is None:
            e = self.from_int(1)
            object.__setattr__(self, "_one", e)
        return e

    def gen(self):
        if self.m == 1:
            return self.from_int(1)
        return FieldElem(self, (0, 1) + (0,) * (self.m - 2))

    def elements(self):
        """All field elements in counting order of coefficient vectors."""
        p, m = self.p, self.m
        for idx in range(p ** m):
            coeffs = []
            t = idx
            for _ in range(m):
                coeffs.append(t % p)
                t //= p
            yield FieldElem(self, tuple(coeffs))

    def nonzero_elements(self):
        for e in self.elements():
            if not e.is_zero():
                yield e

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, m={self.m})"

    def to_json(self):
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}


_FIELD_CACHE = {}


def field_make(p, m=1):
    """The field F_{p^m} with the deterministic least irreducible modulus."""
    key = (p, m)
    spec = _FIELD_CACHE.get(key)
    if spec is not None:
        return spec
    if p == 2 or not is_prime(p):
        raise ValueError("odd prime required")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if m == 1:
        modulus = (0, 1)
    else:
        modulus = None
        for idx in range(p ** m):
            coeffs = []
            t = idx
            for _ in range(m):
                coeffs.append(t % p)
                t //= p
            cand = tuple(coeffs) + (1,)
            if _is_irreducible(cand, p):
                modulus = cand
                break
        if modulus is None:
            raise AssertionError(f"no irreducible monic of degree {m} over F_{p}")
    spec = FieldSpec(p, m, modulus)
    _FIELD_CACHE[key] = spec
    return spec


class FieldElem:
    """An element of F_{p^m}, stored as m residues mod p.

    Supports +, -, *, /, ** (negative exponents allowed for nonzero
    elements) and compares coefficient-wise.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        if isinstance(coeffs, int):
            coeffs = (coeffs % spec.p,) + (0,) * (spec.m - 1)
        else:
            coeffs = tuple(c % spec.p for c in coeffs)
            if len(coeffs) != spec.m:
                raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("FieldElem is immutable")

    def is_zero(self):
        return not any(self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def in_prime_field(self):
        return not any(self.coeffs[1:])

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.spec != self.spec:
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
        p = self.spec.p
        return FieldElem(self.spec, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        if spec.m == 1:
            return FieldElem(spec, (self.coeffs[0] * other.coeffs[0] % spec.p,))
        prod = _poly_mulmod(_trim(self.coeffs), _trim(other.coeffs), spec.modulus, spec.p)
        return FieldElem(spec, prod + (0,) * (spec.m - len(prod)))

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("zero inverse")
        spec = self.spec
        if spec.m == 1:
            return FieldElem(spec, (pow(self.coeffs[0], spec.p - 2, spec.p),))
        # extended Euclid in F_p[X] against the modulus
        p = spec.p
        r0, r1 = spec.modulus, _trim(self.coeffs)
        s0, s1 = (), (1,)
        while r1:
            lead_inv = pow(r1[-1], p - 2, p)
            q = [0] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            for i in range(len(rem) - 1, len(r1) - 2, -1):
                coef = rem[i] * lead_inv % p
                if coef:
                    q[i - len(r1) + 1] = coef
                    for j, c in enumerate(r1):
                        rem[i - len(r1) + 1 + j] = (rem[i - len(r1) + 1 + j] - coef * c) % p
            r0, r1 = r1, _trim(rem[: len(r1) - 1])
            # s_{k+1} = s_{k-1} - q s_k  (no modulus reduction needed, degrees stay < m)
            qs = [0] * (len(q) + len(s1) - 1 if s1 else 0)
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        qs[i + j] = (qs[i + j] + qi * sj) % p
            new_s = [0] * max(len(s0), len(qs))
            for i, c in enumerate(s0):
                new_s[i] = c
            for i, c in enumerate(qs):
                new_s[i] = (new_s[i] - c) % p
            s0, s1 = s1, _trim(new_s)
        # r0 is the gcd, a nonzero constant
        c_inv = pow(r0[0], p - 2, p)
        out = tuple(c * c_inv % p for c in s0)
        out = _poly_rem(out, spec.modulus, p)
        return FieldElem(spec, out + (0,) * (spec.m - len(out)))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        result = self.spec.one()
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.spec.from_int(other)
        return (
            isinstance(other, FieldElem)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
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

    def to_json(self):
        return {"p": self.spec.p, "m": self.spec.m, "coeffs": list(self.coeffs)}


def elem_from_json(obj):
    spec = field_make(obj["p"], obj["m"])
    return FieldElem(spec, tuple(obj["coeffs"]))


def nth_roots(x, n):
    """All y in the field of x with y^n = x, sorted by coefficient vector.

    Brute force over the (small) multiplicative group; returns exactly
    gcd(n, p^m - 1) elements when x is an n-th power and none otherwise.
    """
    if x.is_zero():
        raise ValueError("nonzero required")
    if n < 1:
        raise ValueError("positive n required")
    roots = [y for y in x.spec.nonzero_elements() if y ** n == x]
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


def factorial_in(spec, r):
    """r! as an element of F_p inside spec; 0! = 1."""
    if r < 0:
        raise ValueError("negative factorial")
    acc = spec.one()
    for i in range(2, r + 1):
        acc = acc * spec.from_int(i)
    return acc
