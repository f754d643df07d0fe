"""Truncated Laurent series over F_{p^m} with the operators of k((X)).

A series carries an explicit precision N: its coefficients at exponents
e < N are known exactly and everything at e >= N is undetermined.  Every
operation returns the tightest provable output precision.  The zero
series is represented with an empty coefficient table ("zero to
precision N").

The semilinear structure implemented here:

* frobenius(f) = f(X^p), coefficients fixed (the relative Frobenius of
  k((X)) over k);
* gamma_act(c, f) = f((1+X)^c - 1) for an exact positive integer c
  coprime to p, with binomial coefficients taken mod p by Lucas digit
  products, composed by the Frobenius recursion: g = (1+X)^c - 1 has
  coefficients in F_p, so g^p = frobenius(g), and f(g) splits into p
  compositions of series with about N/p digits;
* one_unit_root(f, n): the unique n-th root of a 1-unit when gcd(n,p)=1;
* phi_basis_decompose(f): the components of f in the basis
  {(1+X)^i}_{0<=i<p} over k((X^p)), which underlies the left inverse
  psi of the Frobenius.
"""

from __future__ import annotations

import sys

from .coeff import FieldElem, _poly_rem

__all__ = [
    "LaurentSeries",
    "binom_mod_p",
    "binom_neg_mod_p",
    "gamma_transform",
    "frobenius_phi",
    "gamma_act",
    "one_unit_root",
    "phi_basis_decompose",
    "psi_ring",
]


def binom_mod_p(n, k, p):
    """binom(n, k) mod p for n, k >= 0 via Lucas digit products."""
    if k < 0 or k > n:
        return 0
    result = 1
    while k > 0 or n > 0:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        num = den = 1
        for i in range(kd):
            num = num * (nd - i) % p
            den = den * (i + 1) % p
        result = result * num * pow(den, p - 2, p) % p
        n //= p
        k //= p
    return result


def binom_neg_mod_p(j, t, p):
    """binom(-j, t) mod p for j >= 0, t >= 0."""
    if t < 0:
        return 0
    if t == 0:
        return 1
    sign = -1 if t % 2 else 1
    return sign * binom_mod_p(j + t - 1, t, p) % p


class LaurentSeries:
    """A Laurent series over F_{p^m} known modulo X^precision."""

    __slots__ = ("spec", "coeffs", "prec")

    def __init__(self, spec, coeffs, prec):
        cleaned = {}
        for e, a in coeffs.items():
            if e < prec and not a.is_zero():
                cleaned[e] = a
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, spec, prec):
        return cls(spec, {}, prec)

    @classmethod
    def one(cls, spec, prec):
        return cls(spec, {0: spec.one()}, prec)

    @classmethod
    def monomial(cls, spec, exp, prec, coeff=None):
        if coeff is None:
            coeff = spec.one()
        return cls(spec, {exp: coeff}, prec)

    @classmethod
    def from_int_coeffs(cls, spec, terms, prec):
        return cls(spec, {e: spec.from_int(a) for e, a in terms.items()}, prec)

    # -- basic structure ----------------------------------------------

    def is_zero(self):
        return not self.coeffs

    @property
    def valuation(self):
        """Exact valuation of the known part; None for a known-zero series."""
        if not self.coeffs:
            return None
        return min(self.coeffs)

    def val_or_prec(self):
        return min(self.coeffs) if self.coeffs else self.prec

    def coeff(self, e):
        a = self.coeffs.get(e)
        return a if a is not None else self.spec.zero()

    def leading_coeff(self):
        v = self.valuation
        if v is None:
            raise ValueError("not invertible")
        return self.coeffs[v]

    def truncate(self, prec):
        """Restrict to a lower precision; never extends a claim."""
        if prec >= self.prec:
            return self
        return LaurentSeries(self.spec, {e: a for e, a in self.coeffs.items() if e < prec}, prec)

    def is_one_unit(self):
        return bool(self.coeffs) and self.valuation == 0 and self.coeffs[0].is_one()

    def has_prime_field_coeffs(self):
        return all(a.in_prime_field() for a in self.coeffs.values())

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, FieldElem)):
            other = LaurentSeries(
                self.spec,
                {0: other if isinstance(other, FieldElem) else self.spec.from_int(other)},
                self.prec,
            )
        prec = min(self.prec, other.prec)
        out = dict(self.coeffs)
        for e, a in other.coeffs.items():
            b = out.get(e)
            out[e] = a if b is None else a + b
        return LaurentSeries(self.spec, out, prec)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.spec, {e: -a for e, a in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        """Multiply by a field element."""
        if a.is_zero():
            return LaurentSeries.zero(self.spec, self.prec)
        return LaurentSeries(self.spec, {e: a * b for e, b in self.coeffs.items()}, self.prec)

    def shift(self, k):
        """Multiply by X^k (exact)."""
        return LaurentSeries(
            self.spec, {e + k: a for e, a in self.coeffs.items()}, self.prec + k
        )

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(self.spec.from_int(other))
        v1, v2 = self.val_or_prec(), other.val_or_prec()
        prec = min(v1 + other.prec, v2 + self.prec)
        coeffs = _kronecker_mul(self.spec, self.coeffs, other.coeffs, prec)
        return LaurentSeries(self.spec, coeffs, prec)

    __rmul__ = __mul__

    def invert_series(self):
        """The inverse series; valuation negates, precision drops by 2*val.

        Newton iteration b <- b + b(1 - u*b) on the unit part u doubles the
        known digits of b = u^-1 each step.
        """
        v = self.valuation
        if v is None:
            raise ValueError("not invertible")
        spec = self.spec
        n = self.prec - v  # number of known coefficients of the unit part
        # w = -u for the unit part u = X^-v self; b starts at u^-1 mod X, so
        # w*b = r - 1 with r = 1 - u*b
        w = {e - v: -a for e, a in self.coeffs.items()}
        b = {0: self.coeffs[v].inv()}
        known = 1
        while known < n:
            # b is u^-1 mod X^known as an exact polynomial, so r = 0 below
            # known: b + b*r adds the digits known..2*known-1
            known = min(2 * known, n)
            r = _kronecker_mul(spec, w, b, known)
            del r[0]
            b.update(_kronecker_mul(spec, b, r, known))
        return LaurentSeries(spec, {e - v: a for e, a in b.items()}, n - v)

    def pow(self, e):
        """self**e; negative e requires an invertible series.

        For series with prime-field coefficients the base-p digits of e
        are handled through the Frobenius (f^{p^k} = f(X^{p^k})), which
        keeps large exponents cheap and precision tight.
        """
        if e == 0:
            return LaurentSeries.one(self.spec, self.prec - 0)
        if e < 0:
            return self.invert_series().pow(-e)
        p = self.spec.p
        if e >= p and self.has_prime_field_coeffs() and self.val_or_prec() >= 0:
            digits = []
            t = e
            while t:
                digits.append(t % p)
                t //= p
            small = {1: self}
            for d in range(2, p):
                small[d] = small[d - 1] * self
            result = None
            for k, d in enumerate(digits):
                if d == 0:
                    continue
                factor = small[d]
                if k:
                    scale = p ** k
                    factor = LaurentSeries(
                        factor.spec,
                        {ex * scale: a for ex, a in factor.coeffs.items()},
                        factor.prec * scale,
                    )
                result = factor if result is None else result * factor
            return result.truncate(min(result.prec, self.prec + self.val_or_prec() * (e - 1)))
        result = None
        base = self
        t = e
        while t > 0:
            if t & 1:
                result = base if result is None else result * base
            t >>= 1
            if t:
                base = base * base
        return result

    # -- comparisons ----------------------------------------------------

    def agrees_with(self, other, upto=None):
        """Equality of all coefficients below min(precisions, upto)."""
        bound = min(self.prec, other.prec)
        if upto is not None:
            bound = min(bound, upto)
        exps = set(self.coeffs) | set(other.coeffs)
        for e in exps:
            if e < bound and self.coeff(e) != other.coeff(e):
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.spec == other.spec
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.prec, tuple(sorted((e, a.coeffs) for e, a in self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return f"O(X^{self.prec})"
        terms = []
        for e in sorted(self.coeffs):
            a = self.coeffs[e].as_string()
            if e == 0:
                terms.append(a)
            elif e == 1:
                terms.append(f"{a}*X" if a != "1" else "X")
            else:
                terms.append(f"{a}*X^{e}" if a != "1" else f"X^{e}")
        return " + ".join(terms) + f" + O(X^{self.prec})"

    def to_json(self):
        return {
            "valuation": self.valuation if self.coeffs else None,
            "precision": self.prec,
            "coeffs": {str(e): self.coeffs[e].to_json() for e in sorted(self.coeffs)},
        }


# memoryview format for each slot width in bytes, narrowest first
_SLOT_CODES = sorted((memoryview(bytes(8)).cast(code).itemsize, code) for code in "BHIQ")


def _pack(coeffs, lo, hi, stride, width, code):
    """The coefficients at exponents lo..hi-1 as one int, `stride` slots of
    `width` bytes per exponent, w-degree j in slot j."""
    buf = bytearray((hi - lo) * stride * width)
    slots = memoryview(buf).cast(code)
    for e, a in coeffs.items():
        if e < hi:
            i = (e - lo) * stride
            for c in a.coeffs:
                slots[i] = c
                i += 1
    return int.from_bytes(buf, sys.byteorder)


def _kronecker_mul(spec, a, b, prec):
    """The coefficients of the product of the coefficient tables a and b
    below prec, from one big-int product.

    Each operand is packed into one int (Kronecker substitution) with a slot
    per (exponent, w-degree) pair and 2m-1 slots per exponent, so the
    w-degree products of F_{p^m} coefficients cannot overlap.  Only
    exponents below prec - v_other are packed.  A slot sums at most
    min(na, nb)*m products of two residues, so a slot of that bound never
    carries.  Each slot is then reduced mod p and mod the field modulus.
    """
    if not a or not b:
        return {}
    v1, v2 = min(a), min(b)
    hi1 = min(max(a) + 1, prec - v2)
    hi2 = min(max(b) + 1, prec - v1)
    if hi1 <= v1 or hi2 <= v2:
        return {}
    p, m = spec.p, spec.m
    stride = 2 * m - 1
    bound = min(hi1 - v1, hi2 - v2) * m * (p - 1) ** 2
    width, code = next(wc for wc in _SLOT_CODES if bound >> (8 * wc[0]) == 0)
    x = _pack(a, v1, hi1, stride, width, code)
    y = x if b is a else _pack(b, v2, hi2, stride, width, code)
    count = min(hi1 - v1 + hi2 - v2 - 1, prec - v1 - v2)
    total = (hi1 - v1 + hi2 - v2 - 1) * stride * width
    slots = memoryview((x * y).to_bytes(total, sys.byteorder)).cast(code)[: count * stride]
    out = {}
    base = v1 + v2
    elems = {}  # one FieldElem per distinct coefficient of this product
    if m == 1:  # over F_p a slot mod p is the coefficient
        for k, s in enumerate(slots):
            s %= p
            if s:
                elem = elems.get(s)
                if elem is None:
                    elem = elems[s] = FieldElem(spec, (s,))
                out[base + k] = elem
        return out
    modulus = spec.modulus
    for k in range(count):
        r = _poly_rem([s % p for s in slots[k * stride : (k + 1) * stride]], modulus, p)
        if r:
            elem = elems.get(r)
            if elem is None:
                elem = elems[r] = FieldElem(spec, r + (0,) * (m - len(r)))
            out[base + k] = elem
    return out


def series_from_json(obj, spec):
    from .coeff import elem_from_json

    coeffs = {int(e): elem_from_json(a, spec) for e, a in obj["coeffs"].items()}
    return LaurentSeries(spec, coeffs, obj["precision"])


def frobenius_phi(f):
    """f(X^p) with coefficients unchanged; precision multiplies by p."""
    p = f.spec.p
    return LaurentSeries(f.spec, {e * p: a for e, a in f.coeffs.items()}, f.prec * p)


def gamma_transform(c, spec, prec):
    """(1+X)^c - 1 modulo X^prec for an exact integer unit c >= 1."""
    p = spec.p
    coeffs = {}
    for k in range(1, max(prec, 1)):
        b = binom_mod_p(c, k, p)
        if b:
            coeffs[k] = spec.from_int(b)
    return LaurentSeries(spec, coeffs, prec)


_GAMMA_LEAF = 16  # a P needed to at most this many digits is composed by Horner's rule


def gamma_act(c, f):
    """f((1+X)^c - 1) to the input precision.

    c is an exact positive integer coprime to p, the representative of an
    element of Gamma = Z_p^* at which every construction in scope evaluates
    the action.  With f = X^v P(X) and g = (1+X)^c - 1 = X u, f(g) =
    X^v u^v P(g), and only u^v P(g) mod X^K, K = N - v, is needed.

    P(g) is composed by the Frobenius recursion (Bernstein, "Composing power
    series over a finite ring in essentially linear time", J. Symb. Comput.
    26, 1998).  g has coefficients in F_p, so g^p = frobenius_phi(g).  Split
    by exponent residue, P = sum_{j<p} X^j P_j(X^p), and

        P(g) = sum_j g^j phi(P_j(g))  mod X^K,

    where each P_j(g) comes from the same recursion and is needed only mod
    X^ceil((K-j)/p): X^j phi(P_j(g)) is then known below
    j + p*ceil((K-j)/p) >= K.  A P needed to at most _GAMMA_LEAF digits, or
    with at most two terms, is evaluated by Horner's rule over the gaps
    between its exponents.  Negative exponents of the substituted variable
    are handled by inverting u at the precision the output needs, so no
    precision is lost against the contract.
    """
    spec = f.spec
    if c < 1:
        raise ValueError("positive unit required")
    if c % spec.p == 0:
        raise ValueError("unit must be coprime to p")
    if c == 1 or f.is_zero():
        return f
    p = spec.p
    v = min(f.coeffs)
    known = f.prec - v
    g = gamma_transform(c, spec, known + 1)
    powers = {}  # d -> g^d, at the highest precision a level has asked for

    def power(d, prec):
        gd = powers.get(d)
        if gd is None or gd.prec < prec:
            gd = powers[d] = g.truncate(prec).pow(d)
        return gd.coeffs

    def compose(P, K):
        """The coefficients of P(g) mod X^K, for P with exponents below K."""
        if K <= _GAMMA_LEAF or len(P) <= 2:
            terms = [(e, {0: a}) for e, a in sorted(P.items())]
        else:
            parts = [{} for _ in range(p)]
            for e, a in P.items():
                parts[e % p][e // p] = a
            terms = []
            for j, part in enumerate(parts):
                if part:
                    sub = compose(part, -(-(K - j) // p))
                    terms.append((j, {p * i: a for i, a in sub.items() if p * i < K - j}))
        # Horner's rule over the gaps between the terms' exponents: the terms
        # from exponent lo up are summed mod X^(K - lo)
        hi, acc = terms[-1]
        for lo, a in reversed(terms[:-1]):
            acc = _kronecker_mul(spec, acc, power(hi - lo, K), K - lo)
            for e, b in a.items():
                s = acc.get(e)
                acc[e] = b if s is None else s + b
            hi = lo
        return _kronecker_mul(spec, acc, power(hi, K), K) if hi else acc

    composed = compose({e - v: a for e, a in f.coeffs.items()}, known)
    return (LaurentSeries(spec, composed, known) * g.shift(-1).pow(v)).shift(v)


def one_unit_root(f, n):
    """The unique g in 1 + X k[[X]] with g^n = f, for gcd(n, p) = 1.

    Computed as f^(n^{-1} mod p^e) where p^e bounds the exponent of the
    group of 1-units modulo X^prec; this agrees with the solve-degree-by-
    degree construction by uniqueness of the root.
    """
    spec = f.spec
    p = spec.p
    if n < 1 or n % p == 0:
        raise ValueError("root not unique")
    v = f.valuation
    if v != 0 or not f.coeffs[0].is_one():
        raise ValueError("not a one-unit")
    e = 0
    while p ** e < f.prec:
        e += 1
    modulus = p ** max(e, 1)
    m = pow(n % modulus, -1, modulus)
    return f.pow(m).truncate(f.prec)


def phi_basis_decompose(f):
    """Components (g_0, ..., g_{p-1}) with f = sum_i (1+X)^i g_i(X^p).

    Exponents of f are grouped by residue mod p and the unipotent Pascal
    matrix binom(i, j) is inverted by its signed counterpart.  The
    guaranteed output precision is floor(N/p) - 1 for input precision N;
    the reported precision is the tightest provable one (at least that).
    """
    spec = f.spec
    p = spec.p
    N = f.prec
    # residue components u_j with f = sum_j X^j u_j(X^p)
    u = [dict() for _ in range(p)]
    for e, a in f.coeffs.items():
        j = e % p
        u[j][(e - j) // p] = a
    # u_j is known modulo X^{Q_j}
    q = [((N - 1 - j) // p) + 1 for j in range(p)]
    # g_i = sum_{j >= i} (-1)^{j-i} binom(j, i) u_j
    out = []
    for i in range(p):
        coeffs = {}
        prec = min(q[i:])
        for j in range(i, p):
            b = binom_mod_p(j, i, p)
            if b == 0:
                continue
            sign = -1 if (j - i) % 2 else 1
            factor = spec.from_int(sign * b)
            for e, a in u[j].items():
                cur = coeffs.get(e)
                term = factor * a
                coeffs[e] = term if cur is None else cur + term
        out.append(LaurentSeries(spec, coeffs, prec))
    return out


def psi_ring(f):
    """psi on the coefficient ring: the 0-component of the (1+X)^i basis."""
    return phi_basis_decompose(f)[0]
