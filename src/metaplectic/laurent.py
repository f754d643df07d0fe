"""Truncated Laurent series over F_{p^m} with the operators of k((X)).

A series carries an explicit precision N: its coefficients at exponents
e < N are known exactly and everything at e >= N is undetermined.  Every
operation returns the tightest provable output precision.  A series is
stored as its valuation v, one flat list of residues mod p and N: the
list holds m residues per exponent, w-degree j of the coefficient of
X^(v+k) at index k*m + j, and its first and last coefficients are nonzero.
The zero series ("zero to precision N") has no residues and v = N.
`FieldElem`s appear only where a caller hands in or asks for a
coefficient: the constructor, `coeff` and `terms`.

The semilinear structure implemented here:

* frobenius_phi(f, k, N) = f(X^(p^k)) mod X^N, coefficients fixed (powers
  of the relative Frobenius of k((X)) over k), cut before it is stretched;
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
from array import array
from math import comb
from operator import mul

from .coeff import FieldElem

__all__ = [
    "LaurentSeries",
    "binom_mod_p",
    "binom_neg_mod_p",
    "gamma_transform",
    "frobenius_phi",
    "extend_scalars",
    "gamma_act",
    "unit_power",
    "one_unit_root",
    "one_unit_exponent",
    "phi_basis_decompose",
    "psi_ring",
]

def binom_mod_p(n, k, p):
    """binom(n, k) mod p for n, k >= 0 via Lucas digit products."""
    if k < 0 or k > n:
        return 0
    result = 1
    while k and result:
        result = result * comb(n % p, k % p) % p
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

    __slots__ = ("spec", "v", "res", "prec")

    def __init__(self, spec, coeffs, prec):
        """The series sum a X^e over the {e: FieldElem a} in coeffs, mod X^prec."""
        exps = [e for e, a in coeffs.items() if e < prec and not a.is_zero()]
        v, m = min(exps, default=prec), spec.m
        res = [0] * ((max(exps, default=v - 1) + 1 - v) * m)
        for e in exps:
            i = (e - v) * m
            res[i : i + m] = coeffs[e].coeffs
        _fill(self, spec, v, res, prec)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, spec, prec):
        return _series(spec, prec, [], prec)

    @classmethod
    def one(cls, spec, prec):
        return cls.monomial(spec, 0, prec)

    @classmethod
    def monomial(cls, spec, exp, prec, coeff=None):
        return _series(spec, exp, list((spec.one() if coeff is None else coeff).coeffs), prec)

    @classmethod
    def from_int_coeffs(cls, spec, terms, prec):
        return cls(spec, {e: spec.from_int(a) for e, a in terms.items()}, prec)

    # -- basic structure ----------------------------------------------

    def is_zero(self):
        return not self.res

    @property
    def valuation(self):
        """Exact valuation of the known part; None for a known-zero series."""
        return self.v if self.res else None

    def coeff(self, e):
        m = self.spec.m
        i = (e - self.v) * m
        if 0 <= i < len(self.res):
            return FieldElem(self.spec, tuple(self.res[i : i + m]))
        return self.spec.zero()

    def terms(self):
        """The nonzero coefficients as {exponent: FieldElem}."""
        spec, m, res = self.spec, self.spec.m, self.res
        blocks = (tuple(res[i : i + m]) for i in range(0, len(res), m))
        return {self.v + k: FieldElem(spec, b) for k, b in enumerate(blocks) if any(b)}

    def leading_coeff(self):
        if not self.res:
            raise ValueError("not invertible")
        return self.coeff(self.v)

    def truncate(self, prec):
        """Restrict to a lower precision; never extends a claim."""
        if prec >= self.prec:
            return self
        return _series(self.spec, self.v, self.res, prec)

    def is_one_unit(self):
        res = self.res
        return self.v == 0 and bool(res) and res[0] == 1 and not any(res[1 : self.spec.m])

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentSeries.from_int_coeffs(self.spec, {0: other}, self.prec)
        return _combine([(1, self), (1, other)], min(self.prec, other.prec))

    __radd__ = __add__

    def __neg__(self):
        return _combine([(-1, self)], self.prec)

    def __sub__(self, other):
        return _combine([(1, self), (-1, other)], min(self.prec, other.prec))

    def scale(self, a):
        """Multiply by a field element."""
        spec = self.spec
        out = _kronecker_mul(spec, self.res, list(a.coeffs), len(self.res) // spec.m)
        return _series(spec, self.v, out, self.prec)

    def shift(self, k):
        """Multiply by X^k (exact)."""
        return _series(self.spec, self.v + k, self.res, self.prec + k)

    def __mul__(self, other):
        v1, v2 = self.v, other.v
        prec = min(v1 + other.prec, v2 + self.prec)
        out = _kronecker_mul(self.spec, self.res, other.res, prec - v1 - v2)
        return _series(self.spec, v1 + v2, out, prec)

    def invert_series(self):
        """The inverse series; valuation negates, precision drops by 2*val.

        Newton iteration b <- b + b(1 - u*b) on the unit part u doubles the
        known digits of b = u^-1 each step.  A monomial needs none:
        a X^v + O(X^N) inverts exactly to a^-1 X^-v + O(X^(N-2v)).
        """
        v = self.valuation
        if v is None:
            raise ValueError("not invertible")
        spec = self.spec
        n = self.prec - v  # number of known coefficients of the unit part
        # w = -u for the unit part u = X^-v self; b starts at u^-1 mod X
        w = [-c % spec.p for c in self.res]
        b = list(self.leading_coeff().inv().coeffs)
        known = n if len(w) == len(b) else 1
        while known < n:
            # b is u^-1 mod X^known as an exact polynomial, so b + b(1 - u*b)
            # adds the digits known..2*known-1; b has none there, so they are
            # the digits of b*(w*b) = b*(1 - u*b) - b
            known = min(2 * known, n)
            b += _kronecker_mul(spec, b, _kronecker_mul(spec, w, b, known), known)[len(b) :]
        return _series(spec, -v, b, n - v)

    def pow(self, e):
        """self**e; negative e requires an invertible series.

        For series with prime-field coefficients the base-p digits of e
        are handled through the Frobenius (f^{p^k} = f(X^{p^k})), which
        keeps large exponents cheap and precision tight.  The result is
        known to K = prec - v digits past its valuation, so a digit d at
        position k takes u^d for u = self cut to ceil(K/p^k) digits past v.
        """
        if e == 0:
            return LaurentSeries.one(self.spec, self.prec)
        if e < 0:
            return self.invert_series().pow(-e)
        spec, v = self.spec, self.v
        p, m = spec.p, spec.m
        if e >= p and v >= 0 and not any(any(self.res[j::m]) for j in range(1, m)):
            K = self.prec - v
            result, k, t = None, 0, e
            while t:
                t, d = divmod(t, p)
                if d:
                    u = self.truncate(v - (-K // p ** k))
                    factor = frobenius_phi(u.pow(d), k, v * d * p ** k + K)
                    result = factor if result is None else result * factor
                k += 1
            return result
        result, base, t = None, self, e
        while t > 0:
            if t & 1:
                result = base if result is None else result * base
            t >>= 1
            if t:
                base = base * base
        return result

    # -- comparisons ----------------------------------------------------

    def agrees_with(self, other):
        """Equality of all coefficients below both precisions."""
        bound = min(self.prec, other.prec)
        a, b = self.truncate(bound), other.truncate(bound)
        return a.res == b.res and (a.v == b.v or not a.res)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.spec == other.spec
            and self.prec == other.prec
            and self.v == other.v
            and self.res == other.res
        )

    def __repr__(self):
        terms = []
        for e, a in self.terms().items():
            a, x = a.as_string(), "X" if e == 1 else f"X^{e}"
            terms.append(a if e == 0 else x if a == "1" else f"{a}*{x}")
        return " + ".join(terms + [f"O(X^{self.prec})"])


def _fill(f, spec, v, res, prec):
    """Set the fields of f to X^v times the series of the residue list res,
    mod X^prec: residues at or above prec and zero coefficients at either end
    of res are dropped."""
    m, n = spec.m, len(res)
    if not (n and res[0] and res[-1] and n <= (prec - v) * m):
        n = max(0, min(n, (prec - v) * m))
        i = 0
        while i < n and not res[i]:
            i += 1
        if i == n:
            v, res = prec, []
        else:
            j = n - 1
            while not res[j]:
                j -= 1
            v, res = v + i // m, res[i - i % m : j + m - j % m]
    f.spec, f.v, f.res, f.prec = spec, v, res, prec


def _series(spec, v, res, prec):
    """The series X^v * res mod X^prec (see `_fill`); res is not copied."""
    f = object.__new__(LaurentSeries)
    _fill(f, spec, v, res, prec)
    return f


def _lincomb(p, terms, length):
    """sum c * X^at * res mod p over the (int c, offset at, residue list res)
    in terms, as a residue list cut to at most `length` residues."""
    length = min(length, max(at + len(res) for _, at, res in terms))
    out = [0] * length
    for c, at, res in terms:
        end = min(at + len(res), length)
        if at < end:
            out[at:end] = [a + c * b for a, b in zip(out[at:end], res)]
    return [a % p for a in out]


def _combine(parts, prec):
    """sum c * f mod X^prec over the (int c, series f) in parts."""
    spec = parts[0][1].spec
    m = spec.m
    lo = min(f.v for _, f in parts)
    terms = [(c, (f.v - lo) * m, f.res) for c, f in parts]
    return _series(spec, lo, _lincomb(spec.p, terms, (prec - lo) * m), prec)


def _stretch(res, m, k):
    """The residue list of f(X^k) for the residue list res of f."""
    out = [0] * ((len(res) // m - 1) * k * m + m)
    for j in range(m):
        out[j :: k * m] = res[j::m]
    return out


def _decimate(res, m, start, k):
    """The residue list of the coefficients start, start+k, start+2k, ... of res."""
    out = [0] * (len(range(start, len(res) // m, k)) * m)
    for j in range(m):
        out[j::m] = res[start * m + j :: k * m]
    return out


# array type code for each slot width in bytes, narrowest first
_SLOT_CODES = sorted((array(code).itemsize, code) for code in "BHIQ")
# packed ints are little-endian, slot i at bits 8*width*i; array items are native
_SWAP = sys.byteorder != "little"


def _slot_width(bound):
    """(bytes per slot, array code) for slots that hold every value up to
    bound: the narrowest array width, or past 8 bytes the least whole number
    of bytes and code None."""
    for width, code in _SLOT_CODES:
        if bound >> (8 * width) == 0:
            return width, code
    return (bound.bit_length() + 7) // 8, None


def _pack(res, n, m, stride, width, code):
    """The first n coefficients of res as one int, `stride` slots of `width`
    bytes per coefficient, w-degree j in slot j."""
    if code is None:
        slots = [0] * (n * stride)
        for j in range(m):
            slots[j::stride] = res[j : n * m : m]
        return int.from_bytes(b"".join(s.to_bytes(width, "little") for s in slots), "little")
    if stride == m:
        slots = array(code, res[: n * m])
    else:
        slots = array(code, [0]) * (n * stride)
        for j in range(m):
            slots[j::stride] = array(code, res[j : n * m : m])
    if _SWAP:
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _unpack(spec, x, size, n, stride, width, code):
    """The residue list of the first n of the `size` coefficients packed in x
    (see `_pack`).  With stride 2m-1 the slots of w-degree 2m-2 down to m are
    folded into the lower ones by the modulus, one plane of all coefficients
    at a time; every slot is reduced mod p."""
    p, m = spec.p, spec.m
    data = x.to_bytes(size * stride * width, "little")
    if code is None:
        slots = [int.from_bytes(data[i : i + width], "little") for i in range(0, n * stride * width, width)]
    else:
        slots = array(code, data)
        if _SWAP:
            slots.byteswap()
    if stride == m:
        return [s % p for s in slots[: n * m]]
    planes = [slots[j : n * stride : stride] for j in range(stride)]
    modulus = spec.modulus
    for top in range(stride - 1, m - 1, -1):
        high = [s % p for s in planes[top]]
        for j, c in enumerate(modulus[:m]):
            if c:
                k = top - m + j
                planes[k] = [s - c * h for s, h in zip(planes[k], high)]
    out = [0] * (n * m)
    for j in range(m):
        out[j::m] = [s % p for s in planes[j]]
    return out


def _kronecker_mul(spec, a, b, count):
    """The residue list of the product of the residue lists a and b below
    its coefficient `count`, from one big-int product.

    Each operand is packed into one int (Kronecker substitution) with a slot
    per (coefficient, w-degree) pair and 2m-1 slots per coefficient, so the
    w-degree products of F_{p^m} coefficients cannot overlap.  Only the
    first `count` coefficients of each operand are packed.  A slot sums at
    most min(na, nb)*m products of two residues, so a slot of that bound
    never carries.  `_unpack` folds the product by the modulus and reduces
    it mod p.  The list ends at the product's last coefficient below
    `count`; the coefficients past it are zero.  An operand of one
    coefficient c in F_p packs nothing: the product is the other operand's
    residues times c mod p, or those residues when c = 1.
    """
    p, m = spec.p, spec.m
    na, nb = min(len(a) // m, count), min(len(b) // m, count)
    if na <= 0 or nb <= 0:
        return []
    if na == 1 and not any(a[1:m]):
        a, b, na, nb = b, a, nb, na
    if nb == 1 and not any(b[1:m]):
        c = b[0]
        return a[: na * m] if c == 1 else [r * c % p for r in a[: na * m]]
    stride = 2 * m - 1
    width, code = _slot_width(min(na, nb) * m * (p - 1) ** 2)
    x = _pack(a, na, m, stride, width, code)
    y = x if b is a else _pack(b, nb, m, stride, width, code)
    n = na + nb - 1
    return _unpack(spec, x * y, n, min(n, count), stride, width, code)


def frobenius_phi(f, k=1, prec=None):
    """phi^k(f) = f(X^(p^k)), coefficients unchanged, mod X^prec (default: all
    f.prec * p^k known digits); f is cut to ceil(prec/p^k) digits, then stretched."""
    s = f.spec.p ** k
    prec = f.prec * s if prec is None else min(prec, f.prec * s)
    f = f.truncate(-(-prec // s))
    return _series(f.spec, f.v * s, _stretch(f.res, f.spec.m, s), prec)


def extend_scalars(f, spec):
    """f, a series over F_p, as the same series over spec = F_{p^m}: each
    residue fills w-degree 0 of its coefficient.  f itself when m = 1."""
    if spec.m == 1:
        return f
    res = [0] * (len(f.res) * spec.m)
    res[:: spec.m] = f.res
    return _series(spec, f.v, res, f.prec)


def gamma_transform(c, spec, prec):
    """(1+X)^c - 1 modulo X^prec for an exact integer unit c >= 1."""
    p, m = spec.p, spec.m
    res = [0] * (max(prec - 1, 0) * m)
    res[::m] = [binom_mod_p(c, k, p) for k in range(1, prec)]
    return _series(spec, 1, res, prec)


# a P needed to at most this many digits is one packed combination of the
# leaf rows of its unit (see `_Unit.leaf_rows`)
_GAMMA_LEAF = 16
# the unit table: a `_Unit` per (p, m, c), for at most _UNITS_KEPT of them
# (the oldest is dropped first), whose series hold at most _UNIT_RESIDUES
# residues together once a call that grew them returns (see `_trim`).  2^16
# list slots (512 KiB) hold a dense g, its powers and u^v for one gamma_act
# at N = 1000 over F_{13^4}, but no dense series of precision 10^5
_UNITS_KEPT = 32
_UNIT_RESIDUES = 1 << 16
_UNITS = {}


class _Unit:
    """What the table keeps of one unit c over spec = F_{p^m}, for
    g = (1+X)^c - 1 = X u: in `powers`, g^d by d (g itself at d = 1; `gamma_act`
    asks only d < p), and in `units`, u^e by e, each the exact series mod X^P
    for the highest precision P asked so far, so that a smaller precision is
    a cut of it; and the leaf rows of `gamma_act`, built on first use.  `size`
    counts the residues of the kept series."""

    __slots__ = ("spec", "c", "powers", "units", "leaf", "size")

    def __init__(self, spec, c):
        self.spec, self.c = spec, c
        self.powers, self.units, self.leaf, self.size = {}, {}, None, 0

    def _keep(self, kept, key, f):
        old = kept.get(key)
        self.size += len(f.res) - (0 if old is None else len(old.res))
        kept[key] = f
        return f

    def power(self, d, prec):
        """g^d known mod X^prec or further: g from `gamma_transform`, g^d as
        g^(d-1) times g when g^(d-1) is kept that far, else by `pow`."""
        gd = self.powers.get(d)
        if gd is None or gd.prec < prec:
            if d == 1:
                gd = gamma_transform(self.c, self.spec, prec)
            else:
                below, base = self.powers.get(d - 1), self.power(1, prec).truncate(prec)
                gd = below * base if below is not None and below.prec >= prec else base.pow(d)
            self._keep(self.powers, d, gd)
        return gd

    def unit_power(self, e, prec):
        """u^e mod X^prec, raised from g cut to X^(prec+1); for e < 0, u^-e
        is inverted, since u^-e is at most as long as the dense u^-1."""
        ue = self.units.get(e)
        if ue is None or ue.prec < prec:
            u = self.power(1, prec + 1).truncate(prec + 1).shift(-1)
            ue = self._keep(self.units, e, u.pow(e) if e >= 0 else u.pow(-e).invert_series())
        return ue.truncate(prec)

    def leaf_rows(self):
        """(slot width, array code, rows) for the leaves of gamma_act:
        rows[i] packs X^(i//m) w^(i%m) u^(i//m) mod X^_GAMMA_LEAF, one slot
        per residue.  u has coefficients in F_p, so rows[i] has residues
        only at w-degree i%m, and a leaf's slot sums at most _GAMMA_LEAF
        products of two residues: the width holds that bound, which also
        bounds a slot of u^(d-1) * u."""
        if self.leaf is None:
            spec, L = self.spec, _GAMMA_LEAF
            p, m = spec.p, spec.m
            width, code = _slot_width(L * (p - 1) ** 2)
            bits, mask = 8 * width, (1 << (8 * width * L * m)) - 1
            u = self.power(1, L + 1).truncate(L + 1).res
            u = _pack(u, len(u) // m, m, m, width, code)
            rows, power = [], 1  # power = u^d, packed
            for d in range(L):
                rows += [power << (bits * i) & mask for i in range(d * m, d * m + m)]
                power = _pack(_unpack(spec, power * u, 2 * L - 1, L, m, width, code), L, m, m, width, code)
            self.leaf = (width, code, rows)
        return self.leaf


def _unit(spec, c):
    """The table's `_Unit` of c over spec, made (and the oldest dropped
    past _UNITS_KEPT) when it has none."""
    key = (spec.p, spec.m, c)
    unit = _UNITS.get(key)
    if unit is None:
        if len(_UNITS) >= _UNITS_KEPT:
            del _UNITS[next(iter(_UNITS))]
        unit = _UNITS[key] = _Unit(spec, c)
    return unit


def _trim(unit):
    """Drop the oldest units but `unit`, then the series `unit` keeps, until
    the table holds at most _UNIT_RESIDUES residues."""
    held = sum(u.size for u in _UNITS.values())
    for key in list(_UNITS):
        if held <= _UNIT_RESIDUES:
            return
        if _UNITS[key] is not unit:
            held -= _UNITS.pop(key).size
    if held > _UNIT_RESIDUES:
        unit.powers, unit.units, unit.size = {}, {}, 0


def unit_power(c, spec, e, prec):
    """(g/X)^e mod X^prec over spec, for g = (1+X)^c - 1, an exact integer
    unit c >= 1 coprime to p and any integer e.

    g/X has constant term c, so it is a unit.  The unit table keeps g and
    (g/X)^e per (p, m, c), each at the highest precision asked (see
    `_Unit`): an answer at a lower precision is a cut of the kept series,
    the same residues and precision as a cold build.  The table keeps at
    most _UNITS_KEPT units; once a call that grew it returns, it holds at
    most _UNIT_RESIDUES residues, the oldest units dropped first and none of
    a unit whose own series pass that bound.
    """
    unit = _unit(spec, c)
    size = unit.size
    out = unit.unit_power(e, prec)
    if unit.size > size:
        _trim(unit)
    return out


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
    j + p*ceil((K-j)/p) >= K.  A P = sum_d a_d X^d needed to at most
    _GAMMA_LEAF digits is one packed sum of a_d times the leaf rows of
    c, reduced once.  An upper level sums its p terms in one
    packed int, sum_j pack(phi(P_j(g))) pack(g^j) shifted by j
    coefficients, and reduces once: g^j is in F_p, so one slot per residue
    suffices, and phi(P_j(g)) has at most ceil((K-j)/p) nonzero coefficients
    below X^(K-j), so a slot sums at most sum_j ceil((K-j)/p) = K products
    of two residues.  Negative exponents of the substituted variable are
    handled by inverting u^(-v) at the precision the output needs, so no
    precision is lost against the contract.

    g, the g^j, u^v and the leaf rows come from the unit table, one entry
    per (p, m, c) (see `unit_power`): each series is kept at the highest
    precision asked, and a level packs only its first K - j coefficients,
    so a call at a unit asked before builds none of them again and answers
    the same residues and precision as a cold table.
    """
    spec = f.spec
    if c < 1:
        raise ValueError("positive unit required")
    if c % spec.p == 0:
        raise ValueError("unit must be coprime to p")
    if c == 1 or f.is_zero() or f.v == 0 and len(f.res) == spec.m:
        return f  # Gamma fixes constants
    p, m = spec.p, spec.m
    v = f.v
    known = f.prec - v
    unit = _unit(spec, c)
    size = unit.size
    unit.power(1, max(known, _GAMMA_LEAF) + 1)  # g once at the most digits any step cuts
    leaf_width, leaf_code, rows = unit.leaf_rows()

    def compose(P, K):
        """The residues of P(g) mod X^K, for the residue list P of a
        polynomial of degree below K."""
        if K <= _GAMMA_LEAF:
            return _unpack(spec, sum(map(mul, P, rows)), _GAMMA_LEAF, K, m, leaf_width, leaf_code)
        terms = []
        for j in range(min(p, len(P) // m)):
            part = _decimate(P, m, j, p)
            if any(part):
                terms.append((j, _stretch(compose(part, -(-(K - j) // p)), m, p)))
        if len(terms) == 1 and terms[0][0] == 0:
            return terms[0][1]
        width, code = _slot_width(K * (p - 1) ** 2)
        bits, acc = 8 * width * m, 0
        for j, part in terms:
            x = _pack(part, min(len(part) // m, K - j), m, m, width, code)
            if j:
                gj = unit.power(j, K).res
                x = x * _pack(gj, min(len(gj) // m, K - j), m, m, width, code) << (bits * j)
            acc += x
        return _unpack(spec, acc, 2 * K - 1, K, m, width, code)

    composed = _series(spec, 0, compose(f.res, known), known)
    out = (composed * unit.unit_power(v, known)).shift(v)
    if unit.size > size:
        _trim(unit)
    return out


def one_unit_root(f, n):
    """The unique g in 1 + X k[[X]] with g^n = f, for gcd(n, p) = 1.

    Computed as f^(n^{-1} mod p^e) where p^e bounds the exponent of the
    group of 1-units modulo X^prec; this agrees with the solve-degree-by-
    degree construction by uniqueness of the root.
    """
    p = f.spec.p
    if n < 1 or n % p == 0:
        raise ValueError("root not unique")
    if not f.is_one_unit():
        raise ValueError("not a one-unit")
    q = one_unit_exponent(p, f.prec)
    return f.pow(pow(n, -1, q)).truncate(f.prec)


def one_unit_exponent(p, prec):
    """The least power q >= p of p at or above prec: every 1-unit mod X^prec has q-th power 1."""
    q = p
    while q < prec:
        q *= p
    return q


def _phi_rows(f, rows):
    """The components g_0, ..., g_(rows-1) of f in the (1+X)^i basis.

    f splits as sum_j X^j u_j(X^p) over the residue classes j present in
    f, and the unipotent Pascal matrix binom(i, j) inverts to its signed
    counterpart: g_i = sum_{j >= i} (-1)^(j-i) binom(j, i) u_j.  u_j is
    known mod X^ceil((N - j)/p) for input precision N, so every g_i is known
    exactly mod X^(N//p), the least of these, at j = p - 1.
    """
    spec, v = f.spec, f.v
    p, m = spec.p, spec.m
    prec, lo = f.prec // p, v // p
    # (j, offset of u_j past X^lo, residues of u_j) for the class of X^(v+k)
    u = [((v + k) % p, ((v + k) // p - lo) * m, _decimate(f.res, m, k, p))
         for k in range(min(p, len(f.res) // m))]
    out = []
    for i in range(rows):
        terms = [((-1) ** (j - i) * (comb(j, i) % p), at, uj) for j, at, uj in u if j >= i]
        out.append(_series(spec, lo, _lincomb(p, terms, (prec - lo) * m) if terms else [], prec))
    return out


def phi_basis_decompose(f):
    """Components (g_0, ..., g_{p-1}) with f = sum_i (1+X)^i g_i(X^p), known mod X^(N//p)."""
    return _phi_rows(f, f.spec.p)


def psi_ring(f):
    """psi on the coefficient ring: g_0 = sum_j (-1)^j u_j, the 0-component
    of `phi_basis_decompose`, known mod X^(N//p)."""
    return _phi_rows(f, 1)[0]
