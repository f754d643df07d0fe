"""From mirabolic cycle data to induced Galois parameters.

The supersingular parameter r determines a 4-cycle of eigenvectors
v_1, ..., v_4 with torus eigencharacters chi_i, weights (r_i, b_i) and
relations X^{s_i} F(v_i) = c_i v_{i+1}.  Dualizing produces a cyclic
basis f_i with

    phi(f_i) in c_i^{-1} (1 + X k[[X]]) X^{s_i - (p-1)} f_{i+1},
    gamma(f_i) in chi_i(gamma)^{-1} (1 + X k[[X]]) f_i,

which this module normalizes (killing the 1-unit noise by the convergent
change-of-basis product) and converts to induced Galois parameters in
closed form.  A finite-level simulation of the dual Frobenius provides
an independent oracle for the containments above: on the finite quotients
k[[X]]/(X^{e(i)_m + 1}) it reconstructs phi(f_i) and gamma(f_i) from
functional pairings alone, each pairing a single coefficient read off a
binomial or off laurent.gamma_act.

Sign bookkeeping: writing gamma(f_i) = omega(gamma)^{b_i} (1-unit) f_i
and phi(f_i) = d_i (1-unit) X^{t_i} f_{i+1}, commutation of phi and gamma
forces b_{i+1} = b_i - t_i mod (p-1); equivalently the eigencharacter
exponents satisfy a_{i+1} = a_i + s_i.  The chain is validated at
construction; summed around the cycle, it makes p-1 divide the
normalizer's sum p^{n-j} t_j.
"""

from __future__ import annotations

from .coeff import factorial_in
from .chars import HChar
from .galois import InducedParams, tame_twist
from .laurent import LaurentSeries, binom_neg_mod_p, frobenius_phi, gamma_act, one_unit_exponent
from .record import Record

__all__ = [
    "SSData",
    "CyclicForm",
    "NormalForm",
    "ss_partner",
    "ss_data",
    "dual_basis_form",
    "cycle_form",
    "normalize_cyclic",
    "galois_of_ss",
    "e_exponents",
    "simulate_dual_frobenius",
    "simulate_dual_gamma",
    "params_of_normal_form",
]


class SSData(Record):
    """The cycle tables attached to a supersingular parameter r."""

    __slots__ = ("spec", "r", "r_prime", "chi", "s", "c", "weights")

    def __init__(self, spec, r, r_prime, chi, s, c, weights):
        self.spec = spec
        self.r = r
        self.r_prime = r_prime
        self.chi = chi  # 4 HChar eigencharacters
        self.s = s  # 4 cycle exponents, s_i = r_{i+1}
        self.c = c  # 4 nonzero constants
        self.weights = weights  # 4 pairs (r_i, b_i)

    @property
    def p(self):
        return self.spec.p

    @property
    def n(self):
        return 4

    def gamma_exponents(self):
        """The Gamma-eigenexponents a_i (first torus exponent of chi_i)."""
        return tuple(ch.e1 for ch in self.chi)


def ss_partner(p, r):
    """The supersingular partner r' of r: (p-1)/2 - r below (p-1)/2,
    3(p-1)/2 - r above it."""
    half = (p - 1) // 2
    return half - r if r < half else 3 * half - r


def ss_data(spec, r):
    """All tables for the supersingular parameter r (excluded: r = (p-1)/2).
    The eigencharacters (r, 0), (h, r), (r+h, h), (0, r+h) mod p-1, with
    h = (p-1)/2, are pairwise distinct, so the cycle is irreducible."""
    p = spec.p
    if not 0 <= r <= p - 1:
        raise ValueError("parameter out of range")
    half = (p - 1) // 2
    if r == half:
        raise ValueError("excluded parameter")
    r_prime = ss_partner(p, r)
    chi = HChar(p, r, 0)
    chis = (
        chi,
        chi.swap().bracket(1, 0),
        chi.bracket(1, 1),
        chi.swap().bracket(0, 1),
    )
    weights = ((r, 0), (r_prime, r), (r, half), (r_prime, (r + half) % (p - 1)))
    s = (r_prime, r, r_prime, r)
    rf = factorial_in(spec, r)
    rpf = factorial_in(spec, r_prime)
    # the signs (-1)^r, (-1)^half and (-1)^(r+half) by negation, not by a
    # product, so no log table of spec is built
    c_half = -rf if half % 2 else rf
    c = (-rpf if r % 2 else rpf, c_half, -rpf if (r + half) % 2 else rpf, c_half)
    return SSData(spec, r, r_prime, chis, s, c, weights)


class CyclicForm(Record):
    """A cyclic phi-basis: phi(f_i) = d_i g_i(X) X^{t_i} f_{i+1},
    gamma(f_i) = omega(gamma)^{b_i} (1-unit) f_i."""

    __slots__ = ("spec", "n", "d", "t", "b", "noise")

    def __init__(self, spec, n, d, t, b, noise):
        lengths = [len(d), len(t), len(b), len(noise)]
        if n < 1 or lengths != [n] * 4:
            raise ValueError(
                f"cyclic form of rank {n} needs n >= 1 and n entries in each of"
                f" d, t, b and noise, not {lengths}"
            )
        p = spec.p
        b = tuple(x % (p - 1) for x in b)
        for di in d:
            if di.is_zero():
                raise ValueError("cycle constants must be nonzero")
        for i in range(n):
            if (b[(i + 1) % n] - b[i] + t[i]) % (p - 1):
                raise ValueError("not phi-gamma compatible")
        for g in noise:
            if g is not None and not g.is_one_unit():
                raise ValueError("noise must be a 1-unit")
        self.spec = spec
        self.n = n
        self.d = d  # nonzero constants
        self.t = t  # integer exponents
        self.b = b  # omega-exponents mod p-1
        self.noise = noise  # 1-unit series g_i, or None entries meaning exactly 1


class NormalForm(Record):
    """The noise-free invariants of a cyclic form: total exponent, product
    constant, and the omega-exponent of the first basis vector."""

    __slots__ = ("spec", "n", "t", "d", "b1")

    def __init__(self, spec, n, t, d, b1):
        self.spec = spec
        self.n = n
        self.t = t
        self.d = d
        self.b1 = b1


def cycle_form(spec, s, c, a):
    """The dual-basis cyclic form of generic cycle data (s_i, c_i, a_i).

    d_i = c_i^{-1}, t_i = s_i - (p-1), b_i = -a_i; the 1-units of the
    containment are unknown at this level and are set to 1 (the
    classification is insensitive to them).
    """
    p = spec.p
    n = len(s)
    if len(c) != n or len(a) != n:
        raise ValueError("cycle data lengths differ")
    if all(si == 0 for si in s):
        raise ValueError("finite-dimensional, dual vanishes")
    for ci in c:
        if ci.is_zero():
            raise ValueError("cycle constants must be nonzero")
    d = tuple(ci.inv() for ci in c)
    t = tuple(si - (p - 1) for si in s)
    b = tuple(-ai % (p - 1) for ai in a)
    return CyclicForm(spec, n, d, t, b, (None,) * n)


def dual_basis_form(data):
    """The cyclic form of the dual basis attached to supersingular data."""
    return cycle_form(data.spec, data.s, data.c, data.gamma_exponents())


def normalize_cyclic(form, prec):
    """Kill the 1-unit noise and return the NormalForm plus the basis change.

    The change of basis h_i is the convergent product of the Frobenius
    shifts phi^k(g_{i-k-1}) of the noise with p^k < N, the others being 1
    mod X^N; the invariants are t = -(sum p^{n-j} t_j)/(p-1), d = prod d_i
    and b1.
    """
    if prec < 1:
        raise ValueError(f"prec (X-adic precision) must be >= 1, got {prec}")
    p = form.spec.p
    n = form.n
    t = -(sum(p ** (n - j) * form.t[j - 1] for j in range(1, n + 1)) // (p - 1))
    d = form.spec.one()
    for di in form.d:
        d = d * di
    hs = []
    for i in range(n):
        h, k = LaurentSeries.one(form.spec, prec), 0
        while p ** k < prec:
            g = form.noise[(i - k - 1) % n]
            if g is not None:
                h = h * frobenius_phi(g, k, prec)
            k += 1
        hs.append(h)
    return NormalForm(form.spec, n, t, d, form.b[0]), hs


def galois_of_ss(data):
    """The induced parameter of supersingular cycle data (first eigenvector
    route): exponent e(1)/(p-1) twisted by omega^{a_1 - 1}, with unramified
    value prod(c_i).  p-1 divides e(1) = (p^2+1)(p r' + r), since r + r' is
    (p-1)/2 or 3(p-1)/2."""
    e, _ = e_exponents(data, 1, 1)
    lam = data.spec.one()
    for ci in data.c:
        lam = lam * ci
    return tame_twist(InducedParams(4, e // (data.p - 1), lam), data.gamma_exponents()[0] - 1)


def params_of_normal_form(nf):
    """The induced parameter encoded by a NormalForm (no dualization)."""
    return tame_twist(InducedParams(nf.n, nf.t, nf.d), nf.b1)


def e_exponents(data, i, m):
    """The window exponents e(i) = sum_j p^{n-1-j} s_{i+j} and
    e(i)_m = e(i) (1 - p^{nm})/(1 - p^n); i is 1-based."""
    if m < 1:
        raise ValueError("level must be >= 1")
    n = data.n
    if not 1 <= i <= n:
        raise ValueError(f"basis index must be in 1..{n}")
    p = data.p
    e = sum(p ** (n - 1 - j) * data.s[(i - 1 + j) % n] for j in range(n))
    e_m = e * (p ** (n * m) - 1) // (p ** n - 1)
    return e, e_m


def _choose_level(data, i, K):
    p = data.p
    need = p * K + (p - 1)
    m = 1
    while e_exponents(data, i, m)[1] < need:
        m += 1
    return m


def simulate_dual_frobenius(data, i, K, m=None):
    """Finite-level computation of phi(f_i), reported as a Laurent series
    in the coefficient of f_{i+1}, with its 1-unit part exact to K digits.

    The model is the finite quotient pi_{i,m} = k[[X]]/(X^{e(i)_m + 1}) of
    the cycle.  It realizes v_i as X^{e(i)_m}, the functional f_i as
    extraction of the top coefficient and F: pi_{i,m} -> pi_{i+1,m+1} as
    f(X) -> c_i f(X^p) X^{shift}, shift = p^{nm} (e(i+1) - s_i), all forced
    by the defining relations.  phi(f_i) is reconstructed through the
    identity

        sum_j (1+X)^j phi(((1+X)^{-j} f) o F) = f  at  f = X^{s_i} f_{i+1}

    from the pairings of (1+X)^{-j} X^{s_i} f_{i+1} with F(X^{e(i)_m - l}).
    F sends that monomial to the single term c_i X^e, e = p (e(i)_m - l) +
    shift, so the pairing is c_i binom(-j, top - s_i - e) with top =
    e(i+1)_{m+1}; it is 0 when e > top, where the binomial's lower index is
    negative.  So phi(f_i) = X^{s_i} A^{-1} f_{i+1} with

        A = c_i sum_{j<p} (1+X)^j H_j(X^p),
        H_j(Y) = sum_l binom(-j, top - s_i - p e(i)_m - shift + p l) Y^l,

    needed mod X^{p-1+K}.  The sum has integer coefficients mod p, so it is
    taken by Horner's rule in 1+X on one list of residues mod p (for
    j = p-1 down to 0, multiply by 1+X and add H_j(X^p)) and scaled by c_i
    once.
    """
    if K < 1:
        raise ValueError(f"K (digits of the 1-unit) must be >= 1, got {K}")
    p, n = data.p, data.n
    if m is None:
        m = _choose_level(data, i, K)
    _, e_m = e_exponents(data, i, m)
    if e_m < p * K + (p - 1):
        raise ValueError("window too small")
    s_i = data.s[i - 1]
    e_next, _ = e_exponents(data, i % n + 1, 1)
    if (e_next - s_i) % p:
        raise AssertionError("cycle exponents break F's divisibility")
    shift = p ** (n * m) * (e_next - s_i)
    _, top = e_exponents(data, i % n + 1, m + 1)
    low = top - s_i - p * e_m - shift  # the binomial's lower index at l = 0
    N = p - 1 + K
    acc = [0] * N
    for j in range(p - 1, -1, -1):
        acc = [(a + b) % p for a, b in zip(acc, [0] + acc)]
        for e in range(0, N, p):
            acc[e] = (acc[e] + binom_neg_mod_p(j, low + e, p)) % p
    A = LaurentSeries.from_int_coeffs(data.spec, dict(enumerate(acc)), N).scale(data.c[i - 1])
    return A.invert_series().shift(s_i)


def simulate_dual_gamma(data, i, c, digits=3):
    """Finite-level computation of gamma(f_i) = H(X) f_i for an integer unit c.

    Returns H as a Laurent series with `digits` known coefficients; its
    leading coefficient is the inverse eigenvalue chi_i(c)^{-1}.  On the
    quotient pi_{i,m} of simulate_dual_frobenius, coefficient l of H is the
    top coefficient of chi_i(c^{-1}) gamma_{c^{-1}}(X^{e(i)_m - l}), with
    c^{-1} exact modulo a power of p above e(i)_m.
    """
    p = data.p
    spec = data.spec
    if c % p == 0:
        raise ValueError("unit must be coprime to p")
    m = _choose_level(data, i, max(digits, 2))
    _, e_m = e_exponents(data, i, m)
    if e_m < digits:
        raise ValueError("window too small")
    c_inv = pow(c, -1, one_unit_exponent(p, e_m + 2))
    chi_val = spec.from_int(pow(c_inv % p, data.gamma_exponents()[i - 1], p))
    coeffs = {
        l: gamma_act(c_inv, LaurentSeries.monomial(spec, e_m - l, e_m + 1)).coeff(e_m) * chi_val
        for l in range(digits)
    }
    return LaurentSeries(spec, coeffs, digits)
