"""Etale (phi,Gamma)-modules over k((X)) at finite X-adic precision.

A module of rank n, known to one X-adic precision N, is stored through
its phi-matrix (column j holds the coordinates of phi(e_j)) and a
Gamma-oracle mapping an exact integer unit c to the matrix of its action
at precision N.  The action of Gamma is an oracle rather than stored
data: the group is infinite, every constructed module has a closed-form
action, and generic modules supply finitely many sampled units.

Constructors implement the standard dictionary entries: rank-1 modules of
tame characters, the n-dimensional modules attached to induced
representations of unramified degree-n subfields (gamma acts through one
integer power u^a of the 1-unit u = gamma(X) / (omega(gamma) X) and its
Frobenius images), twists and duals.  The psi operator extracts the
0-component of the (1+X)^i-basis decomposition after applying the inverse
of the phi-matrix.
"""

from __future__ import annotations

from .coeff import field_make
from .laurent import (
    LaurentSeries,
    extend_scalars,
    frobenius_phi,
    gamma_act,
    one_unit_exponent,
    psi_ring,
    unit_power,
)

__all__ = [
    "PhiGammaModule",
    "make_rank1",
    "make_induced",
    "twist",
    "dual",
    "psi",
    "mat_mul",
    "mat_vec",
    "mat_inv",
    "identity_matrix",
]


# -- small dense matrices over LaurentSeries -------------------------------


def identity_matrix(spec, n, prec):
    one = LaurentSeries.one(spec, prec)
    zero = LaurentSeries.zero(spec, prec)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _dot(row, col, start=None):
    """start + sum a*b over the pairs of row and col; start None is 0.

    Only pairs of two nonzero series are multiplied.  A zero known mod X^k
    is an unknown of valuation >= k, so its product with b is known only to
    k + v(b), the precision a*b would claim (Caruso-Roe-Vaccon): such a pair
    only caps the sum, which is cut once, to the least cap."""
    acc, prec = (None, None) if start is None else (start if start.res else None, start.prec)
    for a, b in zip(row, col, strict=True):
        if not a.res:
            cap = a.prec + b.v
        elif not b.res:
            cap = b.prec + a.v
        else:
            term = a * b
            cap = term.prec
            acc = term if acc is None else acc + term
        if prec is None or cap < prec:
            prec = cap
    return LaurentSeries.zero(row[0].spec, prec) if acc is None else acc.truncate(prec)


def mat_mul(A, B):
    """Matrix product, one `_dot` per entry."""
    return [[_dot(row, col) for col in zip(*B)] for row in A]


def mat_vec(A, v):
    """Matrix-vector product, one `_dot` per row."""
    return [_dot(row, v) for row in A]


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def mat_scale(A, a):
    return [[entry.scale(a) for entry in row] for row in A]


def mat_map(fn, A):
    return [[fn(entry) for entry in row] for row in A]


def mat_inv(A):
    """Inverse by Gauss-Jordan elimination of [A | I] with least-valuation
    pivots; raises when no entry left in a column is known to be nonzero.
    Each step eliminates the first column left and drops it, so after n
    steps the rows are the inverse.  The pivot row is scaled by b = a^-1
    for the pivot a.  A row whose factor is a known zero is only cut, to
    the caps of `_dot`; any other row is updated by `_dot`, each entry the
    starting sum."""
    n, spec = len(A), A[0][0].spec
    ident = identity_matrix(spec, n, max(e.prec for row in A for e in row))
    M = [list(row) + ident[i] for i, row in enumerate(A)]
    for j in range(n):
        rows = [i for i in range(j, n) if not M[i][0].is_zero()]
        if not rows:
            raise ValueError("not etale")
        pivot = min(rows, key=lambda i: M[i][0].valuation)
        M[j], M[pivot] = M[pivot], M[j]
        b = M[j][0].invert_series()
        top = M[j] = [e * b for e in M[j][1:]]
        for i in range(n):
            f = M[i][0]
            if i != j and f.res:
                f = (-f,)
                M[i] = [_dot(f, (t,), e) for e, t in zip(M[i][1:], top)]
            elif i != j:
                M[i] = [e.truncate(f.prec + t.v) for e, t in zip(M[i][1:], top)]
    return M


# -- the module class -------------------------------------------------------


class PhiGammaModule:
    """A rank-n etale (phi,Gamma)-module at precision N.

    Never changed after construction but for its caches of phi^-1 and
    of gamma matrices; the gamma oracle maps a checked unit c to its
    matrix at precision N, once per unit, and must be pure.  Phi is
    inverted once, on first use, and that inverse serves both `psi` and
    `dual`.
    Matrix columns hold images of basis vectors, so applying phi to a
    coordinate vector v computes Phi . phi_ring(v).
    """

    __slots__ = ("spec", "n", "phi", "_gamma_oracle", "prec", "_phi_inv", "_gamma_cache")

    def __init__(self, spec, phi, gamma_oracle, prec):
        self.spec, self.n, self.phi, self.prec = spec, len(phi), phi, prec
        self._gamma_oracle = gamma_oracle
        self._phi_inv = None
        self._gamma_cache = {}

    def gamma_matrix(self, c):
        if c < 1 or c % self.spec.p == 0:
            raise ValueError("unit must be a positive integer coprime to p")
        got = self._gamma_cache.get(c)
        if got is None:
            got = self._gamma_cache[c] = self._gamma_oracle(c)
        return got

    def phi_inv(self):
        inv = self._phi_inv
        if inv is None:
            inv = self._phi_inv = mat_inv(self.phi)
        return inv

    def apply_phi(self, vec):
        return mat_vec(self.phi, [frobenius_phi(f) for f in vec])

    def apply_gamma(self, c, vec):
        G = self.gamma_matrix(c)
        return mat_vec(G, [gamma_act(c, f) for f in vec])


def make_rank1(chi, prec):
    """The rank-1 module of a tame character: phi(e) = chi(p) e, gamma(e) = chi(gamma) e."""
    spec = chi.spec

    phi = [[LaurentSeries(spec, {0: chi.unram}, prec * spec.p)]]

    def oracle(c):
        return [[LaurentSeries(spec, {0: chi.value_at_unit(c)}, prec)]]

    return PhiGammaModule(spec, phi, oracle, prec)


def _pow_length(e, p, length, prec):
    """About how many coefficients `LaurentSeries.pow` multiplies out to raise
    a unit over F_p of `length` coefficients, known mod X^prec, to e >= 0:
    the base-p digit d at position k squares and multiplies the unit cut to
    K = ceil(prec/p^k) coefficients into u^d, of about n = min(d length, K)
    coefficients, and each digit past the first multiplies phi^k(u^d), of
    about n p^k, into the product so far, which grows by as much up to prec."""
    cost, out, k = 0, 0, 0
    while e:
        e, d = divmod(e, p)
        if d:
            n = min(d * length, -(-prec // p ** k))
            cost += (d.bit_length() + bin(d).count("1") - 2) * n
            grown = min(out + n * p ** k, prec)
            cost += grown if out else 0
            out = grown
        k += 1
    return cost


def make_induced(spec, n, h, lam_n=None, tame=0, prec=40):
    """The n-dimensional module of an induced parameter (exponent h >= 0).

    phi cycles the basis with a final entry Lam X^{-h(p-1)}, where Lam is
    the stored n-th power of the unramified value; gamma acts diagonally
    by chi(gamma) w^{h p^{i-1}(p-1)} = chi(gamma) phi^{i-1}(u^a) for the 1-unit
    polynomial u = gamma(X)/(omega(gamma) X) over F_p, w = u^{1/(1-p^n)} and
    a = h(p-1)/(1-p^n) mod q, q the least power of p that kills the 1-units
    mod X^N.  Requires h >= 0 (shift by p^n - 1 first).

    With g = gamma(X), u = c^-1 g/X, so the oracle of c takes (g/X)^e from
    `laurent.unit_power` and scales it once, by omega(c)^tame c^-e.  e is a,
    or a - q (u^q = 1 mod X^N) when raising to q - a and one inversion
    multiply out fewer coefficients than raising to a.  The unit table
    keeps the powers (g/X)^e per unit at the highest precision asked, within
    its bounds on units and residues, so a module built again at a unit it
    has seen raises nothing.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if h < 0:
        raise ValueError("exponent must be nonnegative")
    if prec < 2:
        raise ValueError("insufficient precision")
    if lam_n is None:
        lam_n = spec.one()
    if lam_n.is_zero():
        raise ValueError("unramified value must be nonzero")
    p = spec.p
    # the phi entries are exact monomials; carry enough precision that the
    # inverse matrix (exponent +h(p-1)) keeps full working precision
    entry_prec = prec * p + 2 * h * (p - 1) + p
    zero = LaurentSeries.zero(spec, entry_prec)
    phi = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        phi[i + 1][i] = LaurentSeries.one(spec, entry_prec)
    phi[0][n - 1] = LaurentSeries.monomial(spec, -h * (p - 1), entry_prec, lam_n)
    fp = field_make(p)
    q = one_unit_exponent(p, prec)
    a = h * (p - 1) * pow(1 - p ** n, -1, q) % q

    def oracle(c):
        # u^q = 1 mod X^prec, so u^(a-q), one inversion of u^(q-a), serves as
        # well as u^a: the choice counts the coefficients that pow multiplies
        # out for g/X, of min(c, prec) coefficients, and about four times
        # prec for the inversion
        length = min(c, prec)
        e = a - q if 4 * prec + _pow_length(q - a, p, length, prec) < _pow_length(a, p, length, prec) else a
        # chi(c) u^a = omega(c)^tame c^-e (g/X)^e for g = gamma(X), built over F_p, extended once
        w_h = unit_power(c, fp, e, prec).scale(fp.from_int(pow(c, tame - e, p)))
        w_h = extend_scalars(w_h, spec)
        zero = LaurentSeries.zero(spec, prec)
        diag = [frobenius_phi(w_h, i, prec) for i in range(n)]
        return [[diag[i] if i == j else zero for j in range(n)] for i in range(n)]

    return PhiGammaModule(spec, phi, oracle, prec)


def twist(D, chi):
    """Scale phi by chi(p) and the action of each unit c by chi(c)."""
    phi = mat_scale(D.phi, chi.unram)

    def oracle(c):
        return mat_scale(D.gamma_matrix(c), chi.value_at_unit(c))

    return PhiGammaModule(D.spec, phi, oracle, D.prec)


def dual(D):
    """The dual module: inverse-transpose matrices, making evaluation equivariant."""
    phi = mat_transpose(D.phi_inv())

    def oracle(c):
        return mat_transpose(mat_inv(D.gamma_matrix(c)))

    return PhiGammaModule(D.spec, phi, oracle, D.prec)


def psi(D, vec):
    """The left inverse of phi on coordinate vectors.

    Solves c = Phi^{-1} v and takes psi_ring of each coordinate: its
    0-component in the (1+X)^i basis over k((X^p)), with X^p -> X.
    The output precision is whatever the chain of exact operations
    supports and is carried on the returned series.
    """
    if len(vec) != D.n:
        raise ValueError(f"vector length {len(vec)} differs from the rank {D.n}")
    c = mat_vec(D.phi_inv(), vec)
    return [psi_ring(entry) for entry in c]


def phi_gamma_commutes(D, c):
    """Test G_c . gamma(Phi) == Phi . phi(G_c) entrywise up to precision."""
    G = D.gamma_matrix(c)
    lhs = mat_mul(G, mat_map(lambda e: gamma_act(c, e), D.phi))
    rhs = mat_mul(D.phi, mat_map(frobenius_phi, G))
    for i in range(D.n):
        for j in range(D.n):
            if not lhs[i][j].agrees_with(rhs[i][j]):
                return False
    return True

