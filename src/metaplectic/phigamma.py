"""Etale (phi,Gamma)-modules over k((X)) at finite X-adic precision.

A module of rank n is stored through its phi-matrix (column j holds the
coordinates of phi(e_j)) and a Gamma-oracle mapping an exact integer unit
c and a requested precision to the matrix of the action of the unit.  The
action of Gamma is an oracle rather than stored data: the group is
infinite, every constructed module has a closed-form action, and generic
modules supply finitely many sampled units.

Constructors implement the standard dictionary entries: rank-1 modules of
tame characters, the n-dimensional modules attached to induced
representations of unramified degree-n subfields (with the fractional
power of the 1-unit omega(gamma) X / gamma(X) computed through its unique
(p^n - 1)-th root), twists, duals and tensor products.  The psi operator
extracts the 0-component of the (1+X)^i-basis decomposition after
applying the inverse of the phi-matrix.
"""

from __future__ import annotations

from .coeff import FieldElem
from .laurent import (
    LaurentSeries,
    frobenius_phi,
    gamma_act,
    gamma_transform,
    one_unit_root,
    phi_basis_decompose,
)

__all__ = [
    "PhiGammaModule",
    "make_rank1",
    "make_induced",
    "twist",
    "dual",
    "tensor",
    "psi",
    "etale_check",
    "mat_mul",
    "mat_vec",
    "mat_inv",
    "mat_det",
    "identity_matrix",
]


# -- small dense matrices over LaurentSeries -------------------------------


def identity_matrix(spec, n, prec):
    one = LaurentSeries.one(spec, prec)
    zero = LaurentSeries.zero(spec, prec)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _fma(acc, a, b):
    """acc + a*b under the matrix ops' one precision rule; acc None is 0.

    A zero known mod X^k is an unknown of valuation >= k, so its product
    with b is an unknown of valuation >= k + v(b): the precision a*b would
    claim (Caruso-Roe-Vaccon).  Such a product is not formed; it caps the
    precision of acc, and changes nothing when acc claims no digit past it.
    """
    if a.is_zero():
        cap = a.prec + b.val_or_prec()
    elif b.is_zero():
        cap = b.prec + a.val_or_prec()
    else:
        term = a * b
        if acc is None:
            return term
        # a zero acc only caps the precision of the term
        return term.truncate(acc.prec) if acc.is_zero() else acc + term
    return LaurentSeries.zero(a.spec, cap) if acc is None else acc.truncate(cap)


def mat_mul(A, B):
    """Matrix product; each entry sums its terms with `_fma`."""
    out = []
    for row in A:
        out_row = []
        for col in zip(*B):
            acc = None
            for a, b in zip(row, col, strict=True):
                acc = _fma(acc, a, b)
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_vec(A, v):
    """Matrix-vector product: mat_mul on the column v."""
    return [row[0] for row in mat_mul(A, [[x] for x in v])]


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def mat_scale(A, a):
    return [[entry.scale(a) if isinstance(a, FieldElem) else entry * a for entry in row] for row in A]


def mat_map(fn, A):
    return [[fn(entry) for entry in row] for row in A]


def mat_kron(A, B):
    nA, nB = len(A), len(B)
    out = []
    for i in range(nA):
        for k in range(nB):
            row = []
            for j in range(nA):
                for l in range(nB):
                    row.append(A[i][j] * B[k][l])
            out.append(row)
    return out


def _gauss_jordan(A):
    """Gauss-Jordan elimination of [A | I] with least-valuation pivots.

    Returns (pivots, A^-1); det A is the product of the pivots, each
    negated when its row was swapped.  When no entry left in column j is
    known to be nonzero, A is singular to the known digits: the inverse is
    None, and the last pivot is a zero known to the valuation that every
    term of the remaining block's Leibniz expansion (one entry per column)
    reaches.
    """
    n = len(A)
    spec = A[0][0].spec
    ident = identity_matrix(spec, n, max(e.prec for row in A for e in row))
    M = [list(row) + ident[i] for i, row in enumerate(A)]
    pivots = []
    for j in range(n):
        rows = [i for i in range(j, n) if not M[i][j].is_zero()]
        if not rows:
            known = sum(min(M[i][k].val_or_prec() for i in range(j, n)) for k in range(j, n))
            return pivots + [LaurentSeries.zero(spec, known)], None
        pivot = min(rows, key=lambda i: M[i][j].valuation)
        pivots.append(M[j][j] if pivot == j else -M[pivot][j])
        M[j], M[pivot] = M[pivot], M[j]
        piv_inv = M[j][j].invert_series()
        M[j] = [e * piv_inv for e in M[j]]
        for i in range(n):
            if i != j:
                factor = -M[i][j]
                M[i] = [_fma(a, factor, b) for a, b in zip(M[i], M[j])]
    return pivots, [row[n:] for row in M]


def mat_det(A):
    """Determinant: the product of the pivots of the elimination behind `mat_inv`."""
    pivots = _gauss_jordan(A)[0]
    det = pivots[0]
    for piv in pivots[1:]:
        det = det * piv
    return det


def mat_inv(A):
    """Inverse by Gauss-Jordan elimination; raises on a known-singular input."""
    inv = _gauss_jordan(A)[1]
    if inv is None:
        raise ValueError("not etale")
    return inv


# -- the module class -------------------------------------------------------


class PhiGammaModule:
    """A rank-n etale (phi,Gamma)-module at precision N.

    Immutable after construction; the gamma oracle must be pure.  Matrix
    columns hold images of basis vectors, so applying phi to a coordinate
    vector v computes Phi . phi_ring(v).
    """

    __slots__ = ("spec", "n", "phi", "_gamma_oracle", "prec", "_phi_inv", "_gamma_cache")

    def __init__(self, spec, phi, gamma_oracle, prec):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "n", len(phi))
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "_gamma_oracle", gamma_oracle)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "_phi_inv", None)
        object.__setattr__(self, "_gamma_cache", {})

    def __setattr__(self, *a):
        raise AttributeError("PhiGammaModule is immutable")

    def gamma_matrix(self, c, prec=None):
        if prec is None:
            prec = self.prec
        key = (c, prec)
        got = self._gamma_cache.get(key)
        if got is None:
            got = self._gamma_oracle(c, prec)
            self._gamma_cache[key] = got
        return got

    def phi_inv(self):
        inv = self._phi_inv
        if inv is None:
            inv = mat_inv(self.phi)
            object.__setattr__(self, "_phi_inv", inv)
        return inv

    def apply_phi(self, vec):
        return mat_vec(self.phi, [frobenius_phi(f) for f in vec])

    def apply_gamma(self, c, vec, prec=None):
        G = self.gamma_matrix(c, prec)
        return mat_vec(G, [gamma_act(c, f) for f in vec])


def make_rank1(chi, prec):
    """The rank-1 module of a tame character: phi(e) = chi(p) e, gamma(e) = chi(gamma) e."""
    spec = chi.spec

    phi = [[LaurentSeries(spec, {0: chi.unram}, prec * spec.p)]]

    def oracle(c, req_prec):
        return [[LaurentSeries(spec, {0: chi.value_at_unit(c)}, req_prec)]]

    return PhiGammaModule(spec, phi, oracle, prec)


def make_induced(spec, n, h, lam_n=None, tame=0, prec=40):
    """The n-dimensional module of an induced parameter (exponent h >= 0).

    phi cycles the basis with a final entry Lam X^{-h(p-1)}, where Lam is
    the stored n-th power of the unramified value; gamma acts diagonally
    by chi(gamma) w^{h p^{i-1} (p-1)} with w the unique (p^n - 1)-th root
    of omega(gamma) X / gamma(X) among 1-units.  Requires h >= 0 (shift
    by p^n - 1 beforehand when needed).
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

    def oracle(c, req_prec):
        if req_prec < 2:
            raise ValueError("insufficient precision")
        if c % p == 0:
            raise ValueError("unit must be coprime to p")
        # w = (omega(c) X / gamma(X))^{1/(p^n - 1)}, a 1-unit with F_p coefficients
        g = gamma_transform(c, spec, req_prec + 1)
        unit = g.shift(-1).invert_series().scale(spec.from_int(c))
        w = one_unit_root(unit.truncate(req_prec), p ** n - 1)
        chi_c = spec.from_int(pow(c % p, tame, p))
        out = [[LaurentSeries.zero(spec, req_prec) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            exp = h * (p ** i) * (p - 1)
            entry = w.pow(exp) if exp else LaurentSeries.one(spec, req_prec)
            out[i][i] = entry.scale(chi_c).truncate(req_prec)
        return out

    return PhiGammaModule(spec, phi, oracle, prec)


def twist(D, chi):
    """Scale phi by chi(p) and the action of each unit c by chi(c)."""
    phi = mat_scale(D.phi, chi.unram)

    def oracle(c, prec):
        return mat_scale(D.gamma_matrix(c, prec), chi.value_at_unit(c))

    return PhiGammaModule(D.spec, phi, oracle, D.prec)


def dual(D):
    """The dual module: inverse-transpose matrices, making evaluation equivariant."""
    phi = mat_transpose(mat_inv(D.phi))

    def oracle(c, prec):
        return mat_transpose(mat_inv(D.gamma_matrix(c, prec)))

    return PhiGammaModule(D.spec, phi, oracle, D.prec)


def tensor(D1, D2):
    """Tensor product via Kronecker products of the structure matrices."""
    if D1.spec != D2.spec:
        raise ValueError("modules live over different fields")
    phi = mat_kron(D1.phi, D2.phi)

    def oracle(c, prec):
        return mat_kron(D1.gamma_matrix(c, prec), D2.gamma_matrix(c, prec))

    return PhiGammaModule(D1.spec, phi, oracle, min(D1.prec, D2.prec))


def psi(D, vec):
    """The left inverse of phi on coordinate vectors.

    Solves c = Phi^{-1} v, decomposes each coordinate in the (1+X)^i
    basis over k((X^p)), keeps the 0-component and substitutes X^p -> X.
    The output precision is whatever the chain of exact operations
    supports and is carried on the returned series.
    """
    if len(vec) != D.n:
        raise ValueError(f"vector length {len(vec)} differs from the rank {D.n}")
    c = mat_vec(D.phi_inv(), vec)
    out = []
    for entry in c:
        g0 = phi_basis_decompose(entry)[0]
        out.append(g0)
    return out


def etale_check(D):
    """Whether the linearized phi is invertible, with a certificate.

    Returns (flag, certificate); the certificate carries the valuation
    and leading coefficient of det(phi) when the determinant is visibly
    nonzero at working precision.
    """
    det = mat_det(D.phi)
    if det.is_zero():
        return False, {"det_valuation": None, "leading": None, "precision": det.prec}
    return True, {
        "det_valuation": det.valuation,
        "leading": det.leading_coeff(),
        "precision": det.prec,
    }


def phi_gamma_commutes(D, c, upto=None):
    """Test G_c . gamma(Phi) == Phi . phi(G_c) entrywise up to precision."""
    G = D.gamma_matrix(c)
    lhs = mat_mul(G, mat_map(lambda e: gamma_act(c, e), D.phi))
    rhs = mat_mul(D.phi, mat_map(frobenius_phi, G))
    for i in range(D.n):
        for j in range(D.n):
            if not lhs[i][j].agrees_with(rhs[i][j], upto=upto):
                return False
    return True


def module_to_json(D, units=()):
    return {
        "rank": D.n,
        "precision": D.prec,
        "phi": [[e.to_json() for e in row] for row in D.phi],
        "gamma_samples": [
            {"c": c, "matrix": [[e.to_json() for e in row] for row in D.gamma_matrix(c)]}
            for c in units
        ],
    }


def module_from_json(obj, spec):
    from .laurent import series_from_json

    phi = [[series_from_json(e, spec) for e in row] for row in obj["phi"]]
    samples = {
        item["c"]: [[series_from_json(e, spec) for e in row] for row in item["matrix"]]
        for item in obj.get("gamma_samples", [])
    }

    def oracle(c, prec):
        if c not in samples:
            raise ValueError(f"no gamma sample stored for unit {c}")
        return [[e.truncate(prec) for e in row] for row in samples[c]]

    return PhiGammaModule(spec, phi, oracle, obj["precision"])
