import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import metaplectic.phigamma as phigamma
from metaplectic.coeff import field_make
from metaplectic.chars import TameChar, quadratic_chars
from metaplectic.cli import module_from_json, module_to_json
from metaplectic.laurent import LaurentSeries, gamma_transform, one_unit_root
from metaplectic.phigamma import (
    dual,
    identity_matrix,
    make_induced,
    make_rank1,
    mat_inv,
    mat_mul,
    mat_vec,
    phi_gamma_commutes,
    psi,
    twist,
)
from metaplectic.selftest import (
    psi_gamma_law,
    psi_law,
    rand_series,
    rand_vector,
    rank1_lattice_law,
)

F3 = field_make(3)
F5 = field_make(5)

rng = random.Random(31)


def test_make_rank1_examples():
    D = make_rank1(TameChar.trivial(F3), 20)
    assert D.phi[0][0].agrees_with(LaurentSeries.one(F3, 20))
    assert D.gamma_matrix(2)[0][0].agrees_with(LaurentSeries.one(F3, 20))
    D = make_rank1(TameChar(F3.from_int(2), 0), 20)
    assert int(D.phi[0][0].coeff(0)) == 2
    assert D.gamma_matrix(2)[0][0].agrees_with(LaurentSeries.one(F3, 20))
    D = make_rank1(TameChar(F3.one(), 1), 20)
    assert D.phi[0][0].agrees_with(LaurentSeries.one(F3, 20))
    assert int(D.gamma_matrix(2)[0][0].coeff(0)) == 2


def test_make_induced_shape():
    D = make_induced(F5, 4, 39, prec=30)
    assert D.phi[0][3].valuation == -156
    assert D.phi[1][0].agrees_with(LaurentSeries.one(F5, 30))
    # phi cycles the basis, so its inverse sends e_0 to X^156 e_3
    assert mat_inv(D.phi)[3][0].valuation == 156
    D1 = make_induced(F3, 1, 0, prec=20)
    assert D1.phi[0][0].agrees_with(LaurentSeries.one(F3, 20))
    with pytest.raises(ValueError, match="insufficient precision"):
        make_induced(F3, 2, 1, prec=1)


def test_phi_gamma_commutation():
    for spec, h in ((F3, 5), (F5, 5)):
        D = make_induced(spec, 4, h, prec=30)
        for c in (2, 1 + spec.p, 1 + spec.p ** 2):
            assert phi_gamma_commutes(D, c)
    D = make_induced(F3, 1, 2, prec=25)
    assert phi_gamma_commutes(D, 2)
    D = make_rank1(TameChar(F5.from_int(2), 3), 25)
    assert phi_gamma_commutes(D, 7)


def test_twist():
    chi1 = TameChar(F5.from_int(2), 1)
    chi2 = TameChar(F5.from_int(3), 2)
    Da = twist(make_rank1(chi1, 15), chi2)
    Db = make_rank1(chi1.mul(chi2), 15)
    assert Da.phi[0][0].agrees_with(Db.phi[0][0])
    assert Da.gamma_matrix(2)[0][0].agrees_with(Db.gamma_matrix(2)[0][0])
    base = make_rank1(chi1, 15)
    for eps in quadratic_chars(F5):
        Dc = twist(twist(base, eps), eps)
        assert Dc.phi[0][0].agrees_with(base.phi[0][0])
        assert Dc.gamma_matrix(3)[0][0].agrees_with(base.gamma_matrix(3)[0][0])


def test_dual():
    chi = TameChar(F5.from_int(2), 1)
    Dd = dual(make_rank1(chi, 15))
    assert Dd.phi[0][0].agrees_with(make_rank1(TameChar(chi.unram.inv(), -chi.tame), 15).phi[0][0])
    # evaluation equivariance: (phi-matrix of dual)^T . phi-matrix = identity
    D = make_induced(F5, 4, 5, prec=20)
    Ddual = dual(D)
    prod = mat_mul([list(r) for r in zip(*Ddual.phi)], D.phi)
    ident = identity_matrix(F5, 4, 10)
    for i in range(4):
        for j in range(4):
            assert prod[i][j].truncate(8).agrees_with(ident[i][j])
    with pytest.raises(ValueError, match="not etale"):
        zero = LaurentSeries.zero(F5, 10)
        from metaplectic.phigamma import PhiGammaModule

        dual(PhiGammaModule(F5, [[zero]], lambda c, n: [[zero]], 10))


def test_phi_is_inverted_once_for_psi_and_dual(monkeypatch):
    inverted = []

    def counting_inv(A):
        inverted.append(A)
        return mat_inv(A)

    monkeypatch.setattr(phigamma, "mat_inv", counting_inv)
    D = make_induced(F5, 4, 2, prec=16)
    v = [LaurentSeries.one(F5, 16)] * 4
    psi(D, v)
    Dd = dual(D)
    psi(D, v)
    assert [A is D.phi for A in inverted] == [True]
    assert Dd.phi == [list(col) for col in zip(*mat_inv(D.phi))]


def test_psi_examples():
    D = make_rank1(TameChar.trivial(F3), 30)
    out = psi(D, [LaurentSeries.from_int_coeffs(F3, {0: 1, 1: 1}, 30)])
    assert out[0].is_zero()
    out = psi(D, [LaurentSeries.monomial(F3, -1, 30)])
    assert out[0].agrees_with(LaurentSeries.monomial(F3, -1, out[0].prec))


def test_psi_phi_round_trip():
    for D in (
        make_induced(F3, 4, 5, prec=60),
        make_induced(F5, 4, 39, prec=80),
        make_rank1(TameChar(F3.from_int(2), 1), 60),
    ):
        assert psi_law(rng, D, 15) > 5


def test_projection_formulas():
    psi_law(rng, make_induced(F5, 4, 5, prec=50), 10)


def test_psi_gamma_equivariance():
    D = make_induced(F5, 4, 5, prec=50)
    for c in (2, 7):
        psi_gamma_law(rng, D, 6, c)


def test_rank1_lattice_stability():
    rank1_lattice_law(30)


def test_module_serialization():
    D = make_induced(F3, 2, 3, prec=12)
    obj = module_to_json(D, units=(2, 4))
    D2 = module_from_json(obj, F3)
    assert D2.n == 2 and D2.prec == 12
    for i in range(2):
        for j in range(2):
            assert D2.phi[i][j].agrees_with(D.phi[i][j])
            assert D2.gamma_matrix(2)[i][j].agrees_with(D.gamma_matrix(2)[i][j])
    with pytest.raises(ValueError, match="no gamma sample"):
        D2.gamma_matrix(7)


# -- truncation soundness -----------------------------------------------------
#
# Given an input cut to fewer digits, psi and the matrix ops may claim fewer
# digits of output than on the full input, but every digit they claim must be
# right.

TRUNCATION_MODULES = [
    D
    for spec in (F3, F5)
    for D in [make_induced(spec, 4, h, prec=40) for h in (0, 5, 39)]
    + [make_rank1(TameChar(spec.from_int(2), 1), 40)]
]
truncation_settings = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def claims_only_true_digits(got, want):
    assert got.prec <= want.prec
    assert got.agrees_with(want)


@truncation_settings
@given(st.data())
def test_psi_of_truncated_vector_claims_only_true_digits(data):
    D = data.draw(st.sampled_from(TRUNCATION_MODULES))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    lo = data.draw(st.integers(-4, 2))
    density = data.draw(st.sampled_from((0.2, 0.5, 0.9)))
    v = [rand_series(rng, D.spec, D.prec, lo=lo, density=density) for _ in range(D.n)]
    M = data.draw(st.integers(lo, D.prec))
    for got, want in zip(psi(D, [f.truncate(M) for f in v]), psi(D, v)):
        claims_only_true_digits(got, want)


def cut(x, M):
    """x truncated to M digits, for a series or a nested list of them."""
    return x.truncate(M) if isinstance(x, LaurentSeries) else [cut(y, M) for y in x]


def entries(x):
    return [x] if isinstance(x, LaurentSeries) else [e for y in x for e in entries(y)]


@truncation_settings
@given(st.data())
def test_matrix_op_of_truncated_input_claims_only_true_digits(data):
    D = data.draw(st.sampled_from(TRUNCATION_MODULES))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    G = D.gamma_matrix(data.draw(st.sampled_from((2, 1 + D.spec.p))))
    # entries of positive valuation become zeros known mod X^M when cut
    R = [
        [rand_series(rng, D.spec, D.prec, lo=rng.randrange(6), density=0.3) for _ in range(D.n)]
        for _ in range(D.n)
    ]
    matrices = st.sampled_from((D.phi, G, mat_mul(D.phi, G), R, mat_mul(D.phi, R)))
    op = data.draw(st.sampled_from((mat_inv, mat_mul, mat_vec)))
    args = [data.draw(matrices)]
    if op is mat_mul:
        args.append(data.draw(matrices))
    elif op is mat_vec:
        args.append(rand_vector(rng, D))
    M = data.draw(st.integers(1, max(e.prec for e in entries(args))))
    try:
        got = op(*cut(args, M))
    except ValueError as exc:
        if "not etale" not in str(exc):
            raise
        assume(False)
    for got_entry, want_entry in zip(entries(got), entries(op(*args)), strict=True):
        claims_only_true_digits(got_entry, want_entry)


def test_mat_inv_of_truncated_matrix_with_imprecise_zeros():
    # [[0, X^2], [1, X^5]] has inverse [[-X^3, 1], [X^-2, 0]]; cut to 5
    # digits, its (1,1) entry is a zero known mod X^5, so the (0,0) entry of
    # the inverse is known only mod X^3.
    A = [
        [LaurentSeries.zero(F5, 10), LaurentSeries.monomial(F5, 2, 10)],
        [LaurentSeries.one(F5, 10), LaurentSeries.monomial(F5, 5, 10)],
    ]
    inv = mat_inv([[e.truncate(5) for e in row] for row in A])
    for got, want in zip(inv[0], mat_inv(A)[0]):
        claims_only_true_digits(got, want)


def test_mat_vec_with_imprecise_zero():
    # X^2 cut to 2 digits is a zero known mod X^2: [[X^2, 1]] . [1, 1] is
    # 1 + X^2, so the cut product is known only mod X^2.
    one = LaurentSeries.one(F5, 40)
    A = [[LaurentSeries.monomial(F5, 2, 40), one]]
    got = mat_vec([[A[0][0].truncate(2), one]], [one, one])[0]
    assert got.prec == 2
    claims_only_true_digits(got, mat_vec(A, [one, one])[0])


# -- the gamma oracle of induced modules ---------------------------------------
#
# The reference builds each gamma matrix the long way: it inverts
# gamma(X)/(omega(c) X), takes the (p^n - 1)-th root w of that 1-unit, and
# raises w to h p^i (p-1) for each diagonal entry i.


def reference_induced_gamma(spec, n, h, tame, c, req_prec):
    p = spec.p
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


INDUCED_FIELDS = [field_make(p, m) for p in (3, 5, 7, 11, 13) for m in (1, 2)]
INDUCED_FIELDS += [field_make(3, 4), field_make(5, 4)]


@pytest.mark.parametrize("spec", INDUCED_FIELDS, ids=repr)
def test_induced_gamma_matches_the_dense_reference(spec):
    p = spec.p
    grid = random.Random(100 * p + spec.m)
    for h in (0, 1, grid.randrange(2, 100), 10 ** 30 + 7):
        unit = grid.choice([c for c in range(2, 10 ** 4) if c % p])
        for c, n in itertools.product((2, p + 1, unit), grid.sample(range(1, 7), 2)):
            tame = grid.randrange(p - 1)
            for req in (2, 300, *grid.sample(range(3, 300), 6)):
                D = make_induced(spec, n, h, tame=tame, prec=req)
                assert D.gamma_matrix(c) == reference_induced_gamma(spec, n, h, tame, c, req)


def test_induced_gamma_rejects_non_units():
    D = make_induced(F3, 2, 1, prec=10)
    for c in (0, -1, 3):
        with pytest.raises(ValueError):
            D.gamma_matrix(c)


def test_gamma_matrix_is_at_the_module_precision_once_per_unit():
    F25 = field_make(5, 2)
    chi = TameChar(F5.from_int(2), 1)
    base = make_induced(F5, 3, 7, tame=1, prec=30)
    built = [
        make_rank1(chi, 25),
        make_induced(F5, 2, 3, tame=2, prec=30),
        make_induced(F25, 2, 3, lam_n=F25.elem((1, 1)), prec=20),
        twist(base, chi),
        dual(base),
    ]
    obj = module_to_json(base, units=(2, 6))
    read = [module_from_json({**obj, "precision": N}, F5) for N in (12, 30, 50)]
    for D in built + read:
        for c in (2, 6):
            G = D.gamma_matrix(c)
            precs = {e.prec for e in entries(G)}
            assert precs == {D.prec} if D in built else max(precs) <= D.prec
            assert D.gamma_matrix(c) is G


def induced_family(spec, h, tame, prec):
    """An induced module and the twist and dual built on it."""
    D = make_induced(spec, 3, h, tame=tame, prec=prec)
    chi = TameChar(spec.from_int(2), 1)
    return [D, twist(D, chi), dual(D)]


@truncation_settings
@given(st.data())
def test_gamma_oracle_at_low_precision_claims_only_true_digits(data):
    spec = data.draw(st.sampled_from((F3, F5, field_make(7), field_make(5, 2))))
    p = spec.p
    h = data.draw(st.sampled_from((0, 1, 7, 10 ** 30 + 7)))
    tame = data.draw(st.integers(0, p - 2))
    c = data.draw(st.sampled_from((2, p + 1, p ** 2 + 2)))
    M = data.draw(st.integers(2, 40))
    for D, D60 in zip(induced_family(spec, h, tame, M), induced_family(spec, h, tame, 60)):
        got, want = D.gamma_matrix(c), D60.gamma_matrix(c)
        for got_entry, want_entry in zip(entries(got), entries(want), strict=True):
            claims_only_true_digits(got_entry, want_entry)
