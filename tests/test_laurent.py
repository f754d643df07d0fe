import random

import pytest

from metaplectic.coeff import field_make
from metaplectic.laurent import (
    LaurentSeries,
    binom_neg_mod_p,
    frobenius_phi,
    gamma_act,
    one_unit_root,
    phi_basis_decompose,
    psi_ring,
)

F3 = field_make(3)
F5 = field_make(5)

rng = random.Random(101)


def rand_series(spec, prec, val=-2, density=0.4):
    coeffs = {
        e: spec.from_int(rng.randrange(spec.p))
        for e in range(val, prec)
        if rng.random() < density
    }
    return LaurentSeries(spec, coeffs, prec)


def root_oracle(f, n):
    """Independent solve-degree-by-degree n-th root of a 1-unit."""
    spec = f.spec

    def mul(a, b, cut):
        out = {}
        for e1, a1 in a.items():
            for e2, a2 in b.items():
                if e1 + e2 <= cut:
                    key = e1 + e2
                    out[key] = out.get(key, spec.zero()) + a1 * a2
        return {k: v for k, v in out.items() if not v.is_zero()}

    g = {0: spec.one()}
    n_inv = spec.from_int(n).inv()
    for d in range(1, f.prec):
        acc = {0: spec.one()}
        base = dict(g)
        e = n
        while e:
            if e & 1:
                acc = mul(acc, base, d)
            e >>= 1
            if e:
                base = mul(base, base, d)
        gd = (f.coeff(d) - acc.get(d, spec.zero())) * n_inv
        if not gd.is_zero():
            g[d] = gd
    return LaurentSeries(spec, g, f.prec)


def test_frobenius_examples():
    f = LaurentSeries.from_int_coeffs(F3, {1: 1, 2: 1}, 10)
    out = frobenius_phi(f)
    assert out.agrees_with(LaurentSeries.from_int_coeffs(F3, {3: 1, 6: 1}, 30))
    assert out.prec == 30
    const = LaurentSeries.from_int_coeffs(F5, {0: 3}, 7)
    assert frobenius_phi(const).agrees_with(const, upto=7)
    assert frobenius_phi(LaurentSeries.monomial(F5, -1, 6)).valuation == -5


def test_gamma_act_examples():
    x = LaurentSeries.monomial(F3, 1, 8)
    assert gamma_act(1, x) is x
    out = gamma_act(2, x)
    assert out.agrees_with(LaurentSeries.from_int_coeffs(F3, {1: 2, 2: 1}, 8))
    # c = 1 + p acts trivially mod X^2 but not mod X^3
    out = gamma_act(4, x)
    assert int(out.coeff(1)) == 1
    with pytest.raises(ValueError, match="coprime"):
        gamma_act(3, x)


def test_gamma_on_power_of_p_exponent():
    # (1+X)^c - 1 at c = p^k umlauts to X^{p^k} plus nothing (Lucas)
    from metaplectic.laurent import gamma_transform

    g = gamma_transform(9, F3, 20)
    assert g.agrees_with(LaurentSeries.monomial(F3, 9, 20))


def test_gamma_composition_property():
    for _ in range(25):
        f = rand_series(F3, 12)
        assert gamma_act(2, gamma_act(4, f)).agrees_with(gamma_act(8, f))
    for _ in range(10):
        f = rand_series(F5, 14)
        assert gamma_act(2, gamma_act(3, f)).agrees_with(gamma_act(6, f))


def test_phi_gamma_commute_on_ring():
    for _ in range(25):
        f = rand_series(F5, 15)
        lhs = frobenius_phi(gamma_act(7, f))
        rhs = gamma_act(7, frobenius_phi(f))
        assert lhs.agrees_with(rhs)


def test_invert_examples():
    f = LaurentSeries.from_int_coeffs(F3, {0: 1, 1: 1}, 4)
    assert f.invert_series().agrees_with(
        LaurentSeries.from_int_coeffs(F3, {0: 1, 1: 2, 2: 1, 3: 2}, 4)
    )
    x = LaurentSeries.monomial(F3, 1, 5)
    assert x.invert_series().valuation == -1
    with pytest.raises(ValueError, match="not invertible"):
        LaurentSeries.zero(F3, 5).invert_series()
    for _ in range(20):
        f = rand_series(F5, 14)
        if f.is_zero():
            continue
        prod = f * f.invert_series()
        assert prod.agrees_with(LaurentSeries.one(F5, prod.prec))


def test_one_unit_root_examples_and_oracle():
    one = LaurentSeries.one(F3, 10)
    assert one_unit_root(one, 7).agrees_with(one)
    f = LaurentSeries.from_int_coeffs(F3, {0: 1, 1: 1}, 8)
    sq = (f * f).truncate(8)
    assert one_unit_root(sq, 2).agrees_with(f)
    r = one_unit_root(f, 2)
    assert r.agrees_with(root_oracle(f, 2))
    assert int(r.coeff(1)) == 2 and int(r.coeff(2)) == 1
    assert (r * r).agrees_with(f)


def test_one_unit_root_random_vs_oracle():
    for _ in range(12):
        tail = rand_series(F5, 12, val=1, density=0.6)
        f = LaurentSeries.one(F5, 12) + tail
        if not f.is_one_unit():
            continue
        for n in (2, 3, 7, 5 ** 4 - 1):
            r = one_unit_root(f, n)
            assert r.agrees_with(root_oracle(f, n))
            assert r.pow(n).agrees_with(f)


def test_one_unit_root_errors():
    with pytest.raises(ValueError, match="root not unique"):
        one_unit_root(LaurentSeries.one(F3, 6), 3)
    with pytest.raises(ValueError, match="not a one-unit"):
        one_unit_root(LaurentSeries.monomial(F3, 1, 6), 2)
    with pytest.raises(ValueError, match="not a one-unit"):
        one_unit_root(LaurentSeries.from_int_coeffs(F3, {0: 2}, 6), 2)


def test_decompose_examples():
    comps = phi_basis_decompose(LaurentSeries.one(F3, 9))
    assert comps[0].agrees_with(LaurentSeries.one(F3, comps[0].prec))
    assert all(c.is_zero() for c in comps[1:])
    # f = (1+X)^2 phi(h) has only the index-2 component
    h = rand_series(F3, 6, val=0)
    one_plus = LaurentSeries.from_int_coeffs(F3, {0: 1, 1: 1}, 20)
    f = (one_plus.pow(2) * frobenius_phi(h)).truncate(18)
    comps = phi_basis_decompose(f)
    assert comps[2].agrees_with(h)
    assert comps[0].is_zero() or comps[0].valuation >= comps[0].prec
    # f = X^{p-1}: 0-component is (-1)^{p-1} = 1
    comps = phi_basis_decompose(LaurentSeries.monomial(F3, 2, 9))
    assert comps[0].agrees_with(LaurentSeries.one(F3, comps[0].prec))


def test_decompose_reassembly_property():
    for spec in (F3, F5):
        p = spec.p
        for _ in range(20):
            f = rand_series(spec, 21)
            comps = phi_basis_decompose(f)
            bound = min(c.prec for c in comps) * p
            assert bound >= (21 // p - 1) * p
            one_plus = LaurentSeries.from_int_coeffs(spec, {0: 1, 1: 1}, bound + p)
            acc = LaurentSeries.zero(spec, bound)
            for i, gi in enumerate(comps):
                term = frobenius_phi(gi)
                if i:
                    term = term * one_plus.pow(i)
                acc = acc + term
            assert acc.agrees_with(f)


def test_psi_ring_example():
    g0 = psi_ring(LaurentSeries.monomial(F3, -1, 9))
    assert g0.agrees_with(LaurentSeries.monomial(F3, -1, g0.prec))


def test_binom_neg():
    assert binom_neg_mod_p(0, 0, 5) == 1
    assert binom_neg_mod_p(0, 3, 5) == 0
    assert binom_neg_mod_p(1, 3, 5) == (-1) % 5
    assert binom_neg_mod_p(2, 3, 3) == (-4) % 3


def test_precision_contracts():
    f = rand_series(F5, 23)
    for c in phi_basis_decompose(f):
        assert c.prec >= 23 // 5 - 1
    g = rand_series(F3, 11, val=-3)
    assert gamma_act(2, g).prec == 11
    assert frobenius_phi(g).prec == 33


def test_gamma_act_rejects_non_units():
    f = LaurentSeries.from_int_coeffs(F3, {0: 1, 1: 1, 2: 2}, 6)
    with pytest.raises(ValueError, match="coprime"):
        gamma_act(6, f)
    for c in (0, -1, -2):
        with pytest.raises(ValueError, match="positive"):
            gamma_act(c, f)
