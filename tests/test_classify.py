import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic.coeff import field_make
from metaplectic.classify import (
    CyclicForm,
    cycle_form,
    dual_basis_form,
    e_exponents,
    galois_of_cycle,
    galois_of_ss,
    normalize_cyclic,
    simulate_dual_frobenius,
    simulate_dual_gamma,
    ss_data,
)
from metaplectic.laurent import LaurentSeries, binom_mod_p, binom_neg_mod_p, frobenius_phi
from metaplectic.meta import admissible
from metaplectic.selftest import duality_law, normal_form_law, rand_noisy_form

F3 = field_make(3)
F5 = field_make(5)
F7 = field_make(7)

rng = random.Random(55)


def test_ss_data_examples():
    d = ss_data(F5, 1)
    assert d.r_prime == 1
    assert d.s == (1, 1, 1, 1)
    assert [int(c) for c in d.c] == [4, 1, 4, 1]
    d = ss_data(F5, 0)
    assert d.r_prime == 2
    assert d.s == (2, 0, 2, 0)
    assert [int(c) for c in d.c] == [2, 1, 2, 1]
    assert d.weights == ((0, 0), (2, 0), (0, 2), (2, 2))
    with pytest.raises(ValueError, match="excluded parameter"):
        ss_data(F5, 2)
    with pytest.raises(ValueError, match="out of range"):
        ss_data(F5, 5)


def test_eigencharacter_chain():
    # commutation of phi and gamma forces a_{i+1} = a_i + s_i mod (p-1)
    for spec in (F3, F5, F7):
        p = spec.p
        for r in admissible(p):
            d = ss_data(spec, r)
            a = d.gamma_exponents()
            for i in range(4):
                assert (a[(i + 1) % 4] - a[i] - d.s[i]) % (p - 1) == 0


def test_dual_basis_form_examples():
    f = dual_basis_form(ss_data(F5, 1))
    assert f.t == (-3, -3, -3, -3)
    assert [int(x) for x in f.d] == [4, 1, 4, 1]
    assert f.b[0] == 3  # -a_1 = -r mod 4
    f = dual_basis_form(ss_data(F5, 0))
    assert f.t == (-2, -4, -2, -4)
    assert [int(x) for x in f.d] == [3, 1, 3, 1]
    # single-node cycle (consistency forces s_1 = 0 mod p-1)
    f = cycle_form(F5, [8], [F5.from_int(2)], [0])
    assert f.t == (4,)
    with pytest.raises(ValueError, match="dual vanishes"):
        cycle_form(F5, [0, 0], [F5.one(), F5.one()], [0, 0])


def test_normalize_examples():
    nf, _ = normalize_cyclic(dual_basis_form(ss_data(F5, 0)), 30)
    assert nf.t == 91 and int(nf.d) == 4 and nf.b1 == 0
    nf, _ = normalize_cyclic(cycle_form(F5, [4], [F5.from_int(2)], [1]), 20)
    assert nf.t == 0 and int(nf.d) == 3 and nf.b1 == 3


def test_cyclic_form_validation():
    with pytest.raises(ValueError, match="not phi-gamma compatible"):
        CyclicForm(F5, 2, (F5.one(), F5.one()), (1, 2), (0, 0), (None, None))
    with pytest.raises(ValueError, match="nonzero"):
        cycle_form(F5, [1, 3], [F5.zero(), F5.one()], [0, 1])
    with pytest.raises(ValueError, match="inconsistent Gamma data"):
        galois_of_cycle(F5, 2, [1, 2], [F5.one(), F5.one()], 0)


def test_noise_invariance_and_change_of_basis():
    for p in (3, 5):
        normal_form_law(rng, (p,), 25, 25)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.data())
def test_basis_change_at_low_precision_claims_only_true_digits(data):
    # the noise is known mod X^noise_prec, which may lie above or below N
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    _, noisy = rand_noisy_form(rng, (3, 5, 7), data.draw(st.integers(2, 80)))
    N = data.draw(st.integers(1, 99))
    nf, hs = normalize_cyclic(noisy, N)
    nf_high, hs_high = normalize_cyclic(noisy, data.draw(st.integers(N + 1, 100)))
    assert nf == nf_high
    for got, want in zip(hs, hs_high, strict=True):
        assert got.prec <= want.prec
        assert got.agrees_with(want)


def test_galois_of_cycle_examples():
    g = galois_of_ss(ss_data(F5, 1))
    assert g.H == 39 and g.Lam.is_one()
    g = galois_of_ss(ss_data(F5, 0))
    assert g.H == (65 + 3 * 156) % 624 and int(g.Lam) == 4
    g = galois_of_cycle(F5, 1, [4], [F5.from_int(2)], 2)
    assert g.n == 1 and g.H == (1 + (2 - 1) * 1) % 4 and int(g.Lam) == 2


def test_duality_consistency():
    # dual of the normal-form parameters equals the cycle parameters
    duality_law((3, 5, 7), 25)


def test_e_exponents():
    d = ss_data(F5, 1)
    for i in (1, 2, 3, 4):
        e, em = e_exponents(d, i, 1)
        assert e == 156 and em == e
    d = ss_data(F5, 0)
    assert e_exponents(d, 1, 1)[0] == 260
    assert e_exponents(d, 1, 2)[1] == 260 * (1 + 625)


def test_simulation_gamma_leading():
    for spec, rs in ((F3, (0, 2)),):
        p = spec.p
        for r in rs:
            data = ss_data(spec, r)
            a = data.gamma_exponents()
            for i in (1, 2, 3, 4):
                for c in (2, 1 + p):
                    H = simulate_dual_gamma(data, i, c, digits=3)
                    expect = spec.from_int(pow(c % p, a[i - 1], p)).inv()
                    assert H.coeff(0) == expect


def test_simulation_basis_index_bounds():
    data = ss_data(F3, 0)
    for i in (0, -1, 5, 7):
        with pytest.raises(ValueError, match="basis index"):
            simulate_dual_frobenius(data, i, 3)
        with pytest.raises(ValueError, match="basis index"):
            simulate_dual_gamma(data, i, 2)


def test_simulation_level_independence():
    from metaplectic.classify import _choose_level

    data = ss_data(F3, 0)
    m0 = _choose_level(data, 1, 3)
    o1 = simulate_dual_frobenius(data, 1, 3)
    o2 = simulate_dual_frobenius(data, 1, 3, m=m0 + 1)
    assert o1.agrees_with(o2)


def reference_simulate_dual_frobenius(data, i, K):
    """simulate_dual_frobenius as the explicit sum over j < p of
    (1+X)^j phi(H_j), one binomial series and one product per j."""
    from metaplectic.classify import _choose_level

    p, n = data.p, data.n
    spec = data.spec
    m = _choose_level(data, i, K)
    _, e_m = e_exponents(data, i, m)
    s_i = data.s[i - 1]
    c_i = data.c[i - 1]
    e_next, _ = e_exponents(data, i % n + 1, 1)
    shift = p ** (n * m) * (e_next - s_i)
    _, top = e_exponents(data, i % n + 1, m + 1)
    digits = (p - 1 + K) // p + 2
    low = top - s_i - p * e_m - shift
    acc = LaurentSeries.zero(spec, p * digits)
    for j in range(p):
        pairings = {l: binom_neg_mod_p(j, low + p * l, p) for l in range(digits)}
        h = LaurentSeries.from_int_coeffs(spec, pairings, digits).scale(c_i)
        binomial = {k: binom_mod_p(j, k, p) for k in range(j + 1)}
        acc = acc + LaurentSeries.from_int_coeffs(spec, binomial, p * digits) * frobenius_phi(h)
    return acc.truncate(p - 1 + K).invert_series().shift(s_i)


def test_simulation_matches_the_explicit_sum():
    for p in (3, 5, 7, 11, 13):
        for m in (1, 2):
            spec = field_make(p, m)
            for r in admissible(p):
                data = ss_data(spec, r)
                for i in (1, 2, 3, 4):
                    for K in (1, 4, 20):
                        expect = reference_simulate_dual_frobenius(data, i, K)
                        assert simulate_dual_frobenius(data, i, K) == expect, (p, m, r, i, K)


def test_simulation_window_error():
    data = ss_data(F3, 0)
    with pytest.raises(ValueError, match="window too small"):
        simulate_dual_frobenius(data, 1, 40, m=1)

