import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic.coeff import field_make, is_prime
from metaplectic.classify import (
    CyclicForm,
    cycle_form,
    dual_basis_form,
    e_exponents,
    galois_of_ss,
    normalize_cyclic,
    simulate_dual_frobenius,
    simulate_dual_gamma,
    ss_data,
)
from metaplectic.galois import InducedParams, tame_twist
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


def reference_galois_of_cycle(spec, n, s, c, a1):
    """The induced Galois parameter of a cycle: exponent sum(p^{n-j} s_j)/(p-1)
    twisted by omega^{a1 - 1}, with unramified value prod(c_i)."""
    p = spec.p
    weighted = sum(p ** (n - j) * s[j - 1] for j in range(1, n + 1))
    if weighted % (p - 1):
        raise ValueError("inconsistent Gamma data")
    s_tot = weighted // (p - 1)
    lam = spec.one()
    for ci in c:
        if ci.is_zero():
            raise ValueError("cycle constants must be nonzero")
        lam = lam * ci
    return tame_twist(InducedParams(n, s_tot, lam), a1 - 1)


def test_galois_of_ss_matches_the_cycle_reference():
    for p in (3, 5, 7, 11, 13, 101):
        for m in (1, 2):
            spec = field_make(p, m)
            for r in admissible(p):
                data = ss_data(spec, r)
                expect = reference_galois_of_cycle(spec, 4, data.s, data.c, data.gamma_exponents()[0])
                assert galois_of_ss(data) == expect, (p, m, r)


def test_ss_eigencharacters_are_pairwise_distinct():
    # (r, 0), (h, r), (r+h, h) and (0, r+h) mod p-1, h = (p-1)/2: two of them
    # agree only if h = 0 mod p-1, so every supersingular cycle is irreducible
    for p in filter(is_prime, range(3, 1000, 2)):
        spec = field_make(p)
        for r in admissible(p):
            assert len(set(ss_data(spec, r).chi)) == 4, (p, r)


def test_cyclic_form_weighted_exponent_is_divisible():
    # the chain b_(i+1) = b_i - t_i mod p-1 that CyclicForm checks sums to
    # sum t_i = 0, and sum p^(n-j) t_j = sum t_j mod p-1
    grid = random.Random(33)
    built = 0
    for _ in range(2000):
        p = grid.choice((3, 5, 7, 11))
        spec = field_make(p)
        n = grid.randrange(1, 6)
        b = [grid.randrange(p - 1) for _ in range(n)]
        # a compatible t, each entry moved by a multiple of p-1; half the time
        # one entry slips by a non-multiple, and the constructor must refuse it
        t = [b[i] - b[(i + 1) % n] + (p - 1) * grid.randrange(-3, 4) for i in range(n)]
        if grid.random() < 0.5:
            t[grid.randrange(n)] += grid.randrange(1, p - 1)
        try:
            form = CyclicForm(spec, n, (spec.one(),) * n, tuple(t), tuple(b), (None,) * n)
        except ValueError:
            continue
        built += 1
        assert sum(p ** (n - j) * form.t[j - 1] for j in range(1, n + 1)) % (p - 1) == 0
    assert built > 800


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

