import random
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import metaplectic.laurent as laurent
from metaplectic.coeff import field_make
from metaplectic.laurent import (
    LaurentSeries,
    binom_neg_mod_p,
    frobenius_phi,
    gamma_act,
    one_unit_root,
    phi_basis_decompose,
    psi_ring,
    unit_power,
)
from metaplectic.cli import series_from_json, series_to_json
from metaplectic.phigamma import make_induced
from metaplectic.selftest import gamma_law, rand_series, reassembly_law, root_law

F3 = field_make(3)
F5 = field_make(5)

rng = random.Random(101)


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
    assert frobenius_phi(const).truncate(7).agrees_with(const)
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
    gamma_law(rng, F3, 25, 12, 2, 4)
    gamma_law(rng, F5, 10, 14, 2, 3)


def test_phi_gamma_commute_on_ring():
    gamma_law(rng, F5, 25, 15, 7, 2)


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
        f = rand_series(rng, F5, 14)
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
    for f, n, r in root_law(rng, F5, 12, 12, (2, 3, 7, 5 ** 4 - 1)):
        assert r.agrees_with(root_oracle(f, n))


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
    h = rand_series(rng, F3, 6, lo=0)
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
        reassembly_law(rng, spec, 20, 21)


def test_psi_ring_example():
    g0 = psi_ring(LaurentSeries.monomial(F3, -1, 9))
    assert g0.agrees_with(LaurentSeries.monomial(F3, -1, g0.prec))


def test_binom_neg():
    assert binom_neg_mod_p(0, 0, 5) == 1
    assert binom_neg_mod_p(0, 3, 5) == 0
    assert binom_neg_mod_p(1, 3, 5) == (-1) % 5
    assert binom_neg_mod_p(2, 3, 3) == (-4) % 3


def test_precision_contracts():
    # every phi-basis component, and psi, is known mod X^(N // p) exactly:
    # dense, N <= 0, sparse, one residue class, and the zero series
    cases = [
        rand_series(rng, F5, 23),
        rand_series(rng, F5, -3, lo=-12),
        rand_series(rng, F5, 0, lo=-9),
        rand_series(rng, F3, 40, density=0.05),
        LaurentSeries.from_int_coeffs(F5, {2: 1, 7: 3, 12: 4}, 14),
        LaurentSeries.from_int_coeffs(F5, {-8: 2, -3: 1}, -1),
        LaurentSeries.zero(F5, 11),
        LaurentSeries.zero(F3, -7),
    ]
    for f in cases:
        p = f.spec.p
        assert [c.prec for c in phi_basis_decompose(f)] == [f.prec // p] * p
        assert psi_ring(f).prec == f.prec // p
    g = rand_series(rng, F3, 11, lo=-3)
    assert gamma_act(2, g).prec == 11
    assert frobenius_phi(g).prec == 33


def test_gamma_act_rejects_non_units():
    f = LaurentSeries.from_int_coeffs(F3, {0: 1, 1: 1, 2: 2}, 6)
    with pytest.raises(ValueError, match="coprime"):
        gamma_act(6, f)
    for c in (0, -1, -2):
        with pytest.raises(ValueError, match="positive"):
            gamma_act(c, f)


# -- the packed product kernel against schoolbook oracles ---------------------
#
# The oracles are the arithmetic the kernel replaced: the schoolbook double
# loop for products, the coefficient recurrence for inverses and one power
# of (1+X)^c - 1 per exponent for gamma_act.  Coefficients and precisions
# must agree exactly.

KERNEL_FIELDS = [field_make(p, m) for p in (3, 5, 7) for m in (1, 2, 4)]
kernel_settings = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def schoolbook_mul(a, b):
    v1, v2 = a.v, b.v
    prec = min(v1 + b.prec, v2 + a.prec)
    out = {}
    for e1, a1 in a.terms().items():
        for e2, a2 in b.terms().items():
            e = e1 + e2
            if e < prec:
                out[e] = out[e] + a1 * a2 if e in out else a1 * a2
    return LaurentSeries(a.spec, out, prec)


def recurrence_invert(f):
    v = f.valuation
    lead_inv = f.leading_coeff().inv()
    n = f.prec - v
    h = {e - v: a * lead_inv for e, a in f.terms().items() if e != v}
    # b_0 = 1, b_d = -sum_j h_j b_{d-j}
    b = {0: f.spec.one()}
    for d in range(1, n):
        acc = f.spec.zero()
        for j, hj in h.items():
            if j <= d and d - j in b:
                acc = acc + hj * b[d - j]
        if not acc.is_zero():
            b[d] = -acc
    return LaurentSeries(f.spec, {e - v: a * lead_inv for e, a in b.items()}, n - v)


def square_pow(f, e):
    """f**e by square-and-multiply over schoolbook products (the inverse first if e < 0)."""
    if e == 0:
        return LaurentSeries.one(f.spec, f.prec)
    if e < 0:
        f, e = recurrence_invert(f), -e
    out = None
    while e:
        if e & 1:
            out = f if out is None else schoolbook_mul(out, f)
        e >>= 1
        if e:
            f = schoolbook_mul(f, f)
    return out


def per_exponent_gamma(c, f):
    """sum_e a_e g^e mod X^N with g = (1+X)^c - 1 = X u, one power of u per
    exponent, in plain integer loops mod p.  u has integer coefficients
    binom(c, k + 1), so each power u^e (of the recurrence's u^-1 when e < 0)
    is a list of residues over F_p, and a_e in F_{p^m} scales it residue by
    residue: no product in F_{p^m} is formed, so none is reduced by the modulus."""
    spec, N, v, terms = f.spec, f.prec, f.v, f.terms()
    p, n = spec.p, N - v  # X^e u^e is needed mod X^N, so u^e mod X^(N - e) for e >= v
    u = [comb(c, k + 1) % p for k in range(n)]
    acc = [[0] * spec.m for _ in range(n)]  # the coefficient of X^(v + k)

    def times(a, b, length):
        out = [0] * length
        for i, x in enumerate(a[:length]):
            if x:
                for j, y in enumerate(b[: length - i]):
                    out[i + j] += x * y
        return [r % p for r in out]

    def add(e, power):
        if e in terms:
            for k, b in enumerate(power[: N - e]):
                row = acc[e - v + k]
                for s, a in enumerate(terms[e].coeffs):
                    row[s] += a * b

    power = [1]
    for e in range(max(terms) + 1):
        add(e, power)
        power = times(power, u, min(n, N - e - 1))
    if v < 0:
        inv = [pow(u[0], -1, p)]
        for k in range(1, n):
            inv.append(-inv[0] * sum(u[j] * inv[k - j] for j in range(1, k + 1)) % p)
        power = inv
        for e in range(-1, v - 1, -1):
            add(e, power)
            power = times(power, inv, n)
    return LaurentSeries(spec, {v + k: spec.elem(row) for k, row in enumerate(acc)}, N)


@st.composite
def kernel_series(draw, spec, max_len=24, stride_powers=(1, 2), max_span=None):
    """A series over spec: the zero series, or dense, sparse or
    Frobenius-stretched (exponents v + p^k*i) terms after valuation v.
    With max_span, the terms span at most that many exponents."""
    shape = draw(st.sampled_from(["zero", "dense", "sparse", "stretched"]))
    v = draw(st.integers(-4, 3))
    extra = draw(st.integers(0, 3))
    if shape == "zero":
        return LaurentSeries.zero(spec, v + extra)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    length = draw(st.integers(1, max_len))
    p = spec.p
    stride = p ** draw(st.sampled_from(stride_powers)) if shape == "stretched" else 1
    if max_span is not None:
        length = min(length, max_span // stride + 1)
    exps = [v + stride * i for i in range(length)]
    if shape == "sparse":
        exps = [v] + [e for e in exps[1:] if rng.random() < 0.2]

    def unit():
        while True:
            a = spec.elem([rng.randrange(p) for _ in range(spec.m)])
            if not a.is_zero():
                return a

    return LaurentSeries(spec, {e: unit() for e in exps}, exps[-1] + 1 + extra)


def same(got, want):
    """Equal valuation, residues and precision."""
    assert got == want


@kernel_settings
@given(st.data())
def test_kernel_series_boundary_round_trips(data):
    spec = data.draw(st.sampled_from(KERNEL_FIELDS))
    f = data.draw(kernel_series(spec))
    assert series_from_json(series_to_json(f), spec) == f
    assert LaurentSeries(spec, f.terms(), f.prec) == f


@kernel_settings
@given(st.data())
def test_kernel_mul_matches_schoolbook(data):
    spec = data.draw(st.sampled_from(KERNEL_FIELDS))
    a = data.draw(kernel_series(spec))
    b = data.draw(kernel_series(spec))
    same(a * b, schoolbook_mul(a, b))
    same(a * a, schoolbook_mul(a, a))


@pytest.mark.parametrize("m", [1, 2])
def test_kernel_mul_with_slots_past_8_bytes_matches_schoolbook(m):
    # at p = 999999937 a slot sums up to min(na, nb) m (p-1)^2 >= 2^64 from
    # 19 dense terms on: the kernel must then pack wider slots than 8 bytes
    spec = field_make(999999937, m)
    terms = random.Random(m)

    def dense(v, length):
        return LaurentSeries(spec, {e: spec.elem([terms.randrange(1, spec.p) for _ in range(m)])
                                    for e in range(v, v + length)}, v + length)

    for length in (18, 19, 30):
        a, b = dense(-2, length), dense(1, length + 3)
        same(a * b, schoolbook_mul(a, b))
        same(a * a, schoolbook_mul(a, a))
    # every residue p - 1: the middle slots of the square reach the bound
    top = LaurentSeries(spec, {e: spec.elem([spec.p - 1] * m) for e in range(30)}, 30)
    same(top * top, schoolbook_mul(top, top))


def with_examples(name, values):
    """Hypothesis explicit examples, one per value, passed as `name`."""
    def apply(test):
        for value in values:
            test = example(**{name: value})(test)
        return test
    return apply


# a X^v + O(X^(v+k)), a outside F_p over F_{3^2}: invert_series skips Newton's
# loop for a single coefficient, so each of these is a case of its own
MONOMIALS = [
    LaurentSeries.monomial(spec, v, v + k, spec.elem(coeffs))
    for spec, coeffs in ((F5, [3]), (field_make(3, 2), [2, 1]))
    for v in (-3, 0, 2)
    for k in (1, 7)
]


@kernel_settings
@with_examples("f", MONOMIALS)
@given(f=st.sampled_from(KERNEL_FIELDS).flatmap(kernel_series).filter(lambda f: not f.is_zero()))
def test_kernel_invert_matches_recurrence(f):
    same(f.invert_series(), recurrence_invert(f))


# -- one-coefficient operands: a product with c in F_p scales residues --------
#
# The kernel packs nothing when one operand is a single coefficient c in F_p;
# a single coefficient outside F_p still takes the packed path.

ONE_TERM_FIELDS = [field_make(p, m) for p in (3, 5, 1009) for m in (1, 2, 4)]


@st.composite
def one_coefficient(draw, spec):
    """1, another element of F_p, or (m > 1) an element outside F_p."""
    p, m = spec.p, spec.m
    kind = draw(st.sampled_from(["one", "prime field", "extension"] if m > 1 else ["one", "prime field"]))
    if kind == "one":
        return spec.one()
    if kind == "prime field":
        return spec.from_int(draw(st.integers(2, p - 1)))
    top = draw(st.integers(1, p - 1))
    return spec.elem([draw(st.integers(0, p - 1)) for _ in range(m - 1)] + [top])


@st.composite
def one_term_series(draw, spec):
    """a X^v + O(X^(v+k)), v in -4..2: k from 1 reaches below the length of
    the other operand, so the product's precision cuts that operand."""
    v = draw(st.integers(-4, 2))
    return LaurentSeries.monomial(spec, v, v + draw(st.integers(1, 30)), draw(one_coefficient(spec)))


@kernel_settings
@given(st.data())
def test_one_coefficient_product_matches_schoolbook(data):
    spec = data.draw(st.sampled_from(ONE_TERM_FIELDS))
    a = data.draw(one_term_series(spec))
    f = data.draw(kernel_series(spec))
    same(a * f, schoolbook_mul(a, f))
    same(f * a, schoolbook_mul(f, a))
    same(a * a, schoolbook_mul(a, a))


@kernel_settings
@given(st.data())
def test_scale_matches_coefficientwise_products(data):
    spec = data.draw(st.sampled_from(ONE_TERM_FIELDS))
    f = data.draw(kernel_series(spec))
    c = data.draw(one_coefficient(spec))
    same(f.scale(c), LaurentSeries(spec, {e: b * c for e, b in f.terms().items()}, f.prec))


@kernel_settings
@given(st.data())
def test_invert_with_a_one_coefficient_first_step_matches_recurrence(data):
    # Newton's first step multiplies by the one coefficient of the inverse
    # of the leading term: 1, another F_p element or one outside F_p
    spec = data.draw(st.sampled_from(ONE_TERM_FIELDS))
    lead = data.draw(one_term_series(spec))
    tail = data.draw(kernel_series(spec))
    f = lead if tail.is_zero() else lead + tail.shift(lead.v + 1 - tail.v)
    same(f.invert_series(), recurrence_invert(f))


@pytest.mark.parametrize("spec", ONE_TERM_FIELDS, ids=repr)
def test_gamma_act_returns_a_constant_unchanged(spec):
    p, m = spec.p, spec.m
    constants = [spec.one(), spec.from_int(p - 1)]
    if m > 1:
        constants.append(spec.elem([0] * (m - 1) + [1]))
    for c in (2, p + 1, 99999):
        if c % p == 0:  # 99999 = 3^2 * 41 * 271
            continue
        for a in constants:
            for N in (1, 2, 17):
                f = LaurentSeries.monomial(spec, 0, N, a)
                assert gamma_act(c, f) is f
                same(f, per_exponent_gamma(c, f))


@pytest.mark.parametrize("spec", [F5, field_make(3, 2)])
@pytest.mark.parametrize("exp", [-3, 0, 2, 7])
@pytest.mark.parametrize("prec", [-4, 0, 1, 3, 7])
def test_constructors_match_the_dict_constructor(spec, exp, prec):
    # the grid holds exp >= prec, prec <= 0 and a zero coefficient
    assert LaurentSeries.zero(spec, prec) == LaurentSeries(spec, {}, prec)
    assert LaurentSeries.one(spec, prec) == LaurentSeries(spec, {0: spec.one()}, prec)
    assert LaurentSeries.monomial(spec, exp, prec) == LaurentSeries(spec, {exp: spec.one()}, prec)
    for a in (spec.zero(), spec.from_int(2), spec.elem([0] * (spec.m - 1) + [1])):
        assert LaurentSeries.monomial(spec, exp, prec, a) == LaurentSeries(spec, {exp: a}, prec)


@settings(kernel_settings, max_examples=300)
@given(st.data())
def test_kernel_pow_matches_product_chain(data):
    spec = data.draw(st.sampled_from(KERNEL_FIELDS))
    f = data.draw(kernel_series(spec, max_len=12))
    # e up to p^3 can take any value at base-p digit positions 0, 1 and 2;
    # only about one draw in six (m = 1, v >= 0, nonzero) takes pow's
    # Frobenius-digit branch, hence the larger example count
    e = data.draw(st.integers(0 if f.is_zero() else -3, spec.p ** 3))
    same(f.pow(e), square_pow(f, e))


@kernel_settings
@given(st.data())
def test_kernel_gamma_act_matches_per_exponent(data):
    spec = data.draw(st.sampled_from(KERNEL_FIELDS))
    # 80 terms over 96 exponents take p = 3 two levels into the recursion
    f = data.draw(kernel_series(spec, max_len=80, max_span=96))
    c = data.draw(st.integers(2, 3 * spec.p ** 2).filter(lambda c: c % spec.p))
    out = gamma_act(c, f)
    same(out, per_exponent_gamma(c, f) if not f.is_zero() else f)
    assert out.prec == f.prec


@pytest.mark.parametrize(
    "p, m", [(p, m) for p in (3, 5) for m in (1, 2, 4)] + [(1000003, 1), (999999937, 1), (999999937, 2)]
)
def test_gamma_act_leaf_boundaries_match_per_exponent(p, m):
    # K = N - v digits on both sides of the leaf size 16 and of a second
    # split (3 * 16 = 48).  At p = 999999937 a level's slot bound K (p-1)^2
    # needs more than 8 bytes from K = 19 up.  The coefficient w^(m-1) has
    # one residue, the last of its block: a leaf that reads only it must pad
    # its result to a whole block before an upper level stretches it.  Above the leaves every shape
    # takes the Frobenius split: two terms of two residues, and two terms
    # whose second is a full unit (m + 1 residues), as well as the dense one
    spec = field_make(p, m)
    grid_rng = random.Random(p * 10 + m)
    w_top = spec.elem([0] * (m - 1) + [1])
    full = spec.elem([1] * m)

    def unit():
        while True:
            a = spec.elem([grid_rng.randrange(p) for _ in range(m)])
            if not a.is_zero():
                return a

    for K in (1, 15, 16, 17, 48, 49):
        for v in (-3, 0, 2):
            shapes = {
                "dense": {e: unit() for e in range(v, v + K)},
                "one term": {v: w_top},
                "two residues": {v: spec.one(), v + K - 1: w_top},
                "two terms": {v: w_top, v + K - 1: full},
            }
            # all coprime to p.  Every base-p digit of p^4 - 1 is p - 1,
            # so its u = g/X has no zero coefficient below X^16: it checks
            # the leaf rows, and the reference's cost for it grows like K^3
            dense_u = (p ** 4 - 1,) if K <= 17 else ()
            for c in (2, p + 1, p * p + 1, 10 ** 6 + 1) + dense_u:
                for terms in shapes.values():
                    f = LaurentSeries(spec, terms, v + K)
                    out = gamma_act(c, f)
                    same(out, per_exponent_gamma(c, f))
                    assert out.prec == f.prec


def test_gamma_act_at_a_large_prime_decimates_only_present_residues(monkeypatch):
    # the Frobenius split takes one residue class per coefficient of P, not
    # all p of them: at p near 10^9 a loop over range(p) would not end
    p, N = 999999937, 40
    spec = field_make(p)
    calls = []
    decimate = laurent._decimate

    def counted(*args):
        calls.append(args)
        assert len(calls) <= N, "P was decimated more often than it has coefficients"
        return decimate(*args)

    monkeypatch.setattr(laurent, "_decimate", counted)
    coeffs = random.Random(N)
    dense = {e: spec.elem([coeffs.randrange(1, p)]) for e in range(N)}
    # two residues, the first and the last, are split like a dense P
    two = {0: spec.one(), N - 1: spec.elem([coeffs.randrange(1, p)])}
    for terms in (dense, two):
        calls.clear()
        f = LaurentSeries(spec, terms, N)
        same(gamma_act(2, f), per_exponent_gamma(2, f))
        assert 0 < len(calls) <= N


def test_gamma_act_is_the_same_with_the_leaf_rows_cold_and_warm(monkeypatch):
    # the unit table is kept per (p, m, c): F_5 and F_{5^2} take turns at each c,
    # so rows kept under (p, c) alone would answer one field with the
    # other's.  The stretched P (exponents 5i) has one upper-level term, at
    # j = 0, which the level returns as it is
    kept = {}
    monkeypatch.setattr(laurent, "_UNITS", kept)
    cases_rng = random.Random(55)
    cases = []
    for c in (2, 6, 99999):
        for spec in (F5, field_make(5, 2)):
            def unit():
                while True:
                    a = spec.elem([cases_rng.randrange(5) for _ in range(spec.m)])
                    if not a.is_zero():
                        return a
            dense = LaurentSeries(spec, {e: unit() for e in range(-2, 40)}, 40)
            stretched = LaurentSeries(spec, {5 * i: unit() for i in range(20)}, 100)
            cases += [(c, dense), (c, stretched)]
    cold = []
    for c, f in cases:
        kept.clear()
        cold.append(gamma_act(c, f))
    for c, f in cases:
        gamma_act(c, f)
    warm = [gamma_act(c, f) for c, f in cases]
    assert len(kept) == 6
    for (c, f), a, b in zip(cases, cold, warm):
        same(a, b)
        same(a, per_exponent_gamma(c, f))


def test_leaf_rows_are_kept_for_a_bounded_number_of_units(monkeypatch):
    kept = {}
    monkeypatch.setattr(laurent, "_UNITS", kept)
    f = LaurentSeries.from_int_coeffs(F5, {0: 1, 1: 2, 7: 3}, 12)
    units = [c for c in range(2, 200) if c % 5][: laurent._UNITS_KEPT + 5]
    for c in units:
        same(gamma_act(c, f), per_exponent_gamma(c, f))
        assert len(kept) <= laurent._UNITS_KEPT
    assert list(kept) == [(5, 1, c) for c in units[-laurent._UNITS_KEPT :]]


TABLE_FIELDS = [field_make(p, m) for p in (3, 5, 7, 1009) for m in (1, 2, 4)]


def exact(f):
    return f.v, f.prec, f.res


@kernel_settings
@given(st.data())
def test_unit_table_answers_as_a_cold_table(data):
    # a run of asks at units repeated from a pool or fresh, at precisions
    # rising or falling, on one table; each answer (gamma_act, an induced
    # module's gamma matrix and (g/X)^v itself) must equal the one a cold
    # table gives.  Falling precisions read cuts of kept series, rising ones
    # grow them.  The test empties the table itself, before the run and
    # before each cold answer
    spec = data.draw(st.sampled_from(TABLE_FIELDS))
    p = spec.p
    units = st.integers(2, 10 ** 6).filter(lambda c: c % p)
    pool = data.draw(st.lists(units, min_size=1, max_size=3))
    asks = []
    for _ in range(data.draw(st.integers(2, 6))):
        c = data.draw(st.sampled_from(pool) | units)
        v, K = data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 60))
        n, h, tame = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 40)), data.draw(st.integers(0, p - 2))
        asks.append((K, c, v, n, h, tame, data.draw(st.integers(0, 2 ** 32))))
    asks.sort(reverse=data.draw(st.booleans()))

    def answer(K, c, v, n, h, tame, seed):
        rng = random.Random(seed)
        exps = [e for e in range(v, v + K) if e == v or rng.random() < 0.7]
        f = LaurentSeries(spec, {e: spec.elem([rng.randrange(1, p)] * spec.m) for e in exps}, v + K)
        G = make_induced(spec, n, h, tame=tame, prec=K + 1).gamma_matrix(c)
        return exact(gamma_act(c, f)), [[exact(x) for x in row] for row in G], exact(unit_power(c, spec, v, K))

    laurent._UNITS.clear()
    warm = [answer(*ask) for ask in asks]
    for ask, got in zip(asks, warm):
        laurent._UNITS.clear()
        assert got == answer(*ask)


def test_unit_table_holds_its_bounds_after_a_sweep_of_units():
    # small asks at more units than the table keeps, then asks whose series
    # pass the residue budget together, then one that passes it alone: after
    # each call the table holds at most _UNITS_KEPT units, each unit's size
    # counts the residues of its kept series, and they sum to at most
    # _UNIT_RESIDUES
    laurent._UNITS.clear()
    spec = field_make(7, 4)
    sweep = random.Random(7)

    def dense(N):
        return LaurentSeries(spec, {e: spec.elem([sweep.randrange(1, 7)] * 4) for e in range(-1, N)}, N)

    small, large = dense(20), dense(1000)
    # units above 1000 and far from powers of 7, so that g and its powers are dense
    units = [c for c in sweep.sample(range(10 ** 5, 10 ** 6), 60) if c % 7][: laurent._UNITS_KEPT + 8]
    asks = [(c, small) for c in units] + [(c, large) for c in units[:4]]
    for c, f in asks:
        gamma_act(c, f)
        kept = laurent._UNITS.values()
        assert len(kept) <= laurent._UNITS_KEPT
        for unit in kept:
            series = [*unit.powers.values(), *unit.units.values()]
            assert unit.size == sum(len(s.res) for s in series)
        assert sum(unit.size for unit in kept) <= laurent._UNIT_RESIDUES
    assert 0 < len(laurent._UNITS) < 4  # the large asks dropped every small unit
    # a power whose residues alone pass the budget is built, returned and not kept
    N = laurent._UNIT_RESIDUES + 10
    u = unit_power(99999, F5, 3, N)
    assert u.prec == N and len(u.res) > laurent._UNIT_RESIDUES
    assert laurent._UNITS[5, 1, 99999].size == 0
    laurent._UNITS.clear()


@kernel_settings
@given(st.data())
def test_frobenius_phi_power_is_repeated_phi_then_cut(data):
    # prec None, at or below the stretched valuation, or anywhere up to the
    # stretched precision and past it
    spec = data.draw(st.sampled_from(KERNEL_FIELDS))
    f = data.draw(kernel_series(spec))
    k = data.draw(st.integers(0, 3))
    lo, hi = f.v * spec.p ** k, f.prec * spec.p ** k
    prec = data.draw(st.none() | st.integers(lo - 3, lo) | st.integers(lo, hi + 3))
    want = f
    for _ in range(k):
        want = frobenius_phi(want)
    same(frobenius_phi(f, k, prec), want if prec is None else want.truncate(prec))


PSI_FIELDS = [field_make(p, m) for p in (3, 5, 7, 11, 13) for m in (1, 2, 3)]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.data())
def test_psi_ring_is_the_zero_component_of_the_decomposition(data):
    # shifted kernel series reach precisions from -24 up, zero series included
    spec = data.draw(st.sampled_from(PSI_FIELDS))
    f = data.draw(kernel_series(spec, max_len=60)).shift(data.draw(st.integers(-20, 20)))
    comps = phi_basis_decompose(f)
    same(psi_ring(f), comps[0])
    assert all(c.prec == f.prec // spec.p for c in comps)


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=repr)
def test_kernel_slot_width_holds_worst_case_sums(spec):
    # Every coefficient is (p-1)(1 + w + ... + w^(m-1)), so the middle slot
    # of a*a sums exactly n*m*(p-1)^2, the bound that sets the slot width.
    # n is the least length at which that sum needs 2 bytes, then 3.
    p, m = spec.p, spec.m
    top = spec.elem([p - 1] * m)
    multiples = [top * top * spec.from_int(j) for j in range(p)]
    for limit in (1 << 8, 1 << 16):
        n = -(-limit // (m * (p - 1) ** 2))
        a = LaurentSeries(spec, {e: top for e in range(n)}, n)
        square = a * a
        assert square.prec == n
        assert all(square.coeff(k) == multiples[(k + 1) % p] for k in range(n))


# -- truncation soundness: a cut input claims only digits the full one confirms --


def claims_only_true_digits(got, want):
    assert got.prec <= want.prec
    assert got.agrees_with(want)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.data())
def test_series_op_of_truncated_input_claims_only_true_digits(data):
    spec = data.draw(st.sampled_from(KERNEL_FIELDS))
    p = spec.p
    f = data.draw(kernel_series(spec))
    name = data.draw(
        st.sampled_from(
            ["+", "*", "invert_series", "pow", "gamma_act", "phi_basis_decompose", "one_unit_root"]
        )
    )
    # the lowest cut: below the valuation a cut leaves a zero known mod X^M,
    # which a unit-only op refuses
    low = f.v - 2
    if name in ("+", "*"):
        h = data.draw(kernel_series(spec))
        op = (lambda x: [x + h]) if name == "+" else (lambda x: [x * h])
    elif name == "invert_series":
        assume(not f.is_zero())
        low = f.valuation + 1
        op = lambda x: [x.invert_series()]
    elif name == "pow":
        e = data.draw(st.integers(0 if f.is_zero() else -3, p ** 3))
        if e < 0:
            low = f.valuation + 1
        op = lambda x: [x.pow(e)]
    elif name == "gamma_act":
        c = data.draw(st.integers(2, 3 * p ** 2).filter(lambda c: c % p))
        op = lambda x: [gamma_act(c, x)]
    elif name == "phi_basis_decompose":
        op = phi_basis_decompose
    else:
        # 1 + X^(1-v) f is a 1-unit; a cut at M >= 1 keeps it one
        f = f.shift(1 - f.v)
        f = LaurentSeries.one(spec, f.prec) + f
        low = 1
        n = data.draw(st.sampled_from([n for n in (2, 3, 4, 5, 7) if n % p]))
        op = lambda x: [one_unit_root(x, n)]
    M = data.draw(st.integers(min(low, f.prec), f.prec))
    for got, want in zip(op(f.truncate(M)), op(f), strict=True):
        claims_only_true_digits(got, want)
