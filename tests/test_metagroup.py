import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metaplectic.metagroup import (
    MetaElem,
    PMatrix,
    QuadCharParams,
    chi_z,
    cocycle,
    frac_str,
    hilbert,
    is_square_qp,
    kappa_split,
    meta_inv,
    meta_mul,
    quadchar_eval,
    vp,
)
from metaplectic.metagroup import _reduced
from metaplectic.selftest import (
    center_law,
    chi_z_coset_law,
    chi_z_law,
    cocycle_law,
    conjugation_law,
    hilbert_law,
    rand_matrix,
    rand_rational,
    splitting_law,
)

rng = random.Random(71)


def test_hilbert_examples():
    assert hilbert(2, 7, 3) == 1
    assert hilbert(3, 2, 3) == -1
    assert hilbert(3, -3, 3) == 1
    assert hilbert(5, -5, 5) == 1
    with pytest.raises(ValueError, match="nonzero"):
        hilbert(0, 1, 3)


def test_hilbert_properties():
    for p in (3, 5, 7):
        hilbert_law(rng, p, 200)


def test_cocycle_examples():
    I = PMatrix(1, 0, 0, 1)
    assert cocycle(I, rand_matrix(rng, 3), 3) == 1
    assert cocycle(PMatrix(1, 0, 1, 1), PMatrix(-3, 1, 6, 1), 3) == -1
    w = PMatrix(0, 1, 1, 0)
    assert cocycle(w, PMatrix(3, 0, 0, 1), 3) == 1


def test_cocycle_identity():
    for p in (3, 5):
        cocycle_law(rng, p, 400)


def test_meta_mul_group_laws():
    for p in (3, 5):
        I = MetaElem(PMatrix(1, 0, 0, 1), 1)
        for _ in range(150):
            x = MetaElem(rand_matrix(rng, p), rng.choice([1, -1]))
            y = MetaElem(rand_matrix(rng, p), rng.choice([1, -1]))
            z = MetaElem(rand_matrix(rng, p), rng.choice([1, -1]))
            assert meta_mul(I, x, p) == x
            assert meta_mul(meta_mul(x, y, p), z, p) == meta_mul(x, meta_mul(y, z, p), p)
            assert meta_mul(x, meta_inv(x, p), p) == I


def test_kappa_split_examples():
    g = PMatrix(1, 0, 3, 1)
    assert kappa_split(g, 1, 3) == MetaElem(g, 1)
    g = PMatrix(1, 0, 6, 1)
    assert kappa_split(g, 1, 3) == MetaElem(g, 1)
    g = PMatrix(2, 1, 1, 1)
    assert kappa_split(g, -1, 3) == MetaElem(g, -1)
    with pytest.raises(ValueError, match="not in K"):
        kappa_split(PMatrix(Fraction(1, 3), 0, 0, 1), 1, 3)
    with pytest.raises(ValueError, match="not in K"):
        kappa_split(PMatrix(3, 0, 0, 1), 1, 3)


def test_kappa_split_homomorphism():
    for p in (3, 5):
        splitting_law(rng, p, 400)


def test_chi_z_examples():
    q = chi_z(3, 3)
    assert q.unram == -1 and q.tame == 1
    for z in (4, 9, Fraction(1, 4)):
        q = chi_z(z, 5)
        assert q.unram == 1 and q.tame == 0


def test_chi_z_equals_hilbert():
    for p in (3, 5, 7):
        chi_z_law(rng, p, 250)


def test_conjugation_law():
    for p in (3, 5):
        conjugation_law(rng, p, 250)


def test_chi_z_surjective_onto_quadratic_characters():
    for p in (3, 5, 7, 11):
        chi_z_coset_law(p)


def test_center_is_squares():
    for p in (3, 5):
        center_law(rng, p, 60)


def test_pmatrix_serialization():
    m = PMatrix(Fraction(1, 3), 2, -3, Fraction(7, 9))
    assert [frac_str(x) for x in m.entries()] == ["1/3", "2", "-3", "7/9"]
    assert repr(m) == "PMatrix[[1/3, 2], [-3, 7/9]]"
    # entries past Python's 4,300-digit int-to-str limit print whole, as `split` prints them
    big, digits = 10 ** 5000, "1" + "0" * 5000
    assert repr(PMatrix(big, 0, 0, Fraction(-1, big))) == f"PMatrix[[{digits}, 0], [0, -1/{digits}]]"


def test_chi_z_homomorphism():
    for p in (3, 5):
        for _ in range(150):
            z1, z2 = rand_rational(rng, p), rand_rational(rng, p)
            prod = chi_z(z1 * z2, p)
            assert prod.unram == chi_z(z1, p).unram * chi_z(z2, p).unram
            assert prod.tame == (chi_z(z1, p).tame + chi_z(z2, p).tame) % (p - 1)


def test_pmatrix_product_and_det_match_fraction_arithmetic():
    local = random.Random(5)

    def q():
        return Fraction(local.randrange(-40, 41), local.randrange(1, 30))

    checked = 0
    while checked < 300:
        x = [q() for _ in range(4)]
        y = [q() for _ in range(4)]
        try:
            g, h = PMatrix(*x), PMatrix(*y)
        except ValueError:
            continue
        a, b, c, d = x
        e, f, u, w = y
        assert g.det == a * d - b * c
        assert (g * h).entries() == (a * e + b * u, a * f + b * w, c * e + d * u, c * f + d * w)
        checked += 1


rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(rationals, min_size=8, max_size=8), st.sampled_from([3, 5, 7]), st.integers(1, 10 ** 6),
       st.integers(0, 30))
def test_pmatrix_slots_are_canonical(ents, p, unit, k):
    x, y = ents[:4], ents[4:]
    assume(x[0] * x[3] != x[1] * x[2] and y[0] * y[3] != y[1] * y[2] and unit % p)
    g, h = PMatrix(*x), PMatrix(*y)
    slots = (g.na, g.nb, g.nc, g.nd, g.den)
    # one matrix from ints where the entries allow them, and from its slots
    # scaled by a common unit or by a power of p
    forms = [PMatrix(*(t.numerator if t.denominator == 1 else t for t in x))]
    forms += [_reduced(*(s * t for t in slots)) for s in (unit, p ** k)]
    for f in forms:
        assert (f.na, f.nb, f.nc, f.nd, f.den) == slots
        assert f == g and hash(f) == hash(g) and f.entries() == tuple(x)
    swapped = PMatrix(x[2], x[3], x[0], x[1])  # det(swapped) = -det(g)
    assert (g.det < 0) != (swapped.det < 0)
    for r in (g * h, h * g, g.inv(), swapped.inv(), g * g.inv(), swapped * h.inv()):
        assert r.den > 0 and gcd(r.na, r.nb, r.nc, r.nd, r.den) == 1
        again = PMatrix(*r.entries())
        assert again == r and hash(again) == hash(r)
        assert (again.na, again.nb, again.nc, again.nd, again.den) == (r.na, r.nb, r.nc, r.nd, r.den)


entry_ints = st.one_of(st.integers(-6, 6), st.integers(-10 ** 40, 10 ** 40))
four = dict(min_size=4, max_size=4)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(entry_ints, **four), st.lists(st.sampled_from([1, 1, 2, 9, 10, 49, 10 ** 30]), **four),
       st.lists(st.sampled_from(["int", "fraction", "str"]), **four))
def test_pmatrix_is_one_matrix_from_ints_fractions_and_strings(nums, dens, kinds):
    # an integral matrix and a rational one; each is built from Fractions, from
    # ints where its entries are integers, from strings, and from a mix of the three
    def as_kind(t, kind):
        if kind == "int" and t.denominator == 1:
            return t.numerator
        return str(t) if kind == "str" else t

    for x in ([Fraction(n) for n in nums], [Fraction(n, d) for n, d in zip(nums, dens)]):
        forms = [x, [str(t) for t in x], [as_kind(t, k) for t, k in zip(x, kinds)]]
        if all(t.denominator == 1 for t in x):
            forms.append([t.numerator for t in x])
        if x[0] * x[3] == x[1] * x[2]:
            for form in forms:
                with pytest.raises(ValueError, match="singular matrix"):
                    PMatrix(*form)
            continue
        g = PMatrix(*x)
        slots = (g.na, g.nb, g.nc, g.nd, g.den)
        assert g.den == lcm(*(t.denominator for t in x)) and g.entries() == tuple(x)
        for f in (PMatrix(*form) for form in forms):
            assert (f.na, f.nb, f.nc, f.nd, f.den) == slots
            assert f == g and hash(f) == hash(g)
        for t in x:
            if t:
                for z in (t, t.numerator) if t.denominator == 1 else (t,):
                    s, want = PMatrix.scalar(z), PMatrix(z, 0, 0, z)
                    assert (s.na, s.nb, s.nc, s.nd, s.den) == (want.na, want.nb, want.nc, want.nd, want.den)
                    assert s == want and hash(s) == hash(want)


def test_singular_matrices_and_bad_signs_are_refused():
    for z in (0, Fraction(0), "0"):
        with pytest.raises(ValueError, match="singular matrix"):
            PMatrix.scalar(z)
    for ents in ((0, 0, 0, 0), (2, 4, 1, 2), (-3, 6, 1, -2), (10 ** 50, 1, 10 ** 50, 1)):
        with pytest.raises(ValueError, match="singular matrix"):
            PMatrix(*ents)
    g = PMatrix(1, 2, 3, 4)
    for zeta in (2, 0, -2, Fraction(1, 2)):
        with pytest.raises(ValueError, match="zeta"):
            MetaElem(g, zeta)
        with pytest.raises(ValueError, match="zeta"):
            kappa_split(PMatrix(1, 0, 3, 1), zeta, 3)


def one_at_a_time_vp(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


@pytest.mark.parametrize("p", [3, 5, 7])
def test_vp_of_long_runs_of_p(p):
    unit = Fraction(2, 11)
    for j in range(17):
        for k in (2 ** j - 1, 2 ** j, 2 ** j + 1):
            n = p ** k * 13
            assert vp(n * unit, p) == k and vp(1 / (n * unit), p) == -k
            if j <= 12:  # the reference loop is quadratic in k
                assert vp(n * unit, p) == one_at_a_time_vp(n, p)


# -- the symbols against the formulas on exact rationals they replaced ---------


def ref_vp(x, p):
    v, num, den = 0, x.numerator, x.denominator
    q, r = divmod(num, p)
    while not r:
        num, v = q, v + 1
        q, r = divmod(num, p)
    q, r = divmod(den, p)
    while not r:
        den, v = q, v - 1
        q, r = divmod(den, p)
    return v


def ref_unit_part(x, p):
    return x / Fraction(p) ** ref_vp(x, p)


def ref_omega_sign(u, p):
    r = u.numerator % p * pow(u.denominator % p, p - 2, p) % p
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def ref_hilbert(a, b, p):
    # the symbol reads square classes only: dividing a and b by p^(2 floor(v/2))
    # leaves valuations 0 or 1, so the powers below stay small at any valuation
    a, b = (x / Fraction(p) ** (ref_vp(x, p) // 2 * 2) for x in (a, b))
    va, vb = ref_vp(a, p), ref_vp(b, p)
    return ref_omega_sign(Fraction(-1) ** (va * vb) * b ** va / a ** vb, p)


def ref_chi_z(z, p):
    v = ref_vp(z, p)
    tame = (v * (p - 1) // 2) % (p - 1)
    return QuadCharParams(ref_omega_sign(Fraction(-1) ** v * ref_unit_part(z, p), p), tame)


def ref_quadchar_eval(q, x, p):
    val = q.unram ** (ref_vp(x, p) % 2)
    if q.tame % (p - 1):
        val *= ref_omega_sign(ref_unit_part(x, p), p)
    return val


def wide_rational(rng, p):
    """p^v u with v in -40..40 and u = n/d a unit, |n| and d below 10^6."""
    while True:
        n, d = rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6)
        if n % p and d % p:
            return Fraction(p) ** rng.randrange(-40, 41) * Fraction(rng.choice((1, -1)) * n, d)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_symbols_match_the_exact_rational_formulas(p):
    local = random.Random(p)
    quads = [QuadCharParams(u, t) for u in (1, -1) for t in (0, (p - 1) // 2)]
    for _ in range(300):
        a, b = wide_rational(local, p), wide_rational(local, p)
        assert vp(a, p) == ref_vp(a, p)
        assert hilbert(a, b, p) == ref_hilbert(a, b, p)
        assert chi_z(a, p) == ref_chi_z(a, p)
        for q in quads:
            assert quadchar_eval(q, b, p) == ref_quadchar_eval(q, b, p)
        square = ref_vp(a, p) % 2 == 0 and ref_omega_sign(ref_unit_part(a, p), p) == 1
        assert is_square_qp(a, p) == square
        assert is_square_qp(a * a, p)


def ref_cc(a, b, c, d):
    return c if c != 0 else d


def ref_cocycle(g1, g2, p):
    """sigma(g1, g2) from the full Fraction product and its determinant."""
    a, b, c, d = g1.entries()
    e, f, u, w = g2.entries()
    cp = ref_cc(a * e + b * u, a * f + b * w, c * e + d * u, c * f + d * w)
    return ref_hilbert(cp / ref_cc(a, b, c, d), cp / ref_cc(e, f, u, w) * (a * d - b * c), p)


def ref_kappa_split(g, zeta, p):
    """Integral entries and a unit determinant, or "not in K"; the sign is
    twisted by (c, d det^-1) exactly when c lies in pZp - {0}."""
    a, b, c, d = g.entries()
    det = a * d - b * c
    if any(x != 0 and ref_vp(x, p) < 0 for x in (a, b, c, d)) or ref_vp(det, p) != 0:
        raise ValueError("not in K")
    if c != 0 and ref_vp(c, p) >= 1:
        return MetaElem(g, zeta * ref_hilbert(c, d / det, p))
    return MetaElem(g, zeta)


def wide_matrix(rng, p, entry=wide_rational):
    """An invertible matrix of `entry` draws, each entry 0 one time in four."""
    while True:
        ents = [entry(rng, p) if rng.randrange(4) else Fraction(0) for _ in range(4)]
        if ents[0] * ents[3] != ents[1] * ents[2]:
            return PMatrix(*ents)


def upper_partner(rng, p, g1):
    """g1^-1 t for an invertible upper-triangular t, built on Fractions, so
    that the product g1 g2 = t has lower-left entry 0."""
    a, b, c, d = g1.entries()
    det = a * d - b * c
    t1, t2, t3 = wide_rational(rng, p), wide_rational(rng, p), wide_rational(rng, p)
    return PMatrix(d * t1 / det, (d * t2 - b * t3) / det, -c * t1 / det, (a * t3 - c * t2) / det)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_cocycle_and_product_match_the_fraction_formulas(p):
    local = random.Random(100 + p)
    for i in range(400):
        g1 = wide_matrix(local, p)
        g2 = upper_partner(local, p, g1) if i % 4 == 0 else wide_matrix(local, p)
        a, b, c, d = g1.entries()
        e, f, u, w = g2.entries()
        prod = g1 * g2
        assert prod.entries() == (a * e + b * u, a * f + b * w, c * e + d * u, c * f + d * w)
        assert prod.det == (a * d - b * c) * (e * w - f * u)
        if i % 4 == 0:
            assert prod.c == 0
        inv = g1.inv()
        assert inv.det == 1 / (a * d - b * c)
        assert (g1 * inv).entries() == (1, 0, 0, 1)
        assert cocycle(g1, g2, p) == ref_cocycle(g1, g2, p)
        assert cocycle(g1, inv, p) == ref_cocycle(g1, inv, p)


LONG_RUNS = [k for j in range(13) for k in (2 ** j - 1, 2 ** j, 2 ** j + 1)]


def long_run(rng, p, runs=LONG_RUNS, signs=(1, -1)):
    """p^(s k) u with k from runs, s from signs and u = n/d a unit, |n| and d
    below 10^3; k = 0 one time in three."""
    k = rng.choice(runs) * rng.choice(signs) if rng.randrange(3) else 0
    while True:
        n, d = rng.randrange(1, 1000), rng.randrange(1, 1000)
        if n % p and d % p:
            return Fraction(p) ** k * Fraction(rng.choice((1, -1)) * n, d)


@pytest.mark.parametrize("p", [3, 5, 7, 1000003])
def test_symbols_on_long_runs_of_p_match_the_fraction_formulas(p):
    # a symbol strips p from n/d only where p divides it: entries p^k u with
    # k = 2^j - 1, 2^j, 2^j + 1 up to 4097 take the strip through every
    # squaring step, and entries with k = 0 skip it
    local = random.Random(300 + p)
    for _ in range(40 if p < 100 else 12):
        g1, g2 = wide_matrix(local, p, long_run), wide_matrix(local, p, long_run)
        assert cocycle(g1, g2, p) == ref_cocycle(g1, g2, p)
        assert cocycle(g1, g1.inv(), p) == ref_cocycle(g1, g1.inv(), p)
        a, b = long_run(local, p), long_run(local, p)
        assert hilbert(a, b, p) == ref_hilbert(a, b, p)
        # a and d units, b integral and c in pZp: in K, and the sign is twisted
        c = long_run(local, p, [0]) * Fraction(p) ** local.choice(LONG_RUNS[1:])
        g, zeta = PMatrix(long_run(local, p, [0]), long_run(local, p, signs=(1,)), c, 1), local.choice((1, -1))
        assert kappa_split(g, zeta, p) == ref_kappa_split(g, zeta, p)
        try:
            want = ref_kappa_split(g1, zeta, p)
        except ValueError:
            with pytest.raises(ValueError, match="not in K"):
                kappa_split(g1, zeta, p)
        else:
            assert kappa_split(g1, zeta, p) == want


def integral_or_not(rng, p):
    """p^v u with v in -1..3 and u = n/d a unit, |n| and d below 10^6."""
    x = wide_rational(rng, p)
    return x / Fraction(p) ** ref_vp(x, p) * Fraction(p) ** rng.choice((-1, 0, 0, 1, 1, 2, 3))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_kappa_split_matches_its_rule(p):
    local = random.Random(200 + p)
    outcomes = set()
    for _ in range(600):
        g, zeta = wide_matrix(local, p, integral_or_not), local.choice((1, -1))
        try:
            want = ref_kappa_split(g, zeta, p)
        except ValueError:
            with pytest.raises(ValueError, match="not in K"):
                kappa_split(g, zeta, p)
            outcomes.add("not in K")
            continue
        assert kappa_split(g, zeta, p) == want
        outcomes.add(want.zeta * zeta)
    assert outcomes == {"not in K", 1, -1}
    unit = Fraction(2 if p != 3 else 4, 5 if p != 5 else 7)
    with pytest.raises(ValueError, match="not in K"):
        kappa_split(PMatrix(1, Fraction(1, p), 0, 1), 1, p)
    with pytest.raises(ValueError, match="not in K"):
        kappa_split(PMatrix(unit, 0, p * unit, p), 1, p)
    with pytest.raises(ValueError, match="not in K"):
        kappa_split(PMatrix(p, 1, 0, Fraction(1, p)), 1, p)
