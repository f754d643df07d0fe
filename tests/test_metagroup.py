import random
from fractions import Fraction

import pytest

from metaplectic.metagroup import (
    MetaElem,
    PMatrix,
    chi_z,
    cocycle,
    hilbert,
    is_square_qp,
    kappa_split,
    meta_inv,
    meta_mul,
    quadchar_eval,
    vp,
)

rng = random.Random(71)


def rand_q(p):
    v = rng.randrange(-2, 3)
    u = rng.choice([1, 2, 3, 4, 6, 7, -1, -2, -5, -7])
    while u % p == 0:
        u = rng.choice([1, 2, 3, 7, -1, -2])
    return Fraction(p) ** v * u


def rand_mat(p):
    while True:
        ents = [
            Fraction(rng.randrange(-6, 7)) * Fraction(p) ** rng.randrange(-1, 2)
            for _ in range(4)
        ]
        try:
            return PMatrix(*ents)
        except ValueError:
            continue


def rand_k(p):
    while True:
        ents = [rng.randrange(-8, 9) for _ in range(4)]
        try:
            m = PMatrix(*ents)
        except ValueError:
            continue
        if vp(m.det, p) == 0:
            return m


def test_hilbert_examples():
    assert hilbert(2, 7, 3) == 1
    assert hilbert(3, 2, 3) == -1
    assert hilbert(3, -3, 3) == 1
    assert hilbert(5, -5, 5) == 1
    with pytest.raises(ValueError, match="nonzero"):
        hilbert(0, 1, 3)


def test_hilbert_properties():
    for p in (3, 5, 7):
        for _ in range(200):
            a, b, c = rand_q(p), rand_q(p), rand_q(p)
            assert hilbert(a, b, p) == hilbert(b, a, p)
            assert hilbert(a * b, c, p) == hilbert(a, c, p) * hilbert(b, c, p)
            assert hilbert(a, -a, p) == 1
            assert hilbert(a * rand_q(p) ** 2, b, p) == hilbert(a, b, p)


def test_cocycle_examples():
    I = PMatrix.identity()
    assert cocycle(I, rand_mat(3), 3) == 1
    assert cocycle(PMatrix(1, 0, 1, 1), PMatrix(-3, 1, 6, 1), 3) == -1
    w = PMatrix(0, 1, 1, 0)
    assert cocycle(w, PMatrix(3, 0, 0, 1), 3) == 1


def test_cocycle_identity():
    for p in (3, 5):
        for _ in range(400):
            a, b, c = rand_mat(p), rand_mat(p), rand_mat(p)
            assert cocycle(a, b, p) * cocycle(a * b, c, p) == cocycle(
                a, b * c, p
            ) * cocycle(b, c, p)


def test_meta_mul_group_laws():
    for p in (3, 5):
        I = MetaElem(PMatrix.identity(), 1)
        for _ in range(150):
            x = MetaElem(rand_mat(p), rng.choice([1, -1]))
            y = MetaElem(rand_mat(p), rng.choice([1, -1]))
            z = MetaElem(rand_mat(p), rng.choice([1, -1]))
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
        for _ in range(400):
            g1, g2 = rand_k(p), rand_k(p)
            z1, z2 = rng.choice([1, -1]), rng.choice([1, -1])
            lhs = kappa_split(g1 * g2, z1 * z2, p)
            rhs = meta_mul(kappa_split(g1, z1, p), kappa_split(g2, z2, p), p)
            assert lhs == rhs


def test_chi_z_examples():
    q = chi_z(3, 3)
    assert q.unram == -1 and q.tame == 1
    for z in (4, 9, Fraction(1, 4)):
        q = chi_z(z, 5)
        assert q.unram == 1 and q.tame == 0


def test_chi_z_equals_hilbert():
    for p in (3, 5, 7):
        for _ in range(250):
            z, x = rand_q(p), rand_q(p)
            assert quadchar_eval(chi_z(z, p), x, p) == hilbert(z, x, p)


def test_conjugation_law():
    for p in (3, 5):
        for _ in range(250):
            z = rand_q(p)
            zt = MetaElem(PMatrix.scalar(z), rng.choice([1, -1]))
            gt = MetaElem(rand_mat(p), rng.choice([1, -1]))
            conj = meta_mul(meta_mul(zt, gt, p), meta_inv(zt, p), p)
            expect = MetaElem(gt.g, gt.zeta * quadchar_eval(chi_z(z, p), gt.g.det, p))
            assert conj == expect


def test_chi_z_surjective_onto_quadratic_characters():
    from metaplectic.meta import least_nonsquare_unit

    for p in (3, 5, 7, 11):
        u0 = least_nonsquare_unit(p)
        vals = {(chi_z(z, p).unram, chi_z(z, p).tame) for z in (1, u0, p, u0 * p)}
        assert len(vals) == 4


def test_center_is_squares():
    for p in (3, 5):
        samples = [MetaElem(rand_mat(p), 1) for _ in range(60)]
        for z in (1, 2, 4, p, 2 * p, p * p, Fraction(1, p), Fraction(2, p)):
            zt = MetaElem(PMatrix.scalar(z), 1)
            commutes = all(
                meta_mul(zt, gt, p) == meta_mul(gt, zt, p) for gt in samples
            )
            assert commutes == is_square_qp(z, p)


def test_pmatrix_serialization():
    from metaplectic.metagroup import pmatrix_from_json

    m = PMatrix(Fraction(1, 3), 2, -3, Fraction(7, 9))
    assert pmatrix_from_json(m.to_json()) == m
    assert m.to_json() == [["1/3", "2"], ["-3", "7/9"]]


def test_chi_z_homomorphism():
    for p in (3, 5):
        for _ in range(150):
            z1, z2 = rand_q(p), rand_q(p)
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
