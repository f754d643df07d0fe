"""`cover`: the metaplectic group law at p in {3, 5, 7}.

Each job checks, on seeded rational matrices and scalars at one prime: the
cocycle identity on triples, `kappa_split` as a homomorphism on K, the
conjugation law of central elements through `chi_z`, and chi_z = the
Hilbert symbol.

Why: the only workload with no F_q or series arithmetic, only `Fraction`.
It is the bypass for any `coeff` change, which every other workload runs,
and the only workload that measures `metagroup`.
"""

from __future__ import annotations

from fractions import Fraction

from metaplectic.metagroup import (
    MetaElem,
    PMatrix,
    chi_z,
    cocycle,
    hilbert,
    kappa_split,
    meta_inv,
    meta_mul,
    quadchar_eval,
    vp,
)

from workloads.common import Job, check, cycle_jobs

MODULES = ["metaplectic.metagroup"]
FIELDS = []

TRIPLES, PAIRS, CONJUGATIONS, SYMBOLS = 80, 80, 40, 40
CYCLE = [(3,), (5,), (7,)]
TRACE_JOBS = 2 * len(CYCLE)


def _rational(rng, p):
    u = rng.choice([1, 2, 3, 4, 6, 7, -1, -2, -5])
    while u % p == 0:
        u = rng.choice([1, 2, 3, 7, -1, -2])
    return Fraction(p) ** rng.randrange(-2, 3) * u


def _matrix(rng, p):
    while True:
        ents = [Fraction(rng.randrange(-6, 7)) * Fraction(p) ** rng.randrange(-1, 2) for _ in range(4)]
        try:
            return PMatrix(*ents)
        except ValueError:
            continue


def _k_matrix(rng, p):
    while True:
        try:
            g = PMatrix(*[rng.randrange(-8, 9) for _ in range(4)])
        except ValueError:
            continue
        if vp(g.det, p) == 0:
            return g


def _sign(rng):
    return rng.choice((1, -1))


def jobs(rng):
    return cycle_jobs(CYCLE, lambda i, p: _cover_job(rng, p))


def _cover_job(rng, p):
    triples = [tuple(_matrix(rng, p) for _ in range(3)) for _ in range(TRIPLES)]
    pairs = [(_k_matrix(rng, p), _k_matrix(rng, p), _sign(rng), _sign(rng)) for _ in range(PAIRS)]
    conj = [(_rational(rng, p), _sign(rng), _matrix(rng, p), _sign(rng)) for _ in range(CONJUGATIONS)]
    symbols = [(_rational(rng, p), _rational(rng, p)) for _ in range(SYMBOLS)]
    props = {"p": p, "triples": TRIPLES, "pairs": PAIRS, "conjugations": CONJUGATIONS, "symbols": SYMBOLS}

    def run(tr):
        for a, b, c in triples:
            with tr.span("metagroup.other"):
                ab, bc = a * b, b * c
            with tr.span("metagroup.cocycle"):
                lhs = cocycle(a, b, p) * cocycle(ab, c, p)
                rhs = cocycle(a, bc, p) * cocycle(b, c, p)
            check(lhs == rhs, "cocycle identity")
        for g1, g2, z1, z2 in pairs:
            with tr.span("metagroup.other"):
                g12 = g1 * g2
            with tr.span("metagroup.kappa_split"):
                k12, k1, k2 = kappa_split(g12, z1 * z2, p), kappa_split(g1, z1, p), kappa_split(g2, z2, p)
            with tr.span("metagroup.meta_mul"):
                prod = meta_mul(k1, k2, p)
            check(k12 == prod, "kappa_split is a homomorphism")
        for z, zeta, g, g_zeta in conj:
            with tr.span("metagroup.other"):
                zt, gt = MetaElem(PMatrix.scalar(z), zeta), MetaElem(g, g_zeta)
                zt_inv = meta_inv(zt, p)
            with tr.span("metagroup.meta_mul"):
                conjugate = meta_mul(meta_mul(zt, gt, p), zt_inv, p)
            with tr.span("metagroup.chi_z"):
                q = chi_z(z, p)
            with tr.span("metagroup.other"):
                want = MetaElem(g, g_zeta * quadchar_eval(q, g.det, p))
            check(conjugate == want, "conjugation law through chi_z")
        for z, x in symbols:
            with tr.span("metagroup.chi_z"):
                q = chi_z(z, p)
            with tr.span("metagroup.other"):
                lhs = quadchar_eval(q, x, p)
            with tr.span("metagroup.hilbert"):
                rhs = hilbert(z, x, p)
            check(lhs == rhs, "chi_z = Hilbert symbol")

    return Job("cover", props, run)
