"""Seeded best-of-k timings of single library layers, written as BENCH_<n>.json.

    python3 benchmarks/layers.py --out BENCH_2.json
    python3 benchmarks/layers.py --only gamma_act --out gamma.json
    python3 benchmarks/layers.py --compare BENCH_1.json BENCH_2.json

Run from anywhere: the library is imported from the `src/` beside this
directory.  Each row times one operation on seeded dense inputs: series
mul, add, invert, `phi_basis_decompose` and the power f^(2p+3) of a
valuation-0 series over F_7 at N = 10^3 and 10^4; at N = 10^4, the
product of 3X^2 and a series over F_7 and the scale of a series over
F_{7^2} by 3, an element of F_7; `gamma_act` at c = p + 1
over F_{p^m} for p in {5, 7, 13} and m in {1, 2, 4} at N = 1000, and at
c = 2 over F_1000003 at N = 40, where a loop over all p residue classes
would dominate; `gamma_act` over F_7 at N = 1000 at a new seeded unit c
per call ("fresh c"), so that the unit table (the leaf rows and the unit
powers u^e kept per (p, m, c)) cannot answer it and the row times
the first call at a unit, where the rows at one c time the kept path; and,
for the rank-4 induced module D
(h = 3) over F_7 whose phi entries are known to about N = 1000 digits,
`psi` on a vector of four series and `mat_inv` on Phi * (I + X S), S a
4x4 matrix of series; and,
at the `modules` workload's largest module (F_5, n = 4, h = 2, N = 16),
`psi` on four series known to 5N digits, `dual` and `phi_gamma_commutes`
at c = p + 1, each on a fresh module per call, so that no cache answers
them: the first two invert Phi (whose pivots are monomials), and the last
takes two matrix products whose terms are mostly known zeros.  Every series has valuation -1
(the power's base and S are shifted) and a nonzero
coefficient at each exponent below N, so a row's cost does not depend on
the seed.  Each group of rows draws from its own generator, seeded by SEED
and the group's first row name.  The field rows time one pass over 1,000 seeded elements of F_{7^4}, which multiplies
through its log/antilog table, and of F_{3^8}, which is above
TABLE_MAX_ORDER and multiplies polynomials: `FieldElem(spec, coeffs)` on
coefficient tuples, products of nonzero pairs, inverses, and powers to
exponents drawn from 0..q-2.  The `meta.verify_bijection` rows solve
both sides of the supersingular correspondence over F_{7^4}, F_31,
F_{11^3}, F_{13^3}, F_{11^4}, F_{13^4} and F_211.  The
`galois.lemma2_reduce` row reduces 1,000 seeded odd h with |h| below 10^6
at p = 101.  The parameter-record rows build records and compare them:
`meta.ps_image` takes `ps_image` and `meta_irred_test` of 1,000 seeded
pairs of tame characters over F_25, and `galois.iso_test` builds the two
degree-4 parameters of 1,000 seeded odd h at p = 7 (one of them through
`tame_twist`, with h reduced by `lemma2_reduce` up front) and tests them
for isomorphism.  The `meta.invert_ss_image` rows invert the images of 10
seeded supersingulars (r, eta) over F_101 and F_10007.  The
`classify.simulate_dual_frobenius` rows compute phi(f_1) to K = 4 digits
at r = 1 over F_101 and F_1009, and the `classify.simulate_dual_gamma`
row computes three digits of gamma_c(f_1), c = 2, at r = 1 over F_101.
The `phigamma.induced_gamma` row builds the gamma matrix of c = p + 1 on
the rank-4 induced module (h = 39) over F_5 at N = 30000, from a fresh
module each call, so no module cache answers it, but the unit table keeps
the power of the unit that its oracle raises; its F_{5^8} row builds the
gamma matrix of the unit c = 99999, whose 1-unit u = ((1+X)^c - 1)/(cX) is
dense, at N = 5000, at every scale.  Each has a "fresh c" twin that draws a
new seeded unit per call, as the `gamma_act` one does, so nothing kept
answers it.  The `phigamma.mat_inv ... diagonal` row inverts that F_{5^8}
gamma matrix, built up front: the Gamma sample that `dual` inverts in a
file of `build-induced --p 5 --m 8 --n 4 --h 39 --units 99999`, at N = 5000.  The `laurent.pow` row at
p = 101 raises a dense unit over F_101 (every coefficient below X^N
nonzero, N = 10^4) to an exponent with three nonzero base-p digits, which
takes `pow`'s Frobenius-digit branch.  The
`metagroup` rows at p in {3, 7} each make one pass over 1,000 seeded
pairs of matrices with entries p^v n/d, v in -40..40 and n/d a unit with
|n| and d below 10^6: `cocycle` on the pair and `meta_mul` on the pair
with signs, then the matrix product `*` on the pair and `meta_inv` on its
first element.  `kappa_split` runs over 1,000 seeded elements of K of the
same kind (a and d units, b and c of valuation 0..40 and 1..40, so c lies
in pZp and the sign is twisted).  `PMatrix` builds the 2,000 matrices of
the pairs again from their `Fraction` entries, as the CLI's matrix reader
passes them, and `scalar_conjugation` takes 1,000 seeded central elements
z of the same kind, each with the first matrix g of a pair, through
`PMatrix.scalar(z)`, `chi_z(z)` and `quadchar_eval` at det g: the
conjugation law's side that is not the group law.

A repetition calls the operation `number` times, with `number` raised until
one repetition lasts at least MIN_REP_S; a row reports the best of REPEAT
repetitions per call.  `ms` is wall time.  `ref_ms` is the same
time at reference speed: scaled by perfbench's reference loop read around
each repetition (see perfbench/speed.py), so two files from one machine
compare even when its speed changed between the runs.  `--compare a b`
prints each row's ref_ms in a and b and the ratio a/b (above 1: b is
faster).  A file also records `src_sha256`, the sha256 of the library
sources the run imported (`src/metaplectic/*.py` by sorted file name, each
as its name, a NUL byte and its bytes), so a run from a copy without git
history still names what it timed.  `--only REGEX` builds and times only
the rows whose name the regular expression matches (`re.search`), so the
rows of one claim can be re-run in both orders in seconds.  `--scale`
below 1 shrinks every N, the pair counts and MIN_REP_S alike, runs the
`verify_bijection` rows over F_{3^4} and F_5, and leaves out the
`simulate_dual_frobenius`, F_5 `induced_gamma`, p = 101 `pow`,
p = 1000003 `gamma_act` and p = 10007 `invert_ss_image` rows, for a
quick smoke run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import speed  # noqa: E402
from metaplectic.classify import simulate_dual_frobenius, simulate_dual_gamma, ss_data  # noqa: E402
from metaplectic.chars import TameChar  # noqa: E402
from metaplectic.coeff import FieldElem, field_make  # noqa: E402
from metaplectic.galois import InducedParams, iso_test, lemma2_reduce, tame_twist  # noqa: E402
from metaplectic.laurent import LaurentSeries, gamma_act, phi_basis_decompose  # noqa: E402
from metaplectic.meta import (  # noqa: E402
    SSRep,
    admissible,
    invert_ss_image,
    meta_irred_test,
    ps_image,
    ss_image,
    verify_bijection,
)
from metaplectic.metagroup import (  # noqa: E402
    MetaElem,
    PMatrix,
    chi_z,
    cocycle,
    kappa_split,
    meta_inv,
    meta_mul,
    quadchar_eval,
)
from metaplectic.phigamma import (  # noqa: E402
    dual,
    identity_matrix,
    make_induced,
    mat_inv,
    mat_mul,
    phi_gamma_commutes,
    psi,
)

MIN_REP_S = 0.05
REPEAT = 3
SEED = 1
SERIES_FIELD = (7, 1)
SERIES_SIZES = (1000, 10000)
GAMMA_FIELDS = [(p, m) for p in (5, 7, 13) for m in (1, 2, 4)]
GAMMA_SIZE = 1000
MODULE_FIELD = (7, 1)
MODULE_SIZE = 1000
INDUCED_MODULE = (5, 4, 2, 16)  # p, n, h, N: the modules workload's largest module
ELEM_FIELDS = ((7, 4), (3, 8))  # q = 2401 is tabled, q = 6561 is not
ELEM_COUNT = 1000
VERIFY_FIELDS = ((7, 4), (31, 1), (11, 3), (13, 3), (11, 4), (13, 4), (211, 1))
SMOKE_VERIFY_FIELDS = ((3, 4), (5, 1), (3, 2), (5, 2), (3, 3))  # below --scale 1
LEMMA2_PRIME, LEMMA2_COUNT = 101, 1000
PS_FIELD, PS_COUNT = (5, 2), 1000
ISO_PRIME, ISO_COUNT = 7, 1000
INVERT_PRIMES = (101, 10007)  # 10007 at --scale 1 only
INVERT_COUNT = 10
SIMULATE_PRIMES = (101, 1009)  # at --scale 1 only
SIMULATE_GAMMA = (101, 2, 3)  # p, c, digits; r = 1 and i = 1
INDUCED_GAMMA = (5, 4, 39, 30000)  # p, n, h, N; at --scale 1 only
INDUCED_DENSE = (5, 8, 4, 39, 5000, 99999)  # p, m, n, h, N, c: a dense unit over F_{5^8}
GAMMA_LARGE = (1000003, 1, 40, 2)  # p, m, N, c; at --scale 1 only
GAMMA_FRESH = (7, 1, 1000)  # p, m, N; a new unit c per call
POW_FIELD, POW_SIZE = 101, 10000  # at --scale 1 only
COVER_PRIMES = (3, 7)
COVER_PAIRS = 1000


def nonzero(rng, spec):
    while True:
        a = spec.elem([rng.randrange(spec.p) for _ in range(spec.m)])
        if not a.is_zero():
            return a


def dense(rng, spec, N):
    """Valuation -1, every coefficient below X^N nonzero."""
    return LaurentSeries(spec, {e: nonzero(rng, spec) for e in range(-1, N)}, N)


def fresh_units(rng, p):
    """An endless stream of seeded units c coprime to p below 10^9, one per
    call of a row: a unit repeats too rarely for kept tables to answer it."""
    while True:
        c = rng.randrange(2, 10 ** 9)
        if c % p:
            yield c


def wide(rng, p, v_range=range(-40, 41)):
    """p^v n/d with v drawn from v_range and n/d a unit, |n| and d below 10^6."""
    while True:
        n, d = rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6)
        if n % p and d % p:
            return Fraction(p) ** rng.choice(v_range) * Fraction(rng.choice((1, -1)) * n, d)


def wide_matrix(rng, p):
    """An invertible matrix of `wide` entries."""
    while True:
        ents = [wide(rng, p) for _ in range(4)]
        if ents[0] * ents[3] != ents[1] * ents[2]:
            return PMatrix(*ents)


def k_matrix(rng, p):
    """a, d units and b, c of valuation 0..40, 1..40: in K, with c in pZp."""
    a, d = wide(rng, p, (0,)), wide(rng, p, (0,))
    return PMatrix(a, wide(rng, p, range(41)), wide(rng, p, range(1, 41)), d)


def group_rng(keep, names):
    """A generator for one group of rows, seeded by SEED and the group's first
    row name, or None when `keep` accepts none of the names: the group is then
    not built."""
    return random.Random(f"{SEED} {names[0]}") if any(map(keep, names)) else None


def rows(scale, keep):
    """(name, zero-argument callable) for every row whose name `keep`
    accepts, inputs built up front.

    A row takes its inputs as default arguments: the loops below rebind
    their names, and a closure would read their last values.  Each group of
    rows draws its inputs from its own generator (see `group_rng`), so a row's
    inputs do not depend on which other rows are built."""
    out = []
    spec = field_make(*SERIES_FIELD)
    for N in SERIES_SIZES:
        tag = f"p={spec.p} m={spec.m} N={N}"
        e = 2 * spec.p + 3
        names = [f"laurent.{op} {tag}" for op in ("mul", "add", "invert", "phi_decompose")]
        names.append(f"laurent.pow {tag} e={e}")
        rng = group_rng(keep, names)
        if rng is None:
            continue
        n = max(2, round(N * scale))
        f, g = dense(rng, spec, n), dense(rng, spec, n)
        out += zip(names, [
            lambda f=f, g=g: f * g,
            lambda f=f, g=g: f + g,
            f.invert_series,
            lambda f=f: phi_basis_decompose(f),
            lambda u=f.shift(1), e=e: u.pow(e),
        ])
    spec, N = field_make(*SERIES_FIELD), SERIES_SIZES[-1]
    names = [f"laurent.mul p={spec.p} m=1 N={N} one-term", f"laurent.scale p={spec.p} m=2 N={N}"]
    rng = group_rng(keep, names)
    if rng is not None:
        n, square = max(2, round(N * scale)), field_make(spec.p, 2)
        f, g = dense(rng, spec, n), dense(rng, square, n)
        out += zip(names, [
            lambda f=f, a=LaurentSeries.monomial(spec, 2, n, spec.from_int(3)): a * f,
            lambda g=g, c=square.from_int(3): g.scale(c),
        ])
    gammas = [(p, m, GAMMA_SIZE, p + 1) for p, m in GAMMA_FIELDS]
    for p, m, N, c in gammas + ([GAMMA_LARGE] if scale >= 1 else []):
        name = f"laurent.gamma_act p={p} m={m} N={N}"
        rng = group_rng(keep, [name])
        if rng is not None:
            f = dense(rng, field_make(p, m), max(2, round(N * scale)))
            out.append((name, lambda f=f, c=c: gamma_act(c, f)))
    p, m, N = GAMMA_FRESH
    name = f"laurent.gamma_act p={p} m={m} N={N} fresh c"
    rng = group_rng(keep, [name])
    if rng is not None:
        f = dense(rng, field_make(p, m), max(2, round(N * scale)))
        out.append((name, lambda f=f, units=fresh_units(rng, p): gamma_act(next(units), f)))
    spec = field_make(*MODULE_FIELD)
    tag = f"p={spec.p} m={spec.m} n=4 N={MODULE_SIZE}"
    names = [f"phigamma.psi {tag}", f"phigamma.mat_inv {tag}"]
    rng = group_rng(keep, names)
    if rng is not None:
        N = max(2 * spec.p, round(MODULE_SIZE * scale))
        D = make_induced(spec, 4, 3, prec=N // spec.p)
        vec = [dense(rng, spec, N) for _ in range(4)]
        ident = identity_matrix(spec, 4, N)
        R = [[ident[i][j] + dense(rng, spec, N).shift(2) for j in range(4)] for i in range(4)]
        out += zip(names, [lambda D=D, vec=vec: psi(D, vec), lambda A=mat_mul(D.phi, R): mat_inv(A)])
    p, n, h, N = INDUCED_MODULE
    tag = f"p={p} m=1 n={n} h={h} N={N}"
    names = [f"phigamma.psi {tag}", f"phigamma.dual {tag}", f"phigamma.commutes {tag}"]
    rng = group_rng(keep, names)
    if rng is not None:
        spec, N = field_make(p), max(2, round(N * scale))
        vec = [dense(rng, spec, N * p) for _ in range(n)]
        out += zip(names, [
            lambda s=spec, n=n, h=h, N=N, vec=vec: psi(make_induced(s, n, h, prec=N), vec),
            lambda s=spec, n=n, h=h, N=N: dual(make_induced(s, n, h, prec=N)),
            lambda s=spec, n=n, h=h, N=N: phi_gamma_commutes(make_induced(s, n, h, prec=N), s.p + 1),
        ])
    for p, m in ELEM_FIELDS:
        tag = f"p={p} m={m} n={ELEM_COUNT}"
        names = [f"coeff.{op} {tag}" for op in ("elem", "mul", "inv", "pow")]
        rng = group_rng(keep, names)
        if rng is None:
            continue
        spec = field_make(p, m)
        n = max(2, round(ELEM_COUNT * scale))
        vecs = [tuple(rng.randrange(p) for _ in range(m)) for _ in range(n)]
        xs = [nonzero(rng, spec) for _ in range(n)]
        ys = [nonzero(rng, spec) for _ in range(n)]
        es = [rng.randrange(spec.order - 1) for _ in range(n)]
        out += zip(names, [
            lambda s=spec, vecs=vecs: [FieldElem(s, c) for c in vecs],
            lambda xs=xs, ys=ys: [a * b for a, b in zip(xs, ys)],
            lambda xs=xs: [a.inv() for a in xs],
            lambda xs=xs, es=es: [a ** e for a, e in zip(xs, es)],
        ])
    for p, m in VERIFY_FIELDS if scale >= 1 else SMOKE_VERIFY_FIELDS:
        name = f"meta.verify_bijection p={p} m={m}"
        if keep(name):
            out.append((name, lambda s=field_make(p, m): verify_bijection(s)))
    for p in SIMULATE_PRIMES if scale >= 1 else ():
        name = f"classify.simulate_dual_frobenius p={p} r=1 i=1 K=4"
        if keep(name):
            out.append((name, lambda d=ss_data(field_make(p), 1): simulate_dual_frobenius(d, 1, 4)))
    p, c, digits = SIMULATE_GAMMA
    name = f"classify.simulate_dual_gamma p={p} r=1 i=1 c={c} digits={digits}"
    if keep(name):
        out.append((name, lambda d=ss_data(field_make(p), 1), c=c, k=digits: simulate_dual_gamma(d, 1, c, k)))
    if scale >= 1:
        p, n, h, N = INDUCED_GAMMA
        name = f"phigamma.induced_gamma p={p} m=1 n={n} h={h} N={N}"
        if keep(name):
            out.append(
                (name, lambda s=field_make(p), n=n, h=h, N=N: make_induced(s, n, h, prec=N).gamma_matrix(s.p + 1))
            )
        rng = group_rng(keep, [name + " fresh c"])
        if rng is not None:
            out.append((
                name + " fresh c",
                lambda s=field_make(p), n=n, h=h, N=N, units=fresh_units(rng, p):
                    make_induced(s, n, h, prec=N).gamma_matrix(next(units)),
            ))
        p = POW_FIELD
        e = 3 + 50 * p + 97 * p * p
        name = f"laurent.pow p={p} m=1 N={POW_SIZE} e={e}"
        rng = group_rng(keep, [name])
        if rng is not None:
            u = dense(rng, field_make(p), POW_SIZE).shift(1)
            out.append((name, lambda u=u, e=e: u.pow(e)))
    p, m, n, h, N, c = INDUCED_DENSE
    name = f"phigamma.induced_gamma p={p} m={m} n={n} h={h} N={N}"
    if keep(f"{name} c={c}"):
        out.append((
            f"{name} c={c}",
            lambda s=field_make(p, m), n=n, h=h, N=max(2, round(N * scale)), c=c:
                make_induced(s, n, h, prec=N).gamma_matrix(c),
        ))
    rng = group_rng(keep, [name + " fresh c"])
    if rng is not None:
        out.append((
            name + " fresh c",
            lambda s=field_make(p, m), n=n, h=h, N=max(2, round(N * scale)), units=fresh_units(rng, p):
                make_induced(s, n, h, prec=N).gamma_matrix(next(units)),
        ))
    name = f"phigamma.mat_inv p={p} m={m} n={n} h={h} N={N} c={c} diagonal"
    if keep(name):
        G = make_induced(field_make(p, m), n, h, prec=max(2, round(N * scale))).gamma_matrix(c)
        out.append((name, lambda G=G: mat_inv(G)))
    for p in COVER_PRIMES:
        tag = f"p={p} pairs={COVER_PAIRS}"
        names = [f"metagroup.{op} {tag}" for op in ("cocycle", "meta_mul", "kappa_split", "mul", "meta_inv")]
        names += [f"metagroup.PMatrix {tag}", f"metagroup.scalar_conjugation p={p} n={COVER_PAIRS}"]
        rng = group_rng(keep, names)
        if rng is None:
            continue
        n = max(2, round(COVER_PAIRS * scale))
        pairs = [(wide_matrix(rng, p), wide_matrix(rng, p)) for _ in range(n)]
        elems = [(MetaElem(g1, 1), MetaElem(g2, -1)) for g1, g2 in pairs]
        ks = [k_matrix(rng, p) for _ in range(n)]
        ents = [g.entries() for pair in pairs for g in pair]
        conj = [(wide(rng, p), g1) for g1, _ in pairs]
        out += zip(names, [
            lambda p=p, pairs=pairs: [cocycle(g1, g2, p) for g1, g2 in pairs],
            lambda p=p, elems=elems: [meta_mul(x, y, p) for x, y in elems],
            lambda p=p, ks=ks: [kappa_split(g, 1, p) for g in ks],
            lambda pairs=pairs: [g1 * g2 for g1, g2 in pairs],
            lambda p=p, elems=elems: [meta_inv(x, p) for x, _ in elems],
            lambda ents=ents: [PMatrix(*e) for e in ents],
            lambda p=p, conj=conj: [
                (PMatrix.scalar(z), quadchar_eval(chi_z(z, p), g.det, p)) for z, g in conj
            ],
        ])
    p = LEMMA2_PRIME
    name = f"galois.lemma2_reduce p={p} n={LEMMA2_COUNT}"
    rng = group_rng(keep, [name])
    if rng is not None:
        n = max(2, round(LEMMA2_COUNT * scale))
        hs = [2 * rng.randrange(-10 ** 6, 10 ** 6) + 1 for _ in range(n)]
        out.append((name, lambda p=p, hs=hs: [lemma2_reduce(h, p) for h in hs]))
    spec = field_make(*PS_FIELD)
    name = f"meta.ps_image p={spec.p} m={spec.m} n={PS_COUNT}"
    rng = group_rng(keep, [name])
    if rng is not None:
        n, p = max(2, round(PS_COUNT * scale)), spec.p
        chars = [[TameChar(nonzero(rng, spec), rng.randrange(p - 1)) for _ in range(2)] for _ in range(n)]
        out.append((name, lambda chars=chars: [meta_irred_test(ps_image(c1, c2)) for c1, c2 in chars]))
    p = ISO_PRIME
    name = f"galois.iso_test p={p} m=1 n={ISO_COUNT}"
    rng = group_rng(keep, [name])
    if rng is not None:
        n, half = max(2, round(ISO_COUNT * scale)), (p * p + 1) // 2
        cases = [(h, *lemma2_reduce(h, p)) for h in (2 * rng.randrange(p ** 4 - 1) + 1 for _ in range(n))]
        out.append((
            name,
            lambda one=field_make(p).one(), half=half, cases=cases: [
                iso_test(InducedParams(4, half * h, one), tame_twist(InducedParams(4, half * hp, one), a))
                for h, a, hp in cases
            ],
        ))
    for p in INVERT_PRIMES if scale >= 1 else INVERT_PRIMES[:1]:
        name = f"meta.invert_ss_image p={p} m=1 n={INVERT_COUNT}"
        rng = group_rng(keep, [name])
        if rng is None:
            continue
        spec = field_make(p)
        n = max(2, round(INVERT_COUNT * scale))
        etas = [TameChar(nonzero(rng, spec), rng.randrange(p - 1)) for _ in range(n)]
        images = [ss_image(SSRep(spec, rng.choice(admissible(p)), eta)).base for eta in etas]
        out.append((name, lambda images=images: [invert_ss_image(M) for M in images]))
    return [(name, fn) for name, fn in out if keep(name)]


def time_row(fn, min_rep_s):
    """(best wall ms, best reference-speed ms) per call over REPEAT repetitions."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= min_rep_s:
            break
        number *= 2
    times, readings = [], [speed.reading()]
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
        readings.append(speed.reading())
    return min(times) * 1000, min(speed.scaled(times, readings)) * 1000


def commit():
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def sources():
    """The sha256 of the library sources imported so far (see the module docstring)."""
    modules = [module for name, module in list(sys.modules.items()) if name.split(".")[0] == "metaplectic"]
    paths = sorted(Path(module.__file__) for module in modules)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1] for line in fh if line.startswith("model name")]
    except OSError:
        names = []
    if names:
        model = names[0].strip()
    return {"platform": platform.platform(), "cpu": model, "cpus": os.cpu_count()}


def measure(scale, keep):
    speed.warm_up()
    layers = {}
    for name, fn in rows(scale, keep):
        ms, ref_ms = time_row(fn, MIN_REP_S * min(scale, 1.0))
        layers[name] = {"ms": round(ms, 4), "ref_ms": round(ref_ms, 4)}
        print(f"{name:45s} {ms:10.3f} ms {ref_ms:10.3f} ref_ms", file=sys.stderr)
    return {
        "commit": commit(),
        "src_sha256": sources(),
        "python": platform.python_version(),
        "machine": machine(),
        "seed": SEED,
        "repeat": REPEAT,
        "scale": scale,
        "layers": layers,
    }


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text())["layers"] for p in (path_a, path_b))
    print(f"{'layer':45s} {'a ref_ms':>10s} {'b ref_ms':>10s} {'a/b':>8s}")
    for name in a:
        if name in b:
            x, y = a[name]["ref_ms"], b[name]["ref_ms"]
            print(f"{name:45s} {x:10.3f} {y:10.3f} {x / y:8.2f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the measurements to this BENCH_<n>.json")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print ratios of two files")
    ap.add_argument("--scale", type=float, default=1.0, help="multiply every N (smoke runs)")
    ap.add_argument("--only", metavar="REGEX", help="build and time only the rows whose name it matches")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.out:
        ap.error("--out or --compare is required")
    if args.scale <= 0:
        ap.error("--scale must be positive")
    try:
        keep = re.compile(args.only or "").search
    except re.error as exc:
        ap.error(f"--only: {exc}")
    result = measure(args.scale, keep)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
