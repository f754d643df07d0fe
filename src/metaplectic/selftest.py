"""Seeded deterministic run of every module invariant, for the CLI.

Each check is independent and returns a small detail dict; the report
collects one entry per check plus a global flag.  All randomness comes
from a single seeded generator whose seed is printed in the report.
Checks fail by raising CheckFailed, never by `assert`, so the verdict
holds under `python -O`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .coeff import field_make, nth_roots, omega_of_unit
from .chars import TameChar, char_restrict_S, quadratic_chars, HChar
from .classify import (
    CyclicForm,
    dual_basis_form,
    galois_of_ss,
    normalize_cyclic,
    params_of_normal_form,
    simulate_dual_frobenius,
    ss_data,
)
from .galois import (
    InducedParams,
    canonicalize,
    dual_params,
    iso_test,
    lemma1_classify,
    lemma2_reduce,
    quad_twist,
    tame_twist,
)
from .laurent import LaurentSeries, frobenius_phi, gamma_act, one_unit_root, phi_basis_decompose, psi_ring
from .metagroup import (
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
from .meta import (
    SSRep,
    coset_quad_chars,
    enumerate_tame_chars,
    irr_iso_test,
    invert_ss_image,
    meta_irred_test,
    ps_image,
    ss_image,
    verify_bijection,
)
from .phigamma import make_induced, make_rank1, phi_gamma_commutes, psi


class CheckFailed(AssertionError):
    """An invariant checked by the selftest does not hold."""


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _rand_q(rng, p):
    v = rng.randrange(-2, 3)
    u = rng.choice([1, 2, 3, 4, 6, 7, -1, -2, -5])
    while u % p == 0:
        u = rng.choice([1, 2, 3, 7, -1, -2])
    return Fraction(p) ** v * u


def _rand_mat(rng, p):
    while True:
        ents = [
            Fraction(rng.randrange(-6, 7)) * Fraction(p) ** rng.randrange(-1, 2)
            for _ in range(4)
        ]
        try:
            return PMatrix(*ents)
        except ValueError:
            continue


def _rand_series(rng, spec, prec, val=-2, density=0.4):
    coeffs = {
        e: spec.from_int(rng.randrange(spec.p))
        for e in range(val, prec)
        if rng.random() < density
    }
    return LaurentSeries(spec, coeffs, prec)


def _check_coeff(rng):
    F25 = field_make(5, 2)
    for x in F25.nonzero_elements():
        _require((x * x.inv()).is_one(), "x * x^-1 = 1 in F_25")
    q = F25.order
    elems = list(F25.nonzero_elements())
    for _ in range(30):
        x = rng.choice(elems)
        n = rng.randrange(1, 10)
        roots = nth_roots(x, n)
        _require(len(roots) in (0, gcd(n, q - 1)), "nth_roots count is 0 or gcd(n, q - 1)")
        _require(all(y ** n == x for y in roots), "nth_roots are n-th roots")
    F5 = field_make(5)
    for _ in range(100):
        a = Fraction(rng.randrange(1, 40), rng.choice([1, 2, 3, 7]))
        b = Fraction(rng.randrange(1, 40), rng.choice([1, 2, 3, 7]))
        try:
            _require(
                omega_of_unit(a, F5) * omega_of_unit(b, F5) == omega_of_unit(a * b, F5),
                "omega_of_unit is multiplicative",
            )
        except ValueError:
            continue
    return {"fields": ["F_25", "F_5"]}


def _check_laurent(rng):
    for p in (3, 5):
        spec = field_make(p)
        for _ in range(10):
            f = _rand_series(rng, spec, 18)
            # reassembly
            comps = phi_basis_decompose(f)
            bound = min(c.prec for c in comps) * p
            one_plus = LaurentSeries.from_int_coeffs(spec, {0: 1, 1: 1}, bound + p)
            acc = LaurentSeries.zero(spec, bound)
            for i, gi in enumerate(comps):
                term = frobenius_phi(gi)
                if i:
                    term = term * one_plus.pow(i)
                acc = acc + term
            _require(acc.agrees_with(f), "phi-basis components reassemble f")
            # gamma composition and phi-gamma commutation
            c1, c2 = 2, p + 2
            _require(
                gamma_act(c1, gamma_act(c2, f)).agrees_with(gamma_act(c1 * c2, f)),
                "gamma_c1 gamma_c2 = gamma_(c1 c2)",
            )
            _require(
                frobenius_phi(gamma_act(c1, f)).agrees_with(
                    gamma_act(c1, frobenius_phi(f))
                ),
                "phi commutes with gamma",
            )
        # root law
        for _ in range(5):
            tail = _rand_series(rng, spec, 14, val=1, density=0.6)
            f = LaurentSeries.one(spec, 14) + tail
            if not f.is_one_unit():
                continue
            for n in (2, p + 2):
                _require(one_unit_root(f, n).pow(n).agrees_with(f), "one_unit_root(f, n)^n = f")
    return {"primes": [3, 5]}


def _check_metagroup(rng):
    counts = {}
    for p in (3, 5):
        for _ in range(300):
            a, b, c = _rand_mat(rng, p), _rand_mat(rng, p), _rand_mat(rng, p)
            _require(
                cocycle(a, b, p) * cocycle(a * b, c, p) == cocycle(a, b * c, p) * cocycle(b, c, p),
                "cocycle identity",
            )
        for _ in range(200):
            x, y = _rand_q(rng, p), _rand_q(rng, p)
            _require(hilbert(x, y, p) == hilbert(y, x, p), "Hilbert symbol is symmetric")
            _require(
                hilbert(x * y, y, p) == hilbert(x, y, p) * hilbert(y, y, p),
                "Hilbert symbol is multiplicative",
            )
            _require(hilbert(x, -x, p) == 1, "(x, -x) = 1")
            _require(hilbert(x * y ** 2, y, p) == hilbert(x, y, p), "(x y^2, y) = (x, y)")
            _require(quadchar_eval(chi_z(x, p), y, p) == hilbert(x, y, p), "chi_z(x)(y) = (x, y)")
        for _ in range(150):
            while True:
                g1, g2 = _rand_mat(rng, p), _rand_mat(rng, p)
                if all(
                    vp(e, p) >= 0 for m in (g1, g2) for e in m.entries() if e != 0
                ) and vp(g1.det, p) == 0 and vp(g2.det, p) == 0:
                    break
            z1, z2 = rng.choice([1, -1]), rng.choice([1, -1])
            _require(
                kappa_split(g1 * g2, z1 * z2, p) == meta_mul(
                    kappa_split(g1, z1, p), kappa_split(g2, z2, p), p
                ),
                "kappa_split is a homomorphism",
            )
        for _ in range(100):
            z = _rand_q(rng, p)
            zt = MetaElem(PMatrix.scalar(z), rng.choice([1, -1]))
            gt = MetaElem(_rand_mat(rng, p), rng.choice([1, -1]))
            conj = meta_mul(meta_mul(zt, gt, p), meta_inv(zt, p), p)
            _require(
                conj == MetaElem(gt.g, gt.zeta * quadchar_eval(chi_z(z, p), gt.g.det, p)),
                "conjugation by a central lift twists by chi_z",
            )
        from .meta import least_nonsquare_unit

        u0 = least_nonsquare_unit(p)
        _require(
            len({(chi_z(z, p).unram, chi_z(z, p).tame) for z in (1, u0, p, u0 * p)}) == 4,
            "coset representatives give 4 distinct chi_z",
        )
        samples = [MetaElem(_rand_mat(rng, p), 1) for _ in range(40)]
        for z in (1, 2, p, 2 * p, 4, p * p):
            zt = MetaElem(PMatrix.scalar(z), 1)
            commutes = all(meta_mul(zt, g, p) == meta_mul(g, zt, p) for g in samples)
            _require(commutes == is_square_qp(z, p), "the center of the cover is the squares")
        counts[p] = "ok"
    return counts


def _check_chars(rng):
    F5 = field_make(5)
    quad = {(tuple(e.unram.coeffs), e.tame) for e in quadratic_chars(F5)}
    kernel = {
        (tuple(chi.unram.coeffs), chi.tame)
        for chi in enumerate_tame_chars(F5)
        if char_restrict_S(chi).is_trivial()
    }
    _require(kernel == quad, "kernel of restriction to S = quadratic characters")
    for e1 in range(4):
        for e2 in range(4):
            chi = HChar(5, e1, e2)
            for i in (0, 1):
                for j in (0, 1):
                    _require(
                        chi.bracket(i, j).swap() == chi.swap().bracket(j, i),
                        "bracket and swap commute",
                    )
    return {"kernel_size": len(kernel)}


def _check_phigamma(rng):
    for p, h, N in ((3, 5, 30), (5, 5, 30)):
        spec = field_make(p)
        D = make_induced(spec, 4, h, prec=N)
        for c in (2, 1 + p):
            _require(phi_gamma_commutes(D, c), "phi and gamma commute on the induced module")
        for _ in range(8):
            v = [
                _rand_series(rng, spec, N - 5, val=-2, density=0.2)
                for _ in range(4)
            ]
            back = psi(D, D.apply_phi(v))
            _require(all(a.agrees_with(b) for a, b in zip(back, v)), "psi(phi(v)) = v")
            f = _rand_series(rng, spec, N - 5, val=-2, density=0.4)
            lhs = psi(D, [f * w for w in D.apply_phi(v)])
            s = psi_ring(f)
            _require(all(a.agrees_with(s * b) for a, b in zip(lhs, v)), "psi(f phi(v)) = psi(f) v")
            lhs2 = psi(D, [frobenius_phi(f) * w for w in v])
            rhs2 = [f * w for w in psi(D, v)]
            _require(all(a.agrees_with(b) for a, b in zip(lhs2, rhs2)), "psi(phi(f) v) = f psi(v)")
            gv = psi(D, D.apply_gamma(2, v))
            vg = D.apply_gamma(2, psi(D, v))
            _require(
                all(a.agrees_with(b, upto=3) for a, b in zip(gv, vg)),
                "psi commutes with gamma",
            )
    # rank-1 lattice stability
    spec = field_make(3)
    D = make_rank1(TameChar(spec.from_int(2), 0), 24)
    leads = set()
    for a in range(24):
        out = psi(D, [LaurentSeries.monomial(spec, a, 24)])[0]
        if not out.is_zero():
            _require(out.valuation >= 0, "psi keeps the rank-1 lattice")
            leads.add(out.valuation)
    _require(leads >= set(range(24 // 3 - 1)), "psi reaches every low valuation")
    return {"modules": ["induced(4,5) p=3", "induced(4,5) p=5", "rank1"]}


def _check_classify(rng):
    for p in (3, 5, 7):
        spec = field_make(p)
        for r in range(p):
            if r == (p - 1) // 2:
                continue
            data = ss_data(spec, r)
            route1 = galois_of_ss(data)
            route2 = ss_image(SSRep.plain(spec, r)).base
            _require(
                route1.H == route2.H and route1.Lam == route2.Lam,
                "two routes to the Galois parameter agree",
            )
            nf, _ = normalize_cyclic(dual_basis_form(data), 20)
            _require(
                dual_params(params_of_normal_form(nf)).H == route1.H,
                "normal form dualizes to the cycle parameter",
            )
    # simulation containment (small sample)
    spec = field_make(3)
    data = ss_data(spec, 0)
    for i in (1, 2):
        out = simulate_dual_frobenius(data, i, 3)
        s_i = data.s[i - 1]
        _require(out.valuation == s_i - 2, "phi(f_i) has valuation s_i - (p-1)")
        _require(
            (out.shift(-(s_i - 2)).scale(data.c[i - 1])).coeff(0).is_one(),
            "phi(f_i) has a 1-unit part",
        )
    # noise invariance
    spec = field_make(5)
    data = ss_data(spec, 1)
    base = dual_basis_form(data)
    noise = []
    for _ in range(4):
        coeffs = {0: spec.one()}
        for e in range(1, 18):
            if rng.random() < 0.5:
                coeffs[e] = spec.from_int(rng.randrange(1, 5))
        noise.append(LaurentSeries(spec, coeffs, 18))
    noisy = CyclicForm(spec, 4, base.d, base.t, base.b, tuple(noise))
    _require(
        normalize_cyclic(noisy, 18)[0] == normalize_cyclic(base, 18)[0],
        "normalization kills the noise",
    )
    return {"primes": [3, 5, 7]}


def _check_galois(rng):
    for p in (3, 5):
        spec = field_make(p)
        mod = p ** 4 - 1
        for _ in range(150):
            H = rng.randrange(mod)
            P = InducedParams(4, H, spec.from_int(rng.randrange(1, p)))
            _require(canonicalize(canonicalize(P)) == canonicalize(P), "canonicalize is idempotent")
            _require(iso_test(P, P), "iso_test is reflexive")
            _require(dual_params(dual_params(P)) == P, "dual_params is an involution")
        for _ in range(60):
            h = rng.randrange(1, 2 * mod) | 1
            a, hp = lemma2_reduce(h, p)
            lhs = InducedParams(4, (p * p + 1) // 2 * h, spec.one())
            rhs = tame_twist(InducedParams(4, (p * p + 1) // 2 * hp, spec.one()), a)
            _require(iso_test(lhs, rhs), "lemma2_reduce gives an isomorphic twist")
        hset = {
            lemma1_classify(ss_image(SSRep.plain(spec, r)).base)
            for r in range(p)
            if r != (p - 1) // 2
        }
        _require(hset == set(range(3, 2 * p, 2)), "window exponents are 3..2p-1")
    return {"hprime_window_checked": [3, 5]}


def _check_meta(rng):
    F25 = field_make(5, 2)
    chars = list(enumerate_tame_chars(F25))
    for _ in range(25):
        c1, c2 = rng.choice(chars), rng.choice(chars)
        M = ps_image(c1, c2)
        _require(meta_irred_test(M), "principal-series image is irreducible")
        _require(
            len({canonicalize(s).sort_key() for s in M.summands}) == 4,
            "principal-series image has 4 distinct summands",
        )
        for e1 in quadratic_chars(F25):
            M2 = ps_image(c1.mul(e1), c2.mul(e1))
            _require(M2.s_char == M.s_char, "quadratic twist keeps the S-character")
    for p in (3, 5, 7):
        spec = field_make(p)
        for r in range(p):
            if r == (p - 1) // 2:
                continue
            M = ss_image(SSRep.plain(spec, r))
            for q in coset_quad_chars(p):
                _require(
                    iso_test(quad_twist(M.base, q), M.base),
                    "supersingular image is quadratic-twist invariant",
                )
            rec = invert_ss_image(M)
            _require(irr_iso_test(rec, SSRep.plain(spec, r)), "invert_ss_image recovers (r, 1)")
    report = verify_bijection(field_make(3))
    _require(
        report["injective"] and report["surjective"],
        "bijection at p = 3 is injective and surjective",
    )
    return {"bijection_p3_m1": {"ss": report["ss_classes"], "galois": report["galois_classes"]}}


CHECKS = [
    ("coeff.invariants", _check_coeff),
    ("laurent.invariants", _check_laurent),
    ("metagroup.invariants", _check_metagroup),
    ("chars.invariants", _check_chars),
    ("phigamma.invariants", _check_phigamma),
    ("classify.invariants", _check_classify),
    ("galois.invariants", _check_galois),
    ("meta.invariants", _check_meta),
]


def run_selftest(seed=0):
    rng = random.Random(seed)
    results = []
    ok = True
    for name, fn in CHECKS:
        try:
            detail = fn(rng)
            results.append({"name": name, "ok": True, "detail": detail})
        except AssertionError as exc:  # CheckFailed, or a library invariant
            ok = False
            results.append({"name": name, "ok": False, "detail": str(exc)})
    return {"schema": 1, "seed": seed, "ok": ok, "checks": results}
