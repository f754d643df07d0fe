"""The invariant catalogue: every law that `metaplectic selftest` and the
test suite check, and the random generators the laws draw from.

Each law is one function of its inputs (a seeded generator, a prime, field
or module, and a sample count) and raises CheckFailed when it does not
hold.  `run_selftest` composes the laws at small sample counts into one
report entry per module; the acceptance suite and the module tests call
the same laws with their own seeds and counts.  Laws fail by raising
CheckFailed, never by `assert`, so every verdict holds under `python -O`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .coeff import field_make, nth_roots, omega_of_unit
from .chars import TameChar, char_restrict_S, quadratic_chars, HChar
from .classify import (
    CyclicForm,
    cycle_form,
    dual_basis_form,
    galois_of_ss,
    normalize_cyclic,
    params_of_normal_form,
    simulate_dual_frobenius,
    ss_data,
)
from .cli import module_from_json, module_to_json
from .galois import (
    InducedParams,
    canonicalize,
    dual_params,
    iso_test,
    lemma1_classify,
    lemma2_reduce,
    lfield_param,
    quad_twist,
    tame_twist,
)
from .laurent import _UNITS_KEPT, LaurentSeries, frobenius_phi, gamma_act, one_unit_root, phi_basis_decompose, psi_ring
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
    admissible,
    coset_quad_chars,
    enumerate_tame_chars,
    irr_iso_test,
    invert_ss_image,
    least_nonsquare_unit,
    meta_irred_test,
    ps_image,
    ss_image,
    verify_bijection,
)
from .phigamma import dual, make_induced, make_rank1, mat_mul, phi_gamma_commutes, psi, twist


class CheckFailed(AssertionError):
    """An invariant checked by the selftest does not hold."""


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


# -- generators -------------------------------------------------------------


def rand_rational(rng, p):
    v = rng.randrange(-2, 3)
    u = rng.choice([1, 2, 3, 4, 6, 7, -1, -2, -5])
    while u % p == 0:
        u = rng.choice([1, 2, 3, 7, -1, -2])
    return Fraction(p) ** v * u


def rand_matrix(rng, p):
    while True:
        ents = [
            Fraction(rng.randrange(-6, 7)) * Fraction(p) ** rng.randrange(-1, 2)
            for _ in range(4)
        ]
        try:
            return PMatrix(*ents)
        except ValueError:
            continue


def rand_k_matrix(rng, p):
    while True:
        ents = [rng.randrange(-8, 9) for _ in range(4)]
        try:
            m = PMatrix(*ents)
        except ValueError:
            continue
        if vp(m.det, p) == 0:
            return m


def rand_series(rng, spec, prec, lo=-2, hi=None, density=0.4):
    """A series mod X^prec with a random coefficient at each exponent of
    [lo, hi) (hi defaults to prec) drawn with the given probability."""
    coeffs = {
        e: spec.from_int(rng.randrange(spec.p))
        for e in range(lo, prec if hi is None else hi)
        if rng.random() < density
    }
    return LaurentSeries(spec, coeffs, prec)


def rand_vector(rng, D):
    """A coordinate vector of D: each entry has 4 random terms at exponents
    in [-3, N/2) and precision N = D.prec."""
    N = D.prec
    v = []
    for _ in range(D.n):
        coeffs = {
            rng.randrange(-3, N // 2): D.spec.from_int(rng.randrange(D.spec.p))
            for _ in range(4)
        }
        v.append(LaurentSeries(D.spec, coeffs, N))
    return v


def rand_noisy_form(rng, primes, prec):
    """A consistent cyclic form of rank 1, 2 or 4 over F_p (p from primes)
    and the same form with random 1-unit noise mod X^prec: (clean, noisy)."""
    while True:
        p = rng.choice(primes)
        spec = field_make(p)
        n = rng.choice([1, 2, 4])
        s = [rng.randrange(0, 2 * p) for _ in range(n)]
        if not (all(x == 0 for x in s) or sum(s) % (p - 1)):
            break
    c = [spec.from_int(rng.randrange(1, p)) for _ in range(n)]
    a = [rng.randrange(p - 1)]
    for i in range(n - 1):
        a.append((a[-1] + s[i]) % (p - 1))
    clean = cycle_form(spec, s, c, a)
    noise = []
    for _ in range(n):
        coeffs = {0: spec.one()}
        for e in range(1, prec):
            if rng.random() < 0.5:
                coeffs[e] = spec.from_int(rng.randrange(1, p))
        noise.append(LaurentSeries(spec, coeffs, prec))
    return clean, CyclicForm(spec, n, clean.d, clean.t, clean.b, tuple(noise))


# -- coefficient fields -----------------------------------------------------


def nth_root_law(rng, spec, samples):
    """nth_roots finds 0 or gcd(n, q-1) roots, and each is an n-th root."""
    q = spec.order
    elems = list(spec.nonzero_elements())
    for _ in range(samples):
        x = rng.choice(elems)
        n = rng.randrange(1, 12)
        roots = nth_roots(x, n)
        _require(len(roots) in (0, gcd(n, q - 1)), "nth_roots count is 0 or gcd(n, q - 1)")
        _require(all(y ** n == x for y in roots), "nth_roots are n-th roots")


def omega_law(rng, spec, samples):
    """The Teichmueller character of p-adic units is multiplicative."""
    for _ in range(samples):
        a = Fraction(rng.randrange(1, 60), rng.choice([1, 2, 3, 7, 11]))
        b = Fraction(rng.randrange(1, 60), rng.choice([1, 2, 3, 7, 11]))
        try:
            wa, wb = omega_of_unit(a, spec), omega_of_unit(b, spec)
        except ValueError:
            continue
        _require(wa * wb == omega_of_unit(a * b, spec), "omega_of_unit is multiplicative")


# -- Laurent series ---------------------------------------------------------


def reassembly_law(rng, spec, samples, prec):
    """The phi-basis components of f keep their precision contract and
    reassemble f as sum phi(g_i) (1+X)^i."""
    p = spec.p
    for _ in range(samples):
        f = rand_series(rng, spec, prec)
        comps = phi_basis_decompose(f)
        _require(all(c.prec == prec // p for c in comps), "phi-basis components keep N // p digits")
        bound = prec // p * p
        one_plus = LaurentSeries.from_int_coeffs(spec, {0: 1, 1: 1}, bound + p)
        acc = LaurentSeries.zero(spec, bound)
        for i, gi in enumerate(comps):
            term = frobenius_phi(gi)
            if i:
                term = term * one_plus.pow(i)
            acc = acc + term
        _require(acc.agrees_with(f), "phi-basis components reassemble f")


def gamma_law(rng, spec, samples, prec, c1, c2):
    """gamma_c1 gamma_c2 = gamma_(c1 c2), and phi commutes with gamma_c1."""
    for _ in range(samples):
        f = rand_series(rng, spec, prec)
        _require(
            gamma_act(c1, gamma_act(c2, f)).agrees_with(gamma_act(c1 * c2, f)),
            "gamma_c1 gamma_c2 = gamma_(c1 c2)",
        )
        _require(
            frobenius_phi(gamma_act(c1, f)).agrees_with(gamma_act(c1, frobenius_phi(f))),
            "phi commutes with gamma",
        )


def root_law(rng, spec, samples, prec, exponents):
    """one_unit_root(f, n)^n = f for random 1-units f; returns the checked
    (f, n, root) triples."""
    checked = []
    for _ in range(samples):
        f = LaurentSeries.one(spec, prec) + rand_series(rng, spec, prec, lo=1, density=0.6)
        for n in exponents:
            root = one_unit_root(f, n)
            _require(root.pow(n).agrees_with(f), "one_unit_root(f, n)^n = f")
            checked.append((f, n, root))
    return checked


# -- the metaplectic cover --------------------------------------------------


def cocycle_law(rng, p, samples):
    """The Kubota cocycle satisfies the 2-cocycle identity, which is the
    associativity of the cover's group law."""
    for _ in range(samples):
        a, b, c = (rand_matrix(rng, p) for _ in range(3))
        _require(
            cocycle(a, b, p) * cocycle(a * b, c, p) == cocycle(a, b * c, p) * cocycle(b, c, p),
            "cocycle identity",
        )


def splitting_law(rng, p, samples):
    """kappa_split is a homomorphism from K x {+-1} into the cover."""
    for _ in range(samples):
        g1, g2 = rand_k_matrix(rng, p), rand_k_matrix(rng, p)
        z1, z2 = rng.choice([1, -1]), rng.choice([1, -1])
        _require(
            kappa_split(g1 * g2, z1 * z2, p)
            == meta_mul(kappa_split(g1, z1, p), kappa_split(g2, z2, p), p),
            "kappa_split is a homomorphism",
        )


def hilbert_law(rng, p, samples):
    """The Hilbert symbol is symmetric, multiplicative, has (a, -a) = 1 and
    depends only on square classes."""
    for _ in range(samples):
        a, b, c, d = (rand_rational(rng, p) for _ in range(4))
        _require(hilbert(a, b, p) == hilbert(b, a, p), "Hilbert symbol is symmetric")
        _require(
            hilbert(a * b, c, p) == hilbert(a, c, p) * hilbert(b, c, p),
            "Hilbert symbol is multiplicative",
        )
        _require(hilbert(a, -a, p) == 1, "(a, -a) = 1")
        _require(hilbert(a * d ** 2, b, p) == hilbert(a, b, p), "(a d^2, b) = (a, b)")


def chi_z_law(rng, p, samples):
    """chi_z(z)(x) is the Hilbert symbol (z, x)."""
    for _ in range(samples):
        z, x = rand_rational(rng, p), rand_rational(rng, p)
        _require(quadchar_eval(chi_z(z, p), x, p) == hilbert(z, x, p), "chi_z(z)(x) = (z, x)")


def conjugation_law(rng, p, samples):
    """Conjugation by a lift of the scalar z twists the sign by chi_z(z)(det g)."""
    for _ in range(samples):
        z = rand_rational(rng, p)
        zt = MetaElem(PMatrix.scalar(z), rng.choice([1, -1]))
        gt = MetaElem(rand_matrix(rng, p), rng.choice([1, -1]))
        conj = meta_mul(meta_mul(zt, gt, p), meta_inv(zt, p), p)
        _require(
            conj == MetaElem(gt.g, gt.zeta * quadchar_eval(chi_z(z, p), gt.g.det, p)),
            "conjugation by a central lift twists by chi_z",
        )


def chi_z_coset_law(p):
    """The coset representatives 1, u0, p, u0 p give 4 distinct chi_z."""
    u0 = least_nonsquare_unit(p)
    _require(
        len({(chi_z(z, p).unram, chi_z(z, p).tame) for z in (1, u0, p, u0 * p)}) == 4,
        "coset representatives give 4 distinct chi_z",
    )


def center_law(rng, p, samples):
    """A lift of the scalar z is central exactly when z is a square."""
    elems = [MetaElem(rand_matrix(rng, p), 1) for _ in range(samples)]
    for z in (1, 2, 4, p, 2 * p, p * p, Fraction(1, p), Fraction(2, p)):
        zt = MetaElem(PMatrix.scalar(z), 1)
        commutes = all(meta_mul(zt, g, p) == meta_mul(g, zt, p) for g in elems)
        _require(commutes == is_square_qp(z, p), "the center of the cover is the squares")


# -- (phi, Gamma)-modules ---------------------------------------------------


def psi_law(rng, D, samples):
    """psi is a left inverse of phi and satisfies both projection formulas,
    psi(f phi(v)) = psi(f) v and psi(phi(f) v) = f psi(v).  Returns the
    least precision of a round trip psi(phi(v))."""
    least = D.prec
    for _ in range(samples):
        v = rand_vector(rng, D)
        for a, b in zip(psi(D, D.apply_phi(v)), v):
            _require(a.agrees_with(b), "psi(phi(v)) = v")
            least = min(least, a.prec, b.prec)
        f = rand_series(rng, D.spec, D.prec, hi=10, density=0.5)
        lhs = psi(D, [f * w for w in D.apply_phi(v)])
        s = psi_ring(f)
        _require(all(a.agrees_with(s * b) for a, b in zip(lhs, v)), "psi(f phi(v)) = psi(f) v")
        lhs = psi(D, [frobenius_phi(f) * w for w in v])
        rhs = [f * w for w in psi(D, v)]
        _require(all(a.agrees_with(b) for a, b in zip(lhs, rhs)), "psi(phi(f) v) = f psi(v)")
    _require(least >= 1, "psi(phi(v)) keeps a digit")
    return least


def psi_gamma_law(rng, D, samples, c):
    """psi commutes with gamma_c."""
    for _ in range(samples):
        v = rand_vector(rng, D)
        lhs = psi(D, D.apply_gamma(c, v))
        rhs = D.apply_gamma(c, psi(D, v))
        _require(all(a.agrees_with(b) for a, b in zip(lhs, rhs)), "psi commutes with gamma")


def gamma_cocycle_holds(D, c1, c2):
    """Gamma acts semilinearly and the column j of G(c) holds gamma_c(e_j),
    so G(c1 c2) = G(c1) gamma_{c1}(G(c2)): both sides have one shape and
    agree entrywise up to the precision both know."""
    G1, G2 = D.gamma_matrix(c1), D.gamma_matrix(c2)
    rhs = mat_mul(G1, [[gamma_act(c1, e) for e in row] for row in G2])
    lhs = D.gamma_matrix(c1 * c2)
    return [len(x) for x in lhs] == [len(y) for y in rhs] and all(
        a.agrees_with(b) for x, y in zip(lhs, rhs) for a, b in zip(x, y)
    )


def gamma_cocycle_law(rng, D, samples):
    """gamma_cocycle_holds for `samples` pairs of distinct units below 40p.
    Returns the pairs drawn."""
    p = D.spec.p
    pool = [c for c in range(2, 40 * p) if c % p]
    pairs = [tuple(rng.sample(pool, 2)) for _ in range(samples)]
    for c1, c2 in pairs:
        _require(gamma_cocycle_holds(D, c1, c2), f"G({c1 * c2}) = G({c1}) gamma_{c1}(G({c2}))")
    return pairs


def rank1_lattice_law(prec):
    """psi keeps the lattice k[[X]] of a rank-1 module over F_3 and reaches
    every valuation below prec/3 - 1."""
    spec = field_make(3)
    D = make_rank1(TameChar(spec.from_int(2), 0), prec)
    leads = set()
    for a in range(prec):
        out = psi(D, [LaurentSeries.monomial(spec, a, prec)])[0]
        if not out.is_zero():
            _require(out.valuation >= 0, "psi keeps the rank-1 lattice")
            leads.add(out.valuation)
    _require(leads >= set(range(prec // 3 - 1)), "psi reaches every low valuation")


# -- normal forms and the supersingular side --------------------------------


def normal_form_law(rng, primes, samples, prec):
    """Normalization kills 1-unit noise: a random noisy cyclic form and its
    noise-free form have one normal form, and the basis change satisfies
    h_(i+1) = g_i phi(h_i) mod X^prec for the noise g_i."""
    for _ in range(samples):
        clean, noisy = rand_noisy_form(rng, primes, prec)
        nf, hs = normalize_cyclic(noisy, prec)
        _require(nf == normalize_cyclic(clean, prec)[0], "normalization kills the noise")
        for i, g in enumerate(noisy.noise):
            rhs = (frobenius_phi(hs[i], 1, prec) * g).truncate(prec)
            _require(hs[(i + 1) % noisy.n].agrees_with(rhs), "the basis change kills the noise")


def two_route_law(primes):
    """The Galois parameter of the cycle data equals the closed-form image."""
    for p in primes:
        spec = field_make(p)
        for r in admissible(p):
            cycle_route = galois_of_ss(ss_data(spec, r))
            closed_route = ss_image(SSRep.plain(spec, r)).base
            _require(
                cycle_route.n == closed_route.n == 4
                and cycle_route.H == closed_route.H
                and cycle_route.Lam == closed_route.Lam,
                "two routes to the Galois parameter agree",
            )


def duality_law(primes, prec):
    """The normal form of the dual basis dualizes to the cycle parameter."""
    for p in primes:
        spec = field_make(p)
        for r in admissible(p):
            data = ss_data(spec, r)
            nf, _ = normalize_cyclic(dual_basis_form(data), prec)
            lhs = dual_params(params_of_normal_form(nf))
            rhs = galois_of_ss(data)
            _require(
                lhs.H == rhs.H and lhs.Lam == rhs.Lam and iso_test(lhs, rhs),
                "normal form dualizes to the cycle parameter",
            )


def containment_law(cases, K):
    """For each (p, r) and basis index i, the simulated phi(f_i) has
    valuation s_i - (p-1) and a 1-unit part known to K digits."""
    for p, r in cases:
        data = ss_data(field_make(p), r)
        for i in (1, 2, 3, 4):
            out = simulate_dual_frobenius(data, i, K)
            shift = data.s[i - 1] - (p - 1)
            _require(out.valuation == shift, "phi(f_i) has valuation s_i - (p-1)")
            unit = out.shift(-shift).scale(data.c[i - 1])
            _require(unit.prec >= K, "phi(f_i) is known to K digits")
            _require(unit.coeff(0).is_one(), "phi(f_i) has a 1-unit part")


def lemma2_law(spec, hs):
    """Each odd h reduces to a window exponent h' in 3..2p-1 whose tame
    twist is isomorphic to the parameter of h.  Returns the count."""
    p = spec.p
    count = 0
    for h in hs:
        a, hp = lemma2_reduce(h, p)
        _require(hp % 2 == 1 and 3 <= hp <= 2 * p - 1, "lemma2_reduce lands in the window")
        rhs = tame_twist(lfield_param(spec, hp), a)
        _require(iso_test(lfield_param(spec, h), rhs), "lemma2_reduce gives an isomorphic twist")
        count += 1
    return count


def ss_image_law(primes):
    """Each supersingular image is irreducible, has a window exponent, is
    invariant under the quadratic twists and is inverted by invert_ss_image."""
    for p in primes:
        spec = field_make(p)
        for r in admissible(p):
            M = ss_image(SSRep.plain(spec, r))
            _require(lemma1_classify(M.base) is not None, "supersingular image has a window exponent")
            _require(meta_irred_test(M), "supersingular image is irreducible")
            for q in coset_quad_chars(p):
                _require(
                    iso_test(quad_twist(M.base, q), M.base),
                    "supersingular image is quadratic-twist invariant",
                )
            rec = invert_ss_image(M)
            _require(irr_iso_test(rec, SSRep.plain(spec, r)), "invert_ss_image recovers (r, 1)")


def ps_image_law(c1, c2):
    """The principal-series image of (c1, c2) is irreducible with 4 distinct
    summands.  Returns the image and its canonical summand keys."""
    M = ps_image(c1, c2)
    _require(meta_irred_test(M), "principal-series image is irreducible")
    keys = {canonicalize(s).sort_key() for s in M.summands}
    _require(len(keys) == 4, "principal-series image has 4 distinct summands")
    return M, keys


def ps_twist_law(c1, c2):
    """Quadratic twists of c1 and c2 keep the principal-series image."""
    M, keys = ps_image_law(c1, c2)
    for e1 in quadratic_chars(c1.spec):
        for e2 in quadratic_chars(c1.spec):
            M2 = ps_image(c1.mul(e1), c2.mul(e2))
            _require(
                M2.s_char == M.s_char and {canonicalize(s).sort_key() for s in M2.summands} == keys,
                "quadratic twists keep the principal-series image",
            )


def bijection_law(spec):
    """verify_bijection over spec reports a class-function bijection with
    equal class and up-to-twist counts on both sides.  Returns the report."""
    report = verify_bijection(spec)
    _require(report["injective"] and report["surjective"], "the bijection is injective and surjective")
    _require(report["class_function_consistent"], "the image is a class function")
    _require(report["ss_classes"] == report["galois_classes"], "both sides have equal class counts")
    _require(
        report["up_to_twist_ss"] == report["up_to_twist_galois"],
        "both sides have equal up-to-twist counts",
    )
    return report


# -- the selftest report ----------------------------------------------------


def _check_coeff(rng):
    F25 = field_make(5, 2)
    for x in F25.nonzero_elements():
        _require((x * x.inv()).is_one(), "x * x^-1 = 1 in F_25")
    nth_root_law(rng, F25, 30)
    omega_law(rng, field_make(5), 100)
    return {"fields": ["F_25", "F_5"]}


def _check_laurent(rng):
    for p in (3, 5):
        spec = field_make(p)
        reassembly_law(rng, spec, 10, 18)
        gamma_law(rng, spec, 10, 18, 2, p + 2)
        root_law(rng, spec, 5, 14, (2, p + 2))
    return {"primes": [3, 5]}


def _check_metagroup(rng):
    counts = {}
    for p in (3, 5):
        cocycle_law(rng, p, 300)
        hilbert_law(rng, p, 200)
        chi_z_law(rng, p, 200)
        splitting_law(rng, p, 150)
        conjugation_law(rng, p, 100)
        chi_z_coset_law(p)
        center_law(rng, p, 40)
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
    for p in (3, 5):
        D = make_induced(field_make(p), 4, 5, prec=30)
        for c in (2, 1 + p):
            _require(phi_gamma_commutes(D, c), "phi and gamma commute on the induced module")
        psi_law(rng, D, 8)
        psi_gamma_law(rng, D, 8, 2)
    rank1_lattice_law(24)
    # the cocycle law draws from its own generator, so the laws after this
    # check draw as before, and asks more units than the unit table keeps
    cocycle, units = random.Random("gamma cocycle"), set()
    for p in (3, 5):
        spec = field_make(p)
        chi = TameChar(spec.from_int(2), 1)
        D = make_induced(spec, 2, 7, tame=1, prec=24)
        for E in (make_rank1(chi, 24), twist(D, chi), dual(D), D):
            pairs = gamma_cocycle_law(cocycle, E, 3)
            asked = {c for c1, c2 in pairs for c in (c1, c2, c1 * c2)}
            units |= {(p, c) for c in asked}
        # a module read back from JSON answers only at its stored units: those
        # just asked of D, on the same pairs
        J = module_from_json(module_to_json(D, sorted(asked)), spec)
        _require(all(gamma_cocycle_holds(J, c1, c2) for c1, c2 in pairs), "the cocycle law read back from JSON")
    _require(len(units) > _UNITS_KEPT, "the cocycle law asks more units than the unit table keeps")
    return {"modules": ["induced(4,5) p=3", "induced(4,5) p=5", "rank1"]}


def _check_classify(rng):
    two_route_law((3, 5, 7))
    duality_law((3, 5, 7), 20)
    containment_law([(3, 0)], 3)
    normal_form_law(rng, (3, 5), 4, 18)
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
        lemma2_law(spec, [rng.randrange(1, 2 * mod) | 1 for _ in range(60)])
        hset = {lemma1_classify(ss_image(SSRep.plain(spec, r)).base) for r in admissible(p)}
        _require(hset == set(range(3, 2 * p, 2)), "window exponents are 3..2p-1")
    return {"hprime_window_checked": [3, 5]}


def _check_meta(rng):
    chars = list(enumerate_tame_chars(field_make(5, 2)))
    for _ in range(25):
        ps_twist_law(rng.choice(chars), rng.choice(chars))
    ss_image_law((3, 5, 7))
    report = bijection_law(field_make(3))
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
