"""`modules`: the supersingular pipeline on (phi,Gamma)-modules at p in {3,5,7}.

Three job kinds share one cycle:

* classify: `ss_data` -> `dual_basis_form` -> `normalize_cyclic` of a seeded
  noisy form (the normal form must equal the noise-free one) -> `galois_of_ss`
  (must equal the closed form of the supersingular image).
* module: `make_induced` (n in {1,2,4}, small h) -> `gamma_matrix`,
  `phi_gamma_commutes`, the psi round trip psi(phi(v)) = v, the two psi
  identities psi(f phi(v)) = psi(f) v and psi(phi(f) v) = f psi(v), and
  `dual` (phi^T and G^T times the dual's matrices are the identity).
* oracle: `simulate_dual_frobenius` (K = 4) for all four basis vectors, and
  `simulate_dual_gamma` with a small digit count, against the closed forms.

Why: it uses `laurent` very differently from `series` (sparse
Frobenius-stretched and monomial entries, precision near pN, valuations down
to -h(p-1)), and it is the only workload for `phigamma` and `classify`.
"""

from __future__ import annotations

from metaplectic.classify import (
    CyclicForm,
    dual_basis_form,
    e_exponents,
    galois_of_ss,
    normalize_cyclic,
    simulate_dual_frobenius,
    simulate_dual_gamma,
    ss_data,
)
from metaplectic.coeff import field_make
from metaplectic.laurent import LaurentSeries, frobenius_phi, phi_basis_decompose
from metaplectic.phigamma import (
    dual,
    make_induced,
    mat_mul,
    mat_transpose,
    phi_gamma_commutes,
    psi,
)

from workloads.common import (
    Job,
    admissible,
    agree,
    check,
    closed_form,
    cycle_jobs,
    interleave,
    series_mul,
)

MODULES = ["metaplectic.phigamma", "metaplectic.classify"]
FIELDS = [(3, 1), (5, 1), (7, 1)]

K = 4  # digits of the dual-Frobenius 1-unit, as in the acceptance suite
GAMMA_WINDOW_MAX = 160  # largest quotient the gamma oracle may build

CYCLE = interleave(
    [("module", p, n, N) for p, N in ((3, 24), (5, 16), (7, 12)) for n in (1, 2, 4)]
    + [("classify", p, 120) for p in (3, 5, 7)]
    + [("oracle", p, case) for p in (3, 5, 7) for case in (0, 1)],
    5,
)
TRACE_JOBS = len(CYCLE)


def window(data, i, need):
    """Size e(i)_m + 1 of the least quotient level whose e(i)_m reaches need;
    used only to keep the gamma oracle's inputs small."""
    m = 1
    while e_exponents(data, i, m)[1] < need:
        m += 1
    return e_exponents(data, i, m)[1] + 1


def jobs(rng):
    gamma_cases = {}
    for p in (3, 5, 7):
        spec = field_make(p)
        gamma_cases[p] = [
            (r, i, d)
            for r in admissible(p)
            for i in (1, 2, 3, 4)
            for d in (2, 3)
            if window(ss_data(spec, r), i, p * d + p - 1) <= GAMMA_WINDOW_MAX
        ]

    # The cycle position, not the seed, picks the parameters that set a job's
    # cost (h, the unit c, r and the oracle case): every seed runs the same
    # schedule, and the seed makes the series, noise and twists.
    def make(i, kind, p, *size):
        spec = field_make(p)
        if kind == "module":
            return _module_job(rng, spec, *size, i)
        if kind == "classify":
            return _classify_job(rng, spec, *size, i)
        cases = gamma_cases[p]
        return _oracle_job(rng, spec, cases[size[0] * len(cases) // 2], i)

    return cycle_jobs(CYCLE, make)


def _rand_series(rng, spec, N, exps, terms):
    """`terms` nonzero coefficients at seeded exponents: the seed picks
    values and positions, never how many."""
    coeffs = {e: spec.from_int(rng.randrange(1, spec.p)) for e in rng.sample(exps, terms)}
    return LaurentSeries(spec, coeffs, N)


def _traced_psi(tr, D, vec):
    with tr.span("phigamma.psi"):
        out = psi(D, vec)
    if tr.enabled:
        tr.add("phigamma.psi.prec_in", sum(x.prec for x in vec))
        tr.add("phigamma.psi.prec_out", sum(y.prec for y in out))
    return out


def _check_identity(tr, M, spec, min_prec, what):
    """Every entry of M agrees with the identity to at least min_prec digits."""
    for i, row in enumerate(M):
        for j, entry in enumerate(row):
            check(entry.prec >= min_prec, f"{what}: precision {entry.prec} < {min_prec}")
            want = LaurentSeries.one(spec, entry.prec) if i == j else LaurentSeries.zero(spec, entry.prec)
            agree(tr, entry, want, f"{what}: entry ({i},{j})")


def _module_job(rng, spec, n, N, i):
    p = spec.p
    h = (1, 2, 3)[i % 3]
    c = (2, 1 + p)[i // 3 % 2]
    lam = spec.from_int(rng.randrange(1, p))
    tame = rng.randrange(p - 1)
    exps = range(-3, N // 2)
    v = [_rand_series(rng, spec, N, exps, 4) for _ in range(n)]
    f = _rand_series(rng, spec, N, range(-2, 10), 6)
    props = {"p": p, "m": 1, "q": p, "N": N, "n": n, "h": h, "c": c, "valuation": -h * (p - 1)}

    def run(tr):
        with tr.span("phigamma.make_induced"):
            D = make_induced(spec, n, h, lam_n=lam, tame=tame, prec=N)
        with tr.span("phigamma.gamma_matrix"):
            G = D.gamma_matrix(c)
        with tr.span("phigamma.commutes"):
            ok = phi_gamma_commutes(D, c)
        check(ok, "G_c gamma(Phi) = Phi phi(G_c)")

        with tr.span("phigamma.other"):
            w = D.apply_phi(v)
        for a, b in zip(_traced_psi(tr, D, w), v):
            check(min(a.prec, b.prec) >= 1, "psi round trip precision")
            agree(tr, a, b, "psi(phi(v)) = v")

        lhs = _traced_psi(tr, D, [series_mul(tr, f, x) for x in w])
        with tr.span("laurent.phi_decompose"):
            s = phi_basis_decompose(f)[0]
        for a, b in zip(lhs, [series_mul(tr, s, x) for x in v]):
            agree(tr, a, b, "psi(f phi(v)) = psi(f) v")

        with tr.span("laurent.other"):
            pf = frobenius_phi(f)
        lhs2 = _traced_psi(tr, D, [series_mul(tr, pf, x) for x in v])
        for a, b in zip(lhs2, [series_mul(tr, f, x) for x in _traced_psi(tr, D, v)]):
            agree(tr, a, b, "psi(phi(f) v) = f psi(v)")

        with tr.span("phigamma.dual"):
            Dd = dual(D)
        with tr.span("phigamma.gamma_matrix"):
            Gd = Dd.gamma_matrix(c)
        with tr.span("phigamma.other"):
            phi_check = mat_mul(mat_transpose(D.phi), Dd.phi)
            gamma_check = mat_mul(mat_transpose(G), Gd)
        _check_identity(tr, phi_check, spec, N, "Phi^T dual(Phi)")
        _check_identity(tr, gamma_check, spec, N, "G^T dual(G)")

    return Job("module", props, run)


def _classify_job(rng, spec, N, i):
    p = spec.p
    r = admissible(p)[i % (p - 1)]
    noise = [_rand_series(rng, spec, N, range(1, N), N // 2) + 1 for _ in range(4)]
    H, lam = closed_form(p, r)
    props = {"p": p, "m": 1, "q": p, "N": N, "n": 4, "r": r}

    def run(tr):
        with tr.span("classify.other"):
            data = ss_data(spec, r)
            form = dual_basis_form(data)
            noisy = CyclicForm(spec, form.n, form.d, form.t, form.b, tuple(noise))
        with tr.span("classify.normalize"):
            nf_noisy, basis_change = normalize_cyclic(noisy, N)
        with tr.span("classify.normalize"):
            nf_clean, _ = normalize_cyclic(form, N)
        check(nf_noisy == nf_clean, "noisy normal form = noise-free normal form")
        check(all(b.prec == N and b.is_one_unit() for b in basis_change), "basis change")
        with tr.span("classify.other"):
            P = galois_of_ss(data)
        check((P.n, P.H, P.Lam) == (4, H, spec.from_int(lam)), "galois_of_ss = closed form")

    return Job("classify", props, run)


def _oracle_job(rng, spec, gamma_case, i):
    p = spec.p
    r = admissible(p)[i % (p - 1)]
    r2, i2, digits = gamma_case
    c = (2, 1 + p)[i // 3 % 2]
    props = {"p": p, "m": 1, "q": p, "r": r, "K": K, "gamma_r": r2, "gamma_i": i2,
             "digits": digits, "c": c}

    def run(tr):
        with tr.span("classify.other"):
            data = ss_data(spec, r)
        for i in (1, 2, 3, 4):
            with tr.span("classify.sim_frobenius"):
                out = simulate_dual_frobenius(data, i, K)
            s_i = data.s[i - 1]
            check(out.valuation == s_i - (p - 1), "phi(f_i) valuation = s_i - (p-1)")
            with tr.span("laurent.other"):
                unit = out.shift(-(s_i - (p - 1))).scale(data.c[i - 1])
            check(unit.prec >= K and unit.coeff(0).is_one(), "phi(f_i) 1-unit to K digits")

        with tr.span("classify.other"):
            data2 = ss_data(spec, r2)
        with tr.span("classify.sim_gamma"):
            H = simulate_dual_gamma(data2, i2, c, digits=digits)
        a = data2.gamma_exponents()[i2 - 1]
        expect = spec.from_int(pow(pow(c, a, p), -1, p))
        check(H.prec == digits and H.coeff(0) == expect, "gamma(f_i) leads with chi_i(c)^-1")

    return Job("oracle", props, run)
