"""`bijection`: the supersingular / Galois correspondence over F_{p^m}.

Job kinds:

* verify: `verify_bijection` at (p, m) up to (5, 4), checked against known
  answers: injective, surjective, consistent, the class counts, the
  up-to-twist counts and the (r, h') pair table.
* roundtrip: `ss_image` -> `invert_ss_image` on seeded (r, eta), with the
  image checked against the closed form through direct F_q calls
  (`nth_roots`, pow and inverse of Lam).
* ps: `ps_image` + `meta_irred_test` on character pairs over F_25; the image
  must depend only on the restrictions to the squares S.
* lemma2: `lemma2_reduce` on seeded odd exponents, verified by `iso_test`.
* cli: `metaplectic.cli.main` with stdout captured, parsed and compared with
  the library's answer for the same input.

Why: extension-field element arithmetic with m up to 4 and `meta`/`galois`
enumeration, with no series at all; a `laurent` change must leave it flat.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from math import gcd

from metaplectic.chars import TameChar, char_restrict_S, quadratic_chars
from metaplectic.cli import main as cli_main
from metaplectic.coeff import field_make, nth_roots
from metaplectic.galois import InducedParams, canonicalize, iso_test, lemma2_reduce, tame_twist
from metaplectic.meta import (
    SSRep,
    invert_ss_image,
    irr_iso_test,
    meta_irred_test,
    ps_image,
    ss_image,
    verify_bijection,
)

from workloads.common import Job, admissible, check, closed_form, cycle_jobs, interleave

MODULES = ["metaplectic.meta", "metaplectic.galois", "metaplectic.chars", "metaplectic.cli"]
FIELDS = [(p, m) for p in (3, 5) for m in (1, 2, 3, 4)] + [(7, 1), (7, 2)]

# Known answers of the enumeration.  Classes of (r, eta) per fourth-power
# class of eta(p): 2 at p = 3 (r in {0, 2}); 6 at p = 5 (r in {0, 4} keep
# both tame classes mod (p-1)/2, r in {1, 3} are their own partners).
R_CLASSES = {3: 2, 5: 6}
TWIST_CLASSES = {3: 2, 5: 4}
PAIRS = {3: [(0, 3), (2, 5)], 5: [(0, 5), (1, 3), (3, 9), (4, 7)]}

# The (5, 4) sweep takes about 2.5 s on a 2-vCPU Xeon VM, 30 times the next
# job, so it runs once per three passes over the other slots: under half of
# a run's time, and several samples of it per run.  The first 21 jobs hold
# every slot once.
_OTHERS = interleave(
    [("verify", 3, m) for m in (1, 2, 3, 4)]
    + [("verify", 5, m) for m in (1, 2, 3)]
    + [("roundtrip", 3, 4, 4), ("roundtrip", 5, 2, 4), ("roundtrip", 5, 4, 1), ("roundtrip", 7, 2, 4)]
    + [("ps", 5, 2, 48)] * 2
    + [("lemma2", p, 1, 200) for p in (3, 5, 7)]
    + [("cli", kind) for kind in ("ss-image", "galois-reduce", "verify-bijection", "ps-image")],
    3,
)
CYCLE = [("verify", 5, 4)] + _OTHERS
ORDER = [0] + [1 + j % len(_OTHERS) for j in range(3 * len(_OTHERS))]
TRACE_JOBS = len(CYCLE)


def jobs(rng):
    def make(i, kind, *args):
        if kind == "verify":
            return _verify_job(field_make(*args))
        if kind == "roundtrip":
            return _roundtrip_job(rng, field_make(args[0], args[1]), args[2], i)
        if kind == "ps":
            return _ps_job(rng, field_make(args[0], args[1]), args[2])
        if kind == "lemma2":
            return _lemma2_job(rng, field_make(args[0], args[1]), args[2])
        return _cli_job(rng, args[0])

    return cycle_jobs(CYCLE, make, ORDER)


def _elem_index(x):
    """Position of a field element in counting order of coefficient vectors."""
    p = x.spec.p
    return sum(c * p ** j for j, c in enumerate(x.coeffs))


def _rand_coeffs(rng, spec):
    while True:
        coeffs = [rng.randrange(spec.p) for _ in range(spec.m)]
        if any(coeffs):
            return coeffs


def _props(spec, **extra):
    return {"p": spec.p, "m": spec.m, "q": spec.order, **extra}


def _verify_job(spec):
    p, q = spec.p, spec.order
    expected = {
        "injective": True,
        "surjective": True,
        "class_function_consistent": True,
        "ss_classes": R_CLASSES[p] * (q - 1) // gcd(4, q - 1),
        "galois_classes": R_CLASSES[p] * (q - 1) // gcd(4, q - 1),
        "up_to_twist_ss": TWIST_CLASSES[p],
        "up_to_twist_galois": TWIST_CLASSES[p],
        "pairs": PAIRS[p],
    }

    def run(tr):
        with tr.span("meta.verify"):
            report = verify_bijection(spec)
        got = {key: report[key] for key in expected}
        check(got == expected, f"verify_bijection({p}, {spec.m}) = known answers")

    return Job("verify", _props(spec), run)


def _roundtrip_job(rng, spec, count, i):
    p, q = spec.p, spec.order
    step = (p ** 4 - 1) // (p - 1)
    cases = []
    for j in range(count):
        # the inversion searches tame exponents first: the cycle position
        # picks r and the tame part, the seed picks eta(p)
        r = admissible(p)[(i + j) % (p - 1)]
        H0, lam0 = closed_form(p, r)
        tame = (i + j) % (p - 1)
        cases.append((r, spec.elem(_rand_coeffs(rng, spec)), tame, (H0 + tame * step) % (p ** 4 - 1), lam0))

    def run(tr):
        for r, u, tame, H, lam0 in cases:
            with tr.span("chars.TameChar"):
                eta = TameChar(u, tame)
            with tr.span("meta.other"):
                rep = SSRep(spec, r, eta)
            with tr.span("meta.image"):
                M = ss_image(rep)
            check((M.base.n, M.base.H) == (4, H), "ss_image exponent = closed form")
            with tr.span("coeff.pow"):
                u4 = u ** 4
            with tr.span("coeff.inv"):
                ratio = M.base.Lam * (u4 * lam0).inv()
            check(ratio.is_one(), "ss_image Lam = lam0 eta(p)^4")
            with tr.span("coeff.nth_roots"):
                roots = nth_roots(u4, 4)
            check(u in roots and len(roots) == gcd(4, q - 1), "fourth roots of eta(p)^4")
            with tr.span("meta.invert"):
                back = invert_ss_image(M)
            with tr.span("meta.other"):
                same = irr_iso_test(back, rep)
            check(same, "invert_ss_image(ss_image(rep)) ~ rep")
            if tr.enabled:
                tr.add("meta.inversions", 1)
                tr.add("meta.invert_candidates", back.eta.tame * (q - 1) + _elem_index(back.eta.unram))

    return Job("roundtrip", _props(spec, count=count), run)


def _ps_job(rng, spec, count):
    p = spec.p
    cases = [
        (
            (spec.elem(_rand_coeffs(rng, spec)), rng.randrange(p - 1)),
            (spec.elem(_rand_coeffs(rng, spec)), rng.randrange(p - 1)),
            rng.randrange(4),
            rng.randrange(4),
        )
        for _ in range(count)
    ]

    def run(tr):
        with tr.span("chars.quadratic_chars"):
            quads = quadratic_chars(spec)
        for (u1, t1), (u2, t2), i, j in cases:
            with tr.span("chars.twist"):
                c1, c2 = TameChar(u1, t1), TameChar(u2, t2)
                d1, d2 = c1.mul(quads[i]), c2.mul(quads[j])
                same_s = (char_restrict_S(c1), char_restrict_S(c2)) == (
                    char_restrict_S(d1),
                    char_restrict_S(d2),
                )
            check(same_s, "quadratic twists keep the restriction to S")
            keys = []
            for a, b in ((c1, c2), (d1, d2)):
                with tr.span("meta.image"):
                    M = ps_image(a, b)
                with tr.span("meta.irred"):
                    irred = meta_irred_test(M)
                check(irred, "genuine principal series image is irreducible")
                with tr.span("galois.canonicalize"):
                    summands = sorted({canonicalize(s).sort_key() for s in M.summands})
                check(len(summands) == 4, "four distinct twist summands")
                keys.append((M.s_char.sort_key(), summands))
            check(keys[0] == keys[1], "the image depends only on the restrictions to S")

    return Job("ps", _props(spec, count=count), run)


def _lemma2_job(rng, spec, count):
    p = spec.p
    hs = [2 * rng.randrange(p ** 4 - 1) + 1 for _ in range(count)]

    def run(tr):
        one = spec.one()
        for h in hs:
            with tr.span("galois.lemma2_reduce"):
                a, hp = lemma2_reduce(h, p)
            check(hp % 2 == 1 and 3 <= hp <= 2 * p - 1, "lemma2 window [3, 2p-1]")
            with tr.span("galois.iso_test"):
                lhs = InducedParams(4, (p * p + 1) // 2 * h, one)
                rhs = tame_twist(InducedParams(4, (p * p + 1) // 2 * hp, one), a)
                same = iso_test(lhs, rhs)
            check(same, "lemma2 reduction is an isomorphism")

    return Job("lemma2", _props(spec, count=count), run)


def _run_cli(tr, argv):
    buf = io.StringIO()
    with tr.span("cli.main"):
        with redirect_stdout(buf):
            code = cli_main(argv)
    out = buf.getvalue()
    if tr.enabled:
        tr.add("cli.bytes_out", len(out.encode()))
    check(code == 0, f"cli {argv[0]} exit code {code}")
    return json.loads(out)


def _params_json(P):
    return {"n": P.n, "H": P.H, "Lam": P.Lam.as_string()}


def _meta_json(M):
    return {
        "schema": 1,
        "s_char": {"val_p2": M.s_char.val_p2.as_string(), "tame": M.s_char.tame},
        "base": _params_json(M.base),
        "summands": [_params_json(s) for s in M.summands],
    }


def _char_arg(u, tame):
    return f"mu([{','.join(map(str, u.coeffs))}])*omega^{tame}"


def _cli_job(rng, command):
    """One CLI command on seeded input, compared with the library's answer."""
    if command == "ss-image":
        spec = field_make(5, 2)
        r, u, tame = rng.choice(admissible(5)), spec.elem(_rand_coeffs(rng, spec)), rng.randrange(4)
        argv = ["ss-image", "--p", "5", "--m", "2", "--r", str(r), "--eta", _char_arg(u, tame)]

        def library(tr):
            with tr.span("meta.image"):
                return _meta_json(ss_image(SSRep(spec, r, TameChar(u, tame))))

    elif command == "ps-image":
        spec = field_make(5, 2)
        chi = [(spec.elem(_rand_coeffs(rng, spec)), rng.randrange(4)) for _ in range(2)]
        argv = ["ps-image", "--p", "5", "--m", "2"]
        argv += ["--chi1", _char_arg(*chi[0]), "--chi2", _char_arg(*chi[1])]

        def library(tr):
            with tr.span("meta.image"):
                return _meta_json(ps_image(TameChar(*chi[0]), TameChar(*chi[1])))

    elif command == "galois-reduce":
        p = 5
        spec = field_make(p)
        h = 2 * rng.randrange(p ** 4 - 1) + 1
        argv = ["galois-reduce", "--p", "5", "--h", str(h)]

        def library(tr):
            with tr.span("galois.lemma2_reduce"):
                a, hp = lemma2_reduce(h, p)
            return {"schema": 1, "a": a, "h_prime": hp, "verified": True}

    else:
        spec = field_make(3, 3)
        argv = ["verify-bijection", "--p", "3", "--m", "3"]

        def library(tr):
            with tr.span("meta.verify"):
                report = verify_bijection(spec)
            return json.loads(json.dumps(report))

    def run(tr):
        got = _run_cli(tr, argv)
        check(got == library(tr), f"cli {command} = library")

    return Job("cli", _props(spec, command=command), run)
