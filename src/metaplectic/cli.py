"""Command-line entry point: every pipeline stage with reproducible JSON output.

Exit codes: 0 success, 1 mathematical error (the message is the module's
error tag), 2 usage error.  Output is deterministic for fixed arguments
and seed: keys are sorted and no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from .coeff import field_make
from .chars import parse_tame_char
from .classify import (
    dual_basis_form,
    galois_of_ss,
    normalize_cyclic,
    simulate_dual_frobenius,
    ss_data,
)
from .galois import InducedParams, iso_test, lemma2_reduce, params_from_json, tame_twist
from .laurent import series_from_json
from .metagroup import PMatrix, chi_z, cocycle, hilbert, kappa_split
from .meta import SSRep, ps_image, ss_image, verify_bijection
from .phigamma import (
    dual as module_dual,
    make_induced,
    make_rank1,
    module_from_json,
    module_to_json,
    psi,
    twist as module_twist,
)
from .selftest import run_selftest

SCHEMA = 1


def _parse_matrix(text):
    parts = [Fraction(t) for t in text.split(",")]
    if len(parts) != 4:
        raise ValueError("matrix needs 4 comma-separated rationals")
    return PMatrix(*parts)


def _elem_str(x):
    return x.as_string()


def _params_json(P):
    return {"n": P.n, "H": P.H, "Lam": _elem_str(P.Lam)}


def _schar_json(s):
    return {"val_p2": _elem_str(s.val_p2), "tame": s.tame}


def _meta_json(M):
    return {
        "schema": SCHEMA,
        "s_char": _schar_json(M.s_char),
        "base": _params_json(M.base),
        "summands": [_params_json(s) for s in M.summands],
    }


def _load_json(path):
    if path == "-":
        return json.load(sys.stdin)
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


@contextmanager
def _malformed_input():
    """Turn a JSON document of the wrong shape into ValueError (exit 1)."""
    try:
        yield
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed input: {type(exc).__name__} {exc}") from exc


def _emit(obj, fmt):
    if fmt == "table" and isinstance(obj, dict):
        for key in sorted(obj):
            print(f"{key}: {json.dumps(obj[key], sort_keys=True)}")
    else:
        print(json.dumps(obj, sort_keys=True))


def _field(args):
    return field_make(args.p, getattr(args, "m", 1))


def _check_prec(args):
    prec = args.prec
    if prec < args.p ** 2:
        raise ValueError("precision below p^2")
    return prec


def build_parser():
    top = argparse.ArgumentParser(
        prog="metaplectic",
        description="exact arithmetic for metaplectic covers, (phi,Gamma)-modules "
        "and mod-p Galois parameters",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, prec_default=40):
        p.add_argument("--p", type=int, required=True, help="odd prime")
        p.add_argument("--m", type=int, default=1, help="coefficient field degree")
        p.add_argument("--prec", type=int, default=prec_default, help="X-adic precision")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "table"), default="json")

    sp = sub.add_parser("hilbert", help="quadratic Hilbert symbol (a, b)")
    common(sp)
    sp.add_argument("a")
    sp.add_argument("b")

    sp = sub.add_parser("cocycle", help="the 2-cocycle sigma(g1, g2)")
    common(sp)
    sp.add_argument("--g1", required=True, help="a,b,c,d")
    sp.add_argument("--g2", required=True, help="a,b,c,d")

    sp = sub.add_parser("split", help="the fixed splitting over the maximal compact")
    common(sp)
    sp.add_argument("--g", required=True, help="a,b,c,d")
    sp.add_argument("--zeta", type=int, default=1, choices=(1, -1))

    sp = sub.add_parser("chi-z", help="quadratic character of a central element")
    common(sp)
    sp.add_argument("z")

    sp = sub.add_parser("build-rank1", help="rank-1 module of a tame character")
    common(sp)
    sp.add_argument("--chi", default="1", help='e.g. "mu(2)*omega^1"')
    sp.add_argument("--units", default="2", help="comma list of sampled units")

    sp = sub.add_parser("build-induced", help="induced module of degree n")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--chi", default="1", help="tame twist")
    sp.add_argument("--units", default="2", help="comma list of sampled units")

    sp = sub.add_parser("twist", help="twist a module JSON by a tame character")
    common(sp)
    sp.add_argument("module", help="module JSON file, or - for stdin")
    sp.add_argument("--chi", required=True)
    sp.add_argument("--units", default="2")

    sp = sub.add_parser("dual", help="dual of a module JSON")
    common(sp)
    sp.add_argument("module")
    sp.add_argument("--units", default="2")

    sp = sub.add_parser("psi", help="apply psi to a coordinate vector")
    common(sp)
    sp.add_argument("module")
    sp.add_argument("vector", help="JSON list of series, or - for stdin")

    sp = sub.add_parser("normalize", help="normalize a cyclic form JSON")
    common(sp)
    sp.add_argument("form", help="cyclic form JSON file")

    sp = sub.add_parser("classify-ss", help="all tables for a supersingular parameter")
    common(sp)
    sp.add_argument("--r", type=int, required=True)

    sp = sub.add_parser("simulate-dual", help="finite-level dual Frobenius expansion")
    common(sp)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--i", type=int, default=1)
    sp.add_argument("--K", type=int, default=4, help="digits of the 1-unit")

    sp = sub.add_parser("galois-reduce", help="reduce an odd exponent to [3, 2p-1]")
    common(sp)
    sp.add_argument("--h", type=int, required=True)

    sp = sub.add_parser("galois-iso", help="isomorphism of two induced parameters")
    common(sp)
    sp.add_argument("a", help="parameter JSON file")
    sp.add_argument("b", help="parameter JSON file")

    sp = sub.add_parser("ps-image", help="image of a genuine principal series")
    common(sp)
    sp.add_argument("--chi1", default="1")
    sp.add_argument("--chi2", default="1")

    sp = sub.add_parser("ss-image", help="image of a genuine supersingular")
    common(sp)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--eta", default="1")

    sp = sub.add_parser("verify-bijection", help="enumerate both sides and report")
    common(sp)

    sp = sub.add_parser("selftest", help="run the full invariant suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("json", "table"), default="json")

    return top


def _units_list(text):
    return [int(t) for t in text.split(",") if t.strip()]


def _run(args):
    cmd = args.command
    fmt = args.format

    if cmd == "selftest":
        report = run_selftest(seed=args.seed)
        _emit(report, fmt)
        return 0 if report["ok"] else 1

    from .coeff import is_prime

    p = args.p
    if p == 2 or not is_prime(p):
        raise ValueError("odd prime required")
    if cmd == "hilbert":
        _emit(hilbert(Fraction(args.a), Fraction(args.b), p), fmt)
        return 0
    if cmd == "cocycle":
        _emit(cocycle(_parse_matrix(args.g1), _parse_matrix(args.g2), p), fmt)
        return 0
    if cmd == "split":
        res = kappa_split(_parse_matrix(args.g), args.zeta, p)
        _emit({"schema": SCHEMA, "g": res.g.to_json(), "zeta": res.zeta}, fmt)
        return 0
    if cmd == "chi-z":
        q = chi_z(Fraction(args.z), p)
        _emit({"schema": SCHEMA, "unram": q.unram, "tame": q.tame}, fmt)
        return 0

    spec = _field(args)
    if cmd == "build-rank1":
        D = make_rank1(parse_tame_char(args.chi, spec), _check_prec(args))
        _emit(module_to_json(D, units=_units_list(args.units)), fmt)
        return 0
    if cmd == "build-induced":
        chi = parse_tame_char(args.chi, spec)
        D = make_induced(
            spec, args.n, args.h, lam_n=chi.unram ** args.n, tame=chi.tame,
            prec=_check_prec(args),
        )
        _emit(module_to_json(D, units=_units_list(args.units)), fmt)
        return 0
    if cmd in ("twist", "dual", "psi"):
        with _malformed_input():
            D = module_from_json(_load_json(args.module), spec)
        if cmd == "twist":
            out = module_twist(D, parse_tame_char(args.chi, spec))
            _emit(module_to_json(out, units=_units_list(args.units)), fmt)
        elif cmd == "dual":
            out = module_dual(D)
            _emit(module_to_json(out, units=_units_list(args.units)), fmt)
        else:
            with _malformed_input():
                vec = [series_from_json(item, spec) for item in _load_json(args.vector)]
            out = psi(D, vec)
            _emit([entry.to_json() for entry in out], fmt)
        return 0
    if cmd == "normalize":
        obj = _load_json(args.form)
        from .coeff import elem_from_json
        from .classify import CyclicForm
        from .laurent import series_from_json as series_load

        with _malformed_input():
            form = CyclicForm(
                spec,
                obj["n"],
                tuple(elem_from_json(x) for x in obj["d"]),
                tuple(obj["t"]),
                tuple(obj["b"]),
                tuple(
                    series_load(g, spec) if g is not None else None
                    for g in obj.get("noise", [None] * obj["n"])
                ),
            )
        nf, hs = normalize_cyclic(form, args.prec)
        _emit(
            {
                "schema": SCHEMA,
                "normal_form": {"n": nf.n, "t": nf.t, "d": _elem_str(nf.d), "b1": nf.b1},
                "basis_change": [h.to_json() for h in hs],
            },
            fmt,
        )
        return 0
    if cmd == "classify-ss":
        data = ss_data(spec, args.r)
        form = dual_basis_form(data)
        nf, _ = normalize_cyclic(form, args.prec)
        params = galois_of_ss(data)
        _emit(
            {
                "schema": SCHEMA,
                "ss_data": data.to_json(),
                "cyclic_form": {
                    "n": form.n,
                    "d": [_elem_str(x) for x in form.d],
                    "t": list(form.t),
                    "b": list(form.b),
                },
                "normal_form": {"n": nf.n, "t": nf.t, "d": _elem_str(nf.d), "b1": nf.b1},
                "n": params.n,
                "H": params.H,
                "Lam": _elem_str(params.Lam),
            },
            fmt,
        )
        return 0
    if cmd == "simulate-dual":
        data = ss_data(spec, args.r)
        out = simulate_dual_frobenius(data, args.i, args.K)
        s_i = data.s[args.i - 1]
        unit = out.shift(-(s_i - (p - 1))).scale(data.c[args.i - 1])
        _emit(
            {
                "schema": SCHEMA,
                "valuation": out.valuation,
                "expansion": out.to_json(),
                "unit_digits": [_elem_str(unit.coeff(k)) for k in range(args.K)],
            },
            fmt,
        )
        return 0
    if cmd == "galois-reduce":
        a, hp = lemma2_reduce(args.h, p)
        lhs = InducedParams(4, (p * p + 1) // 2 * args.h, spec.one())
        rhs = tame_twist(InducedParams(4, (p * p + 1) // 2 * hp, spec.one()), a)
        _emit(
            {"schema": SCHEMA, "a": a, "h_prime": hp, "verified": iso_test(lhs, rhs)},
            fmt,
        )
        return 0
    if cmd == "galois-iso":
        with _malformed_input():
            P1 = params_from_json(_load_json(args.a))
            P2 = params_from_json(_load_json(args.b))
        _emit(iso_test(P1, P2), fmt)
        return 0
    if cmd == "ps-image":
        M = ps_image(parse_tame_char(args.chi1, spec), parse_tame_char(args.chi2, spec))
        _emit(_meta_json(M), fmt)
        return 0
    if cmd == "ss-image":
        M = ss_image(SSRep(spec, args.r, parse_tame_char(args.eta, spec)))
        _emit(_meta_json(M), fmt)
        return 0
    if cmd == "verify-bijection":
        _emit(verify_bijection(spec), fmt)
        return 0
    raise AssertionError(f"unhandled command {cmd}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
