"""Command-line entry point: every pipeline stage with reproducible JSON output.
It is the library's only boundary: every JSON reader and writer and every
bound on outside input is here, and the other modules take and return values.

Exit codes: 0 success, 1 mathematical error (the message is the module's
error tag), a report whose "ok" is false or a closed stdout, 2 usage
error.  Output is deterministic for fixed arguments and seed: keys are
sorted and no timestamps are emitted.

Each subcommand is one entry of COMMANDS: its help, its options with their
size bounds, and a handler(args, spec) that returns the object to print.
spec is the field F_{p^m} for a command that takes --m, else None.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from .coeff import FieldElem, field_make, is_prime
from .chars import TameChar
from .classify import (
    CyclicForm, dual_basis_form, galois_of_ss, normalize_cyclic, simulate_dual_frobenius, ss_data,
)
from .galois import InducedParams, iso_test, lemma2_reduce, lfield_param, tame_twist
from .laurent import LaurentSeries
from .metagroup import PMatrix, chi_z, cocycle, frac_str, hilbert, kappa_split
from .meta import SSRep, ps_image, ss_image, verify_bijection
from .phigamma import (
    PhiGammaModule, dual as module_dual, make_induced, make_rank1, psi, twist as module_twist,
)
from .selftest import run_selftest

SCHEMA = 1

# a rational argument's decimal exponent, which Fraction expands into a power of ten
MAX_EXPONENT = 10 ** 4
# the largest degree n a parameter file or `build-induced --n` may ask for
MAX_DEGREE = 64
# A series read from JSON has |precision| <= JSON_LIMIT and no coefficient
# below -JSON_LIMIT, so its residue list spans at most 2 * JSON_LIMIT exponents.
JSON_LIMIT = 10 ** 6
_EXPONENT = re.compile(r"E([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _rational(text):
    """The rational `text` as Fraction reads it, once its decimal exponent
    is known to be at most MAX_EXPONENT in size."""
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise ValueError(f"exponent {exponent[1]} of a rational is above its limit {MAX_EXPONENT}")
    return Fraction(text)


def _parse_matrix(text):
    parts = [_rational(t) for t in text.split(",")]
    if len(parts) != 4:
        raise ValueError("matrix needs 4 comma-separated rationals")
    return PMatrix(*parts)


def parse_tame_char(text, spec):
    """The TameChar of the shorthand "mu(lambda)*omega^a", "1" for the trivial
    character: lambda is an integer (reduced into F_p) or a coefficient vector
    like [1,0,2,0].  Anything else (a wild character, say) is rejected."""
    text = text.strip().replace(" ", "")
    if text in ("1", ""):
        return TameChar.trivial(spec)
    unram = spec.one()
    tame = 0
    for part in text.split("*"):
        if part.startswith("mu(") and part.endswith(")"):
            inner = part[3:-1]
            if inner.startswith("["):
                coeffs = [int(t) for t in inner.strip("[]").split(",")]
                unram = unram * FieldElem(spec, tuple(coeffs) + (0,) * (spec.m - len(coeffs)))
            else:
                unram = unram * spec.from_int(int(inner))
        elif part.startswith("omega^"):
            tame += int(part[6:])
        elif part == "omega":
            tame += 1
        elif part == "1":
            continue
        else:
            raise ValueError(f"cannot parse character {text!r}")
    return TameChar(unram, tame)


# -- the JSON formats ----------------------------------------------------------


def elem_to_json(x):
    return {"p": x.spec.p, "m": x.spec.m, "coeffs": list(x.coeffs)}


def elem_from_json(obj, spec):
    """The element `obj` (as written by `elem_to_json`), which must lie in spec."""
    if (obj["p"], obj["m"]) != (spec.p, spec.m):
        raise ValueError(
            f"coefficients {obj['coeffs']} lie in F_{obj['p']}^{obj['m']}, not F_{spec.p}^{spec.m}"
        )
    if not all(type(c) is int for c in obj["coeffs"]):
        raise ValueError(f"coefficients {obj['coeffs']!r} are not all ints")
    return FieldElem(spec, tuple(obj["coeffs"]))


def series_to_json(f):
    return {
        "valuation": f.valuation,
        "precision": f.prec,
        "coeffs": {str(e): elem_to_json(a) for e, a in f.terms().items()},
    }


def _precision(obj, what):
    """obj["precision"], which must be an int of size at most JSON_LIMIT."""
    prec = obj["precision"]
    if type(prec) is not int or abs(prec) > JSON_LIMIT:
        raise ValueError(f"{what} precision {prec!r} is not an int of size <= {JSON_LIMIT}")
    return prec


def series_from_json(obj, spec):
    prec = _precision(obj, "series")
    coeffs = {int(e): a for e, a in obj["coeffs"].items()}
    low = min((e for e in coeffs if e < prec), default=prec)
    if low < -JSON_LIMIT:
        raise ValueError(f"series exponent {low} is below -{JSON_LIMIT}")
    return LaurentSeries(spec, {e: elem_from_json(a, spec) for e, a in coeffs.items()}, prec)


def module_to_json(D, units):
    return {
        "rank": D.n,
        "precision": D.prec,
        "phi": [[series_to_json(e) for e in row] for row in D.phi],
        "gamma_samples": [
            {"c": c, "matrix": [[series_to_json(e) for e in row] for row in D.gamma_matrix(c)]}
            for c in units
        ],
    }


def module_from_json(obj, spec):
    """The module `obj` over spec, whose gamma oracle answers only at the stored units."""
    n = obj["rank"]
    if type(n) is not int or n < 1:
        raise ValueError(f"rank {n!r} is not a positive integer")

    def matrix(rows, name):
        widths = sorted({len(row) for row in rows})
        if len(rows) != n or widths != [n]:
            shape = f"{len(rows)}x{'/'.join(map(str, widths))}"
            raise ValueError(f"{name} has shape {shape}, not {n}x{n} for rank {n}")
        return [[series_from_json(e, spec) for e in row] for row in rows]

    phi = matrix(obj["phi"], "phi")
    samples = {
        item["c"]: matrix(item["matrix"], f"gamma sample {item['c']}")
        for item in obj.get("gamma_samples", [])
    }
    prec = _precision(obj, "module")

    def oracle(c):
        if c not in samples:
            raise ValueError(f"no gamma sample stored for unit {c}")
        return [[e.truncate(prec) for e in row] for row in samples[c]]

    return PhiGammaModule(spec, phi, oracle, prec)


def params_from_json(obj, spec):
    """The parameter {"n", "H", "Lam"} over spec; its degree n must be an
    int in 1..MAX_DEGREE and its exponent H an int."""
    n, H = obj["n"], obj["H"]
    if type(n) is not int or not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree n {n!r} is not an int in 1..{MAX_DEGREE}")
    if type(H) is not int:
        raise ValueError(f"exponent H {H!r} is not an int")
    return InducedParams(n, H, elem_from_json(obj["Lam"], spec))


def _params_json(P):
    return {"n": P.n, "H": P.H, "Lam": P.Lam.as_string()}


def _normal_form_json(nf):
    return {"n": nf.n, "t": nf.t, "d": nf.d.as_string(), "b1": nf.b1}


def _meta_json(M):
    return {
        "schema": SCHEMA,
        "s_char": {"val_p2": M.s_char.val_p2.as_string(), "tame": M.s_char.tame},
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


def _load_module(path, spec):
    with _malformed_input():
        return module_from_json(_load_json(path), spec)


def _emit(obj, fmt):
    if fmt == "table" and isinstance(obj, dict):
        for key in sorted(obj):
            print(f"{key}: {json.dumps(obj[key], sort_keys=True)}")
    else:
        print(json.dumps(obj, sort_keys=True))


def _check_prec(args):
    prec = args.prec
    if prec < args.p ** 2:
        raise ValueError("precision below p^2")
    return prec


# -- the command table ---------------------------------------------------------


def _opt(name, limit=None, **kwargs):
    """An option or positional of a subcommand: its argparse name and keyword
    arguments, and the largest value of an int option or length of a list."""
    return name, limit, kwargs


_P = _opt("--p", 10 ** 9, type=int, required=True, help="odd prime")
# the commands that take --r compute r! and r'! in F_p by a loop of up to p steps
_P_R = _opt("--p", 10 ** 7, type=int, required=True, help="odd prime")
_M = _opt("--m", 8, type=int, default=1, help="coefficient field degree")
_PREC = _opt("--prec", 10 ** 5, type=int, default=40, help="X-adic precision")
_R = _opt("--r", type=int, required=True)
_H = _opt("--h", type=int, required=True)
# each unit builds and prints a Gamma matrix: 4 small ones take about 2 s at --p 5 --m 8 --prec 10^5
_UNITS = _opt("--units", 4, default="2", help="comma list of sampled units")
_MODULE = _opt("module", help="module JSON file, or - for stdin")
_FORMAT = _opt("--format", choices=("json", "table"), default="json")

COMMANDS = {}


def _command(name, summary, *options):
    """Enter the decorated handler in COMMANDS as subcommand `name`."""

    def register(handler):
        COMMANDS[name] = (summary, options + (_FORMAT,), handler)
        return handler

    return register


@_command("hilbert", "quadratic Hilbert symbol (a, b)", _P, _opt("a"), _opt("b"))
def _hilbert(args, spec):
    return hilbert(_rational(args.a), _rational(args.b), args.p)


@_command("cocycle", "the 2-cocycle sigma(g1, g2)", _P,
          _opt("--g1", required=True, help="a,b,c,d"), _opt("--g2", required=True, help="a,b,c,d"))
def _cocycle(args, spec):
    return cocycle(_parse_matrix(args.g1), _parse_matrix(args.g2), args.p)


@_command("split", "the fixed splitting over the maximal compact", _P,
          _opt("--g", required=True, help="a,b,c,d"),
          _opt("--zeta", type=int, default=1, choices=(1, -1)))
def _split(args, spec):
    res = kappa_split(_parse_matrix(args.g), args.zeta, args.p)
    a, b, c, d = map(frac_str, res.g.entries())
    return {"schema": SCHEMA, "g": [[a, b], [c, d]], "zeta": res.zeta}


@_command("chi-z", "quadratic character of a central element", _P, _opt("z"))
def _chi_z(args, spec):
    q = chi_z(_rational(args.z), args.p)
    return {"schema": SCHEMA, "unram": q.unram, "tame": q.tame}


@_command("build-rank1", "rank-1 module of a tame character", _P, _M, _PREC,
          _opt("--chi", default="1", help='e.g. "mu(2)*omega^1"'), _UNITS)
def _build_rank1(args, spec):
    D = make_rank1(parse_tame_char(args.chi, spec), _check_prec(args))
    return module_to_json(D, units=args.units)


@_command("build-induced", "induced module of degree n", _P, _M, _PREC,
          _opt("--n", MAX_DEGREE, type=int, required=True), _H,
          _opt("--chi", default="1", help="tame twist"), _UNITS)
def _build_induced(args, spec):
    chi = parse_tame_char(args.chi, spec)
    D = make_induced(
        spec, args.n, args.h, lam_n=chi.unram ** args.n, tame=chi.tame, prec=_check_prec(args)
    )
    return module_to_json(D, units=args.units)


@_command("twist", "twist a module JSON by a tame character", _P, _M, _MODULE,
          _opt("--chi", required=True), _UNITS)
def _twist(args, spec):
    D = _load_module(args.module, spec)
    out = module_twist(D, parse_tame_char(args.chi, spec))
    return module_to_json(out, units=args.units)


@_command("dual", "dual of a module JSON", _P, _M, _MODULE, _UNITS)
def _dual(args, spec):
    out = module_dual(_load_module(args.module, spec))
    return module_to_json(out, units=args.units)


@_command("psi", "apply psi to a coordinate vector", _P, _M, _MODULE,
          _opt("vector", help="JSON list of series, or - for stdin"))
def _psi(args, spec):
    D = _load_module(args.module, spec)
    with _malformed_input():
        vec = [series_from_json(item, spec) for item in _load_json(args.vector)]
    return [series_to_json(entry) for entry in psi(D, vec)]


@_command("normalize", "normalize a cyclic form JSON", _P, _M, _PREC,
          _opt("form", help="cyclic form JSON file"))
def _normalize(args, spec):
    obj = _load_json(args.form)
    with _malformed_input():
        n, d, t, b = obj["n"], obj["d"], tuple(obj["t"]), tuple(obj["b"])
        if type(n) is not int:
            raise ValueError(f"rank n {n!r} is not an int")
        if not all(type(x) is int for x in t + b):
            raise ValueError(f"exponents t {list(t)} and b {list(b)} are not all ints")
        form = CyclicForm(
            spec,
            n,
            tuple(elem_from_json(x, spec) for x in d),
            t,
            b,
            tuple(
                series_from_json(g, spec) if g is not None else None
                for g in obj.get("noise", [None] * len(d))
            ),
        )
    nf, hs = normalize_cyclic(form, args.prec)
    return {
        "schema": SCHEMA,
        "normal_form": _normal_form_json(nf),
        "basis_change": [series_to_json(h) for h in hs],
    }


@_command("classify-ss", "all tables for a supersingular parameter", _P_R, _M, _R)
def _classify_ss(args, spec):
    data = ss_data(spec, args.r)
    form = dual_basis_form(data)
    # the basis change is not printed, so one digit of it is enough
    nf, _ = normalize_cyclic(form, 1)
    params = galois_of_ss(data)
    return {
        "schema": SCHEMA,
        "ss_data": {
            "p": data.p, "r": data.r, "r_prime": data.r_prime, "s": list(data.s),
            "chi": [[ch.e1, ch.e2] for ch in data.chi],
            "c": [elem_to_json(ci) for ci in data.c],
            "weights": [list(w) for w in data.weights],
        },
        "cyclic_form": {
            "n": form.n,
            "d": [x.as_string() for x in form.d],
            "t": list(form.t),
            "b": list(form.b),
        },
        "normal_form": _normal_form_json(nf),
        **_params_json(params),
    }


# simulate-dual takes p Horner steps over p - 1 + K residues; p = 9973 takes about 7.5 s at K = 4
@_command("simulate-dual", "finite-level dual Frobenius expansion",
          _opt("--p", 10 ** 4, type=int, required=True, help="odd prime"), _M, _R,
          _opt("--i", type=int, default=1),
          _opt("--K", 10 ** 5, type=int, default=4, help="digits of the 1-unit"))
def _simulate_dual(args, spec):
    data = ss_data(spec, args.r)
    out = simulate_dual_frobenius(data, args.i, args.K)
    s_i = data.s[args.i - 1]
    unit = out.shift(-(s_i - (args.p - 1))).scale(data.c[args.i - 1])
    return {
        "schema": SCHEMA,
        "valuation": out.valuation,
        "expansion": series_to_json(out),
        "unit_digits": [unit.coeff(k).as_string() for k in range(args.K)],
    }


@_command("galois-reduce", "reduce an odd exponent to [3, 2p-1]", _P, _M, _H)
def _galois_reduce(args, spec):
    a, hp = lemma2_reduce(args.h, args.p)
    verified = iso_test(lfield_param(spec, args.h), tame_twist(lfield_param(spec, hp), a))
    return {"schema": SCHEMA, "a": a, "h_prime": hp, "verified": verified}


@_command("galois-iso", "isomorphism of two induced parameters", _P, _M,
          _opt("a", help="parameter JSON file"), _opt("b", help="parameter JSON file"))
def _galois_iso(args, spec):
    with _malformed_input():
        P1 = params_from_json(_load_json(args.a), spec)
        P2 = params_from_json(_load_json(args.b), spec)
    return iso_test(P1, P2)


@_command("ps-image", "image of a genuine principal series", _P, _M,
          _opt("--chi1", default="1"), _opt("--chi2", default="1"))
def _ps_image(args, spec):
    return _meta_json(ps_image(parse_tame_char(args.chi1, spec), parse_tame_char(args.chi2, spec)))


@_command("ss-image", "image of a genuine supersingular", _P_R, _M, _R, _opt("--eta", default="1"))
def _ss_image(args, spec):
    return _meta_json(ss_image(SSRep(spec, args.r, parse_tame_char(args.eta, spec))))


# verify-bijection visits about (p-1)^2 class heads whatever m is; p = 599 takes about 5 s
@_command("verify-bijection", "enumerate both sides and report",
          _opt("--p", 600, type=int, required=True, help="odd prime"), _M)
def _verify_bijection(args, spec):
    return verify_bijection(spec)


@_command("selftest", "run the full invariant suite", _opt("--seed", type=int, default=0))
def _selftest(args, spec):
    return run_selftest(seed=args.seed)


@functools.cache
def build_parser():
    """The argparse tree of COMMANDS, built on first use."""
    top = argparse.ArgumentParser(
        prog="metaplectic",
        description="exact arithmetic for metaplectic covers, (phi,Gamma)-modules "
        "and mod-p Galois parameters",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (summary, options, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for flag, _, kwargs in options:
            sp.add_argument(flag, **kwargs)
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():
        parser.error("an option was given -- as its value")  # argparse reads "--x=--" as []
    _, options, handler = COMMANDS[args.command]
    try:
        if hasattr(args, "units"):
            args.units = [int(t) for t in args.units.split(",") if t.strip()]
        for name, limit, _ in options:
            value = getattr(args, name.lstrip("-"))
            if type(value) is list:  # a list's bound is on its length
                name, value = f"{name} count", len(value)
            if limit is not None and value > limit:
                raise ValueError(f"{name} {value} is above its limit {limit}")
        if hasattr(args, "p") and (args.p == 2 or not is_prime(args.p)):
            raise ValueError("odd prime required")
        out = handler(args, field_make(args.p, args.m) if hasattr(args, "m") else None)
        _emit(out, args.format)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except (ValueError, ZeroDivisionError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: what is still buffered, and the flush at exit, go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(json.dumps({"error": "stdout was closed"}), file=sys.stderr)
        return 1
    return 1 if isinstance(out, dict) and out.get("ok") is False else 0


if __name__ == "__main__":
    sys.exit(main())
