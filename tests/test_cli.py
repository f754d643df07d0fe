import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic.cli import COMMANDS, MAX_EXPONENT, build_parser, main


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_hilbert_example(capsys):
    code, out, _ = run_cli(["hilbert", "--p", "3", "3", "2"], capsys)
    assert code == 0 and out.strip() == "-1"


def test_cocycle(capsys):
    code, out, _ = run_cli(
        ["cocycle", "--p", "3", "--g1", "1,0,1,1", "--g2=-3,1,6,1"], capsys
    )
    assert code == 0 and out.strip() == "-1"


def test_chi_z(capsys):
    code, out, _ = run_cli(["chi-z", "--p", "3", "3"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["unram"] == -1 and obj["tame"] == 1


def test_split(capsys):
    code, out, _ = run_cli(["split", "--p", "3", "--g", "1,0,6,1"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["zeta"] == 1


def test_classify_ss_contains_params(capsys):
    code, out, _ = run_cli(["classify-ss", "--p", "5", "--r", "1"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["H"] == 39 and obj["Lam"] == "1"


def test_determinism(capsys):
    args = ["classify-ss", "--p", "5", "--r", "0"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_math_error_exit_code(capsys):
    code, out, err = run_cli(["classify-ss", "--p", "5", "--r", "2"], capsys)
    assert code == 1
    assert "excluded parameter" in json.loads(err)["error"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_prec_guard(capsys):
    code, _, err = run_cli(
        ["build-induced", "--p", "7", "--n", "1", "--h", "0", "--prec", "10"], capsys
    )
    assert code == 1 and "below p^2" in json.loads(err)["error"]


def test_module_pipeline(tmp_path, capsys):
    code, out, _ = run_cli(
        ["build-induced", "--p", "3", "--n", "2", "--h", "2", "--units", "2,4"],
        capsys,
    )
    assert code == 0
    mod_file = tmp_path / "mod.json"
    mod_file.write_text(out)

    code, out, _ = run_cli(
        ["twist", "--p", "3", str(mod_file), "--chi", "mu(2)", "--units", "2"], capsys
    )
    assert code == 0
    twisted = json.loads(out)
    assert twisted["rank"] == 2

    code, out, _ = run_cli(["dual", "--p", "3", str(mod_file), "--units", "2"], capsys)
    assert code == 0 and json.loads(out)["rank"] == 2

    # psi of phi of basis vector e_0 recovers e_0: psi(column 0 of phi) = e_0
    module = json.loads(mod_file.read_text())
    vec_file = tmp_path / "vec.json"
    vec_file.write_text(json.dumps([module["phi"][i][0] for i in range(2)]))
    code, out, _ = run_cli(["psi", "--p", "3", str(mod_file), str(vec_file)], capsys)
    assert code == 0
    result = json.loads(out)
    assert result[0]["coeffs"] == {"0": {"p": 3, "m": 1, "coeffs": [1]}}
    assert result[1]["coeffs"] == {}


def test_normalize_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(["classify-ss", "--p", "5", "--r", "0"], capsys)
    payload = json.loads(out)
    cf = payload["cyclic_form"]
    form_file = tmp_path / "form.json"
    form_file.write_text(
        json.dumps(
            {
                "n": cf["n"],
                "d": [{"p": 5, "m": 1, "coeffs": [int(x)]} for x in cf["d"]],
                "t": cf["t"],
                "b": cf["b"],
                "noise": [None] * cf["n"],
            }
        )
    )
    code, out, _ = run_cli(["normalize", "--p", "5", str(form_file)], capsys)
    assert code == 0
    assert json.loads(out)["normal_form"]["t"] == 91


def test_galois_iso_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"n": 4, "H": 75, "Lam": {"p": 3, "m": 1, "coeffs": [1]}}))
    b.write_text(json.dumps({"n": 4, "H": 25, "Lam": {"p": 3, "m": 1, "coeffs": [1]}}))
    code, out, _ = run_cli(["galois-iso", "--p", "3", str(a), str(b)], capsys)
    assert code == 0 and out.strip() == "true"


def test_images_and_bijection(capsys):
    code, out, _ = run_cli(["ss-image", "--p", "5", "--r", "1"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["base"]["H"] == 39 and obj["base"]["Lam"] == "1"

    code, out, _ = run_cli(
        ["ps-image", "--p", "5", "--chi1", "omega", "--chi2", "mu(2)"], capsys
    )
    obj = json.loads(out)
    assert code == 0 and len(obj["summands"]) == 4

    code, out, _ = run_cli(["verify-bijection", "--p", "3", "--m", "1"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["injective"] and obj["surjective"]

    code, out, _ = run_cli(["verify-bijection", "--p", "17", "--m", "4"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["injective"] and obj["surjective"]
    assert obj["ss_classes"] == obj["galois_classes"]


def test_simulate_dual(capsys):
    code, out, _ = run_cli(
        ["simulate-dual", "--p", "3", "--r", "0", "--i", "1", "--K", "3"], capsys
    )
    obj = json.loads(out)
    assert code == 0
    assert obj["valuation"] == -1  # s_1 - (p-1) = 1 - 2
    assert obj["unit_digits"][0] == "1"


def test_galois_reduce_verifies_window_exponent(capsys):
    code, out, _ = run_cli(["galois-reduce", "--p", "3", "--h", "1"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["h_prime"] == 3 and obj["verified"]


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "metaplectic.cli", "hilbert", "--p", "5", "5", "-5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "1"


def test_table_format(capsys):
    code, out, _ = run_cli(
        ["chi-z", "--p", "3", "3", "--format", "table"], capsys
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["unram"] == "-1" and lines["tame"] == "1"


def test_bad_prime_rejected(capsys):
    code, _, err = run_cli(["hilbert", "--p", "4", "3", "2"], capsys)
    assert code == 1 and "odd prime" in json.loads(err)["error"]


LAM3 = {"p": 3, "m": 1, "coeffs": [1]}
LAM5 = {"p": 5, "m": 1, "coeffs": [1]}
ONE3 = {"coeffs": {"0": LAM3}, "precision": 20}
RANK1 = {"rank": 1, "precision": 10, "phi": [[ONE3]]}
ONE5 = {"coeffs": {"0": LAM5}, "precision": 20}
ZERO_PHI5 = {"rank": 1, "precision": 10, "phi": [[{"coeffs": {}, "precision": 20}]]}
FORM3 = {"n": 2, "d": [LAM3, LAM3], "t": [-1, -1], "b": [0, 1]}
MODULE5 = json.loads((Path(__file__).parent / "golden" / "inputs" / "module.json").read_text())
MISSING, DIRECTORY = object(), object()  # file stand-ins: no file, a directory


@pytest.mark.parametrize(
    "args, files, message",
    [
        (["galois-iso", "--p", "3", "{a}", "{b}"],
         {"a": {"n": 4, "Lam": LAM3}, "b": {"n": 4, "H": 25, "Lam": LAM3}},
         "malformed input"),
        (["psi", "--p", "3", "{m}", "{v}"], {"m": {"n": 4, "H": 25, "Lam": LAM3}, "v": []},
         "malformed input"),
        (["psi", "--p", "3", "{m}", "{v}"], {"m": [1, 2], "v": []}, "malformed input"),
        (["normalize", "--p", "5", "{f}"], {"f": {"n": 4}}, "malformed input"),
        (["build-induced", "--p", "3", "--n", "0", "--h", "1"], {}, "degree"),
        (["simulate-dual", "--p", "3", "--r", "0", "--i", "7"], {}, "basis index"),
        (["simulate-dual", "--p", "3", "--r", "0", "--i", "0"], {}, "basis index"),
        (["simulate-dual", "--p", "3", "--r", "0", "--i", "-1"], {}, "basis index"),
        (["simulate-dual", "--p", "3", "--r", "0", "--K", "0"], {}, "K (digits"),
        (["simulate-dual", "--p", "3", "--r", "0", "--K", "-2"], {}, "K (digits"),
        (["build-rank1", "--p", "5", "--m", "0"], {}, "extension degree"),
        (["normalize", "--p", "5", "{f}"], {"f": MISSING}, "cannot read {f}"),
        (["twist", "--p", "5", "{m}", "--chi", "omega"], {"m": DIRECTORY}, "cannot read {m}"),
        (["psi", "--p", "3", "{m}", "{v}"], {"m": RANK1, "v": [ONE3, ONE3]}, "vector length 2"),
        (["dual", "--p", "3", "{m}"], {"m": {**RANK1, "phi": [[ONE3, ONE3]]}},
         "phi has shape 1x2, not 1x1"),
        (["dual", "--p", "3", "{m}"], {"m": {**RANK1, "rank": "1"}}, "rank '1' is not"),
        (["dual", "--p", "3", "{m}"],
         {"m": {**RANK1, "gamma_samples": [{"c": 2, "matrix": [[ONE3], [ONE3]]}]}},
         "gamma sample 2 has shape 2x1, not 1x1"),
        (["psi", "--p", "3", "{m}", "{v}"],
         {"m": RANK1, "v": [{"coeffs": {"0": {"p": 5, "m": 1, "coeffs": [2]}}, "precision": 20}]},
         "coefficients [2] lie in F_5^1, not F_3^1"),
        (["normalize", "--p", "5", "{f}"], {"f": {"n": 1, "d": [LAM3], "t": [0], "b": [0]}},
         "coefficients [1] lie in F_3^1, not F_5^1"),
        (["galois-iso", "--p", "3", "--m", "2", "{a}", "{b}"],
         {"a": {"n": 4, "H": 25, "Lam": LAM3}, "b": {"n": 4, "H": 25, "Lam": LAM3}},
         "coefficients [1] lie in F_3^1, not F_3^2"),
        (["normalize", "--p", "5", "{f}", "--prec", "0"],
         {"f": {"n": 1, "d": [{"p": 5, "m": 1, "coeffs": [1]}], "t": [0], "b": [0]}},
         "prec (X-adic precision) must be >= 1, got 0"),
        (["build-induced", "--p", "5", "--n", "100000000", "--h", "1"], {},
         "--n 100000000 is above its limit 64"),
        (["build-rank1", "--p", "5", "--m", "9"], {}, "--m 9 is above its limit 8"),
        (["build-rank1", "--p", "5", "--prec", "100001"], {}, "--prec 100001 is above its limit"),
        (["simulate-dual", "--p", "5", "--r", "1", "--K", "1000000000"], {},
         "--K 1000000000 is above its limit"),
        (["psi", "--p", "3", "{m}", "{v}"], {"m": RANK1, "v": [{**ONE3, "precision": 10 ** 6 + 1}]},
         "series precision 1000001 is not an int of size <= 1000000"),
        (["psi", "--p", "3", "{m}", "{v}"],
         {"m": RANK1, "v": [{"coeffs": {"-1000001": LAM3, "0": LAM3}, "precision": 20}]},
         "series exponent -1000001 is below -1000000"),
        (["galois-iso", "--p", "5", "{a}", "{a}"], {"a": {"n": 10 ** 9, "H": 1, "Lam": LAM5}},
         "degree n 1000000000 is not an int in 1..64"),
        (["galois-iso", "--p", "5", "{a}", "{a}"], {"a": {"n": "4", "H": 1, "Lam": LAM5}},
         "degree n '4' is not an int in 1..64"),
        (["hilbert", "--p", "1000000000000000003", "3", "2"], {},
         "--p 1000000000000000003 is above its limit 1000000000"),
        (["ss-image", "--p", "999999937", "--r", "999999000"], {},
         "--p 999999937 is above its limit 10000000"),
        (["classify-ss", "--p", "999999937", "--r", "999999000"], {},
         "--p 999999937 is above its limit 10000000"),
        (["simulate-dual", "--p", "1000003", "--r", "0"], {},
         "--p 1000003 is above its limit 10000"),
        (["verify-bijection", "--p", "601"], {}, "--p 601 is above its limit 600"),
        (["verify-bijection", "--p", "1000003", "--m", "8"], {},
         "--p 1000003 is above its limit 600"),
        (["hilbert", "--p", "5", "1e10001", "2"], {},
         "exponent 10001 of a rational is above its limit 10000"),
        (["chi-z", "--p", "5", "1e-99999"], {},
         "exponent -99999 of a rational is above its limit 10000"),
        (["cocycle", "--p", "5", "--g1", "1e999999999,0,0,1", "--g2", "1,0,0,1"], {},
         "exponent 999999999 of a rational is above its limit 10000"),
        (["dual", "--p", "5", "{m}"], {"m": ZERO_PHI5}, "not etale"),
        (["psi", "--p", "5", "{m}", "{v}"], {"m": ZERO_PHI5, "v": [ONE5]}, "not etale"),
        (["twist", "--p", "5", "{m}", "--chi", "omega"], {"m": {**MODULE5, "precision": "x"}},
         "module precision 'x' is not an int of size <= 1000000"),
        (["dual", "--p", "5", "{m}"], {"m": {**MODULE5, "precision": None}},
         "module precision None is not an int"),
        (["dual", "--p", "5", "{m}"], {"m": {**MODULE5, "precision": 1.5}},
         "module precision 1.5 is not an int"),
        (["dual", "--p", "3", "{m}"],
         {"m": {**RANK1, "phi": [[{"coeffs": {"0": {**LAM3, "coeffs": [1.5]}}, "precision": 20}]]}},
         "coefficients [1.5] are not all ints"),
        (["galois-iso", "--p", "5", "{a}", "{a}"], {"a": {"n": 4, "H": 1.5, "Lam": LAM5}},
         "exponent H 1.5 is not an int"),
        (["galois-iso", "--p", "5", "{a}", "{a}"], {"a": {"n": 4, "H": True, "Lam": LAM5}},
         "exponent H True is not an int"),
        (["galois-iso", "--p", "5", "{a}", "{a}"], {"a": {"n": 4, "H": "7", "Lam": LAM5}},
         "exponent H '7' is not an int"),
        (["normalize", "--p", "3", "{f}"], {"f": {**FORM3, "noise": [None]}},
         "entries in each of d, t, b and noise, not [2, 2, 2, 1]"),
        (["normalize", "--p", "3", "{f}"], {"f": {**FORM3, "n": 0}},
         "cyclic form of rank 0 needs n >= 1"),
        (["normalize", "--p", "3", "{f}"], {"f": {**FORM3, "n": -1}},
         "cyclic form of rank -1 needs n >= 1"),
        (["normalize", "--p", "3", "{f}"], {"f": {**FORM3, "n": True}},
         "rank n True is not an int"),
        (["normalize", "--p", "3", "{f}"], {"f": {**FORM3, "t": [-1.0, -1.0]}},
         "exponents t [-1.0, -1.0] and b [0, 1] are not all ints"),
        (["normalize", "--p", "3", "{f}"], {"f": {**FORM3, "b": [0.5, 1.5]}},
         "exponents t [-1, -1] and b [0.5, 1.5] are not all ints"),
        (["normalize", "--p", "3", "{f}"], {"f": {**FORM3, "d": [LAM3]}},
         "entries in each of d, t, b and noise, not [1, 2, 2, 1]"),
        (["normalize", "--p", "3", "{f}"], {"f": {**FORM3, "t": [-1, -1, 0]}},
         "entries in each of d, t, b and noise, not [2, 3, 2, 2]"),
        (["normalize", "--p", "3", "{f}"], {"f": {**FORM3, "b": [0]}},
         "entries in each of d, t, b and noise, not [2, 2, 1, 2]"),
        (["build-rank1", "--p", "5", "--units", "-1"], {},
         "unit must be a positive integer coprime to p"),
        (["dual", "--p", "3", "{m}", "--units", "3"],
         {"m": {**RANK1, "gamma_samples": [{"c": 3, "matrix": [[ONE3]]}]}},
         "unit must be a positive integer coprime to p"),
    ],
)
def test_malformed_input_exits_1_without_traceback(tmp_path, args, files, message):
    paths = {}
    for key, obj in files.items():
        paths[key] = tmp_path / f"{key}.json"
        if obj is DIRECTORY:
            paths[key].mkdir()
        elif obj is not MISSING:
            paths[key].write_text(json.dumps(obj))
    argv = [a.format(**paths) for a in args]
    proc = subprocess.run(
        [sys.executable, "-m", "metaplectic.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert message.format(**paths) in json.loads(proc.stderr)["error"]


def test_rational_exponent_at_its_limit_answers(capsys):
    assert MAX_EXPONENT == 10 ** 4
    code, out, _ = run_cli(["hilbert", "--p", "5", "1e10000", "2"], capsys)
    assert code == 0 and out.strip() == "1"
    # an entry of 10^4 digits is printed whole, past Python's int-to-str digit limit
    code, out, _ = run_cli(["split", "--p", "3", "--g", "1,0,3e9999,1", "--zeta", "1"], capsys)
    assert code == 0 and json.loads(out)["g"][1][0] == "3" + "0" * 9999


def closed_pipe():
    """A line-buffered text stream on a pipe whose reading end is closed,
    so that its first write raises BrokenPipeError."""
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    return open(write_fd, "w", buffering=1)


def test_closed_stdout_exits_1_without_traceback(capsys, monkeypatch):
    # closing the stream flushes what is still buffered: to devnull, not to the pipe
    with closed_pipe() as stdout:
        with pytest.raises(BrokenPipeError):
            stdout.write("x\n")
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["build-induced", "--p", "5", "--n", "4", "--h", "39", "--prec", "2000"])
        monkeypatch.undo()
    err = capsys.readouterr().err
    assert code == 1 and json.loads(err) == {"error": "stdout was closed"}


def test_closed_stdout_prints_nothing_at_exit():
    with closed_pipe() as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "metaplectic.cli", "galois-reduce", "--p", "5", "--h", "39"],
            stdout=stdout, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 1 and json.loads(proc.stderr) == {"error": "stdout was closed"}


def readme_cli_lines():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("metaplectic ")]


def test_readme_cli_block_has_every_command():
    assert len(readme_cli_lines()) == 18


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_command_parses(line):
    command = re.sub(r"\s(#|>).*", "", line)
    build_parser().parse_args(shlex.split(command)[1:])


# -- the CLI surface and its exit contract, read off the command table ---------


def slot(action):
    """One option or positional as text: its name, type, required flag,
    default and choices."""
    words = [action.option_strings[0] if action.option_strings else action.dest]
    if action.type is not None:
        words.append(action.type.__name__)
    if action.required and action.option_strings:
        words.append("required")
    if action.default is not None:
        words.append(f"={action.default}")
    if action.choices is not None:
        words.append("|".join(map(str, action.choices)))
    return " ".join(words)


FORMAT = "--format =json json|table"
SURFACE = {
    "hilbert": [FORMAT, "--p int required", "a", "b"],
    "cocycle": [FORMAT, "--g1 required", "--g2 required", "--p int required"],
    "split": [FORMAT, "--g required", "--p int required", "--zeta int =1 1|-1"],
    "chi-z": [FORMAT, "--p int required", "z"],
    "build-rank1": ["--chi =1", FORMAT, "--m int =1", "--p int required", "--prec int =40",
                    "--units =2"],
    "build-induced": ["--chi =1", FORMAT, "--h int required", "--m int =1", "--n int required",
                      "--p int required", "--prec int =40", "--units =2"],
    "twist": ["--chi required", FORMAT, "--m int =1", "--p int required", "--units =2", "module"],
    "dual": [FORMAT, "--m int =1", "--p int required", "--units =2", "module"],
    "psi": [FORMAT, "--m int =1", "--p int required", "module", "vector"],
    "normalize": [FORMAT, "--m int =1", "--p int required", "--prec int =40", "form"],
    "classify-ss": [FORMAT, "--m int =1", "--p int required", "--r int required"],
    "simulate-dual": ["--K int =4", FORMAT, "--i int =1", "--m int =1", "--p int required",
                      "--r int required"],
    "galois-reduce": [FORMAT, "--h int required", "--m int =1", "--p int required"],
    "galois-iso": [FORMAT, "--m int =1", "--p int required", "a", "b"],
    "ps-image": ["--chi1 =1", "--chi2 =1", FORMAT, "--m int =1", "--p int required"],
    "ss-image": ["--eta =1", FORMAT, "--m int =1", "--p int required", "--r int required"],
    "verify-bijection": [FORMAT, "--m int =1", "--p int required"],
    "selftest": [FORMAT, "--seed int =0"],
}


def test_cli_surface_is_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: sorted(slot(a) for a in parser._actions if not isinstance(a, argparse._HelpAction))
        for name, parser in sub.choices.items()
    }
    assert surface == SURFACE  # 18 subcommands, 84 slots


def test_parser_is_not_built_at_import():
    code = "import sys, metaplectic.cli as c; sys.exit(c.build_parser.cache_info().currsize)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


FORM3 = {"n": 1, "d": [LAM3], "t": [0], "b": [0]}
PARAMS3 = {"n": 4, "H": 25, "Lam": LAM3}
# a valid value for each required slot at p = 3; file slots hold a document
VALID = {"--p": "3", "--r": "0", "--n": "1", "--h": "1", "--g": "1,0,0,1", "--g1": "1,0,0,1",
         "--g2": "1,0,0,1", "--chi": "1", "a": "3", "b": "2", "z": "3"}
MODULE3 = {**RANK1, "gamma_samples": [{"c": 2, "matrix": [[ONE3]]}]}
DOCUMENTS = {"module": MODULE3, "vector": [ONE3], "form": FORM3, "a": PARAMS3, "b": PARAMS3}


def is_file(name, kwargs):
    return not name.startswith("-") and "JSON" in kwargs.get("help", "")


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {"missing": root / "missing.json", "directory": root / "directory"}
    paths["directory"].mkdir()
    paths["non-JSON"] = root / "text.json"
    paths["non-JSON"].write_text("{not json")
    for name, doc in DOCUMENTS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return {key: str(path) for key, path in paths.items()}


def argv_with(command, files, name=None, value=None):
    """The command's required slots at their valid values, with slot `name`
    set to `value`."""
    argv = [command]
    for slot_name, _, kwargs in COMMANDS[command][1]:
        if slot_name == name:
            given_value = value
        elif slot_name.startswith("-") and not kwargs.get("required"):
            continue
        else:
            given_value = files[slot_name] if is_file(slot_name, kwargs) else VALID[slot_name]
        argv += [given_value] if not slot_name.startswith("-") else [f"{slot_name}={given_value}"]
    return argv


def run_in_process(argv):
    """main's exit code for argv, with SystemExit(2) from argparse as usage;
    any other exception propagates and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_every_bound_and_bad_path_exits_1(cli_files):
    checked = 0
    for command, (_, options, _) in COMMANDS.items():
        for name, limit, kwargs in options:
            if limit is not None:
                if kwargs.get("type") is int:
                    value, what = str(limit + 1), f"{name} {limit + 1}"
                else:  # a comma list, bounded by its length
                    value, what = ",".join(["2"] * (limit + 1)), f"{name} count {limit + 1}"
                code, err = run_in_process(argv_with(command, cli_files, name, value))
                assert code == 1
                assert json.loads(err)["error"] == f"{what} is above its limit {limit}"
                checked += 1
            if is_file(name, kwargs):
                for bad in ("missing", "directory", "non-JSON"):
                    code, err = run_in_process(argv_with(command, cli_files, name, cli_files[bad]))
                    assert code == 1 and json.loads(err)["error"]
                    checked += 1
        if command != "selftest":  # the whole suite; test_selftest runs it
            assert run_in_process(argv_with(command, cli_files)) == (0, "")
    # 17 --p, 13 --m, 3 --prec, --n, --K, 4 --units; 7 file slots, 3 bad paths each
    assert checked == 17 + 13 + 3 + 2 + 4 + 7 * 3


MALFORMED = st.one_of(
    st.sampled_from(["", " ", "x", "-", "--", "1.5", "1/0", "nan", "inf", "0x10", "1,2",
                     "mu(", "mu(x)", "omega^", "omega^x", "[", "{}", "null", "1e4"]),
    # six characters at most keep a decimal exponent such as 1e9999 small
    st.text(max_size=6),
)


def parses_as_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.data())
def test_malformed_values_keep_the_exit_contract(cli_files, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    name, _, kwargs = data.draw(st.sampled_from(COMMANDS[command][1]))
    if is_file(name, kwargs):
        value = cli_files[data.draw(st.sampled_from(["missing", "directory", "non-JSON"]))]
    elif kwargs.get("type") is int:
        # an int here is an in-range size: only strings int() refuses are drawn
        value = data.draw(MALFORMED.filter(lambda text: not parses_as_int(text)))
    else:
        value = data.draw(MALFORMED)
    code, _ = run_in_process(argv_with(command, cli_files, name, value))
    assert code in (0, 1, 2)
