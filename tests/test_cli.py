import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from metaplectic.cli import build_parser, main


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
        (["simulate-dual", "--p", "10000019", "--r", "0"], {},
         "--p 10000019 is above its limit 10000000"),
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
