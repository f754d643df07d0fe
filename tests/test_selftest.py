import json
import subprocess
import sys

from metaplectic.selftest import run_selftest


def test_selftest_passes_and_is_deterministic():
    report = run_selftest(seed=0)
    assert report["ok"]
    assert {c["name"] for c in report["checks"]} == {
        "coeff.invariants",
        "laurent.invariants",
        "metagroup.invariants",
        "chars.invariants",
        "phigamma.invariants",
        "classify.invariants",
        "galois.invariants",
        "meta.invariants",
    }
    assert all(c["ok"] for c in report["checks"])
    again = run_selftest(seed=0)
    assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_selftest_cli_exit_code(capsys):
    from metaplectic.cli import main

    code = main(["selftest", "--seed", "3"])
    out, _ = capsys.readouterr()
    report = json.loads(out)
    assert code == 0 and report["ok"] and report["seed"] == 3


def test_selftest_verdict_survives_optimize_flag():
    # break one invariant, then run its check under `python -O`, which strips
    # `assert` statements: the verdict must still be a failure
    script = "\n".join([
        "import sys",
        "from metaplectic import selftest",
        "from metaplectic.chars import HChar",
        "HChar.swap = lambda self: self",
        "selftest.CHECKS[:] = [c for c in selftest.CHECKS if c[0] == 'chars.invariants']",
        "from metaplectic.cli import main",
        "sys.exit(main(['selftest']))",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    report = json.loads(proc.stdout)
    assert proc.returncode == 1 and report["ok"] is False
    assert report["checks"] == [
        {"name": "chars.invariants", "ok": False, "detail": "bracket and swap commute"}
    ]
