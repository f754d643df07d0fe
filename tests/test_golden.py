"""The README's CLI commands, and the commands that read a file, pinned byte
for byte.

Each .out file under tests/golden/ is the stdout of one command below; the
files the commands read are in tests/golden/inputs/ ({inputs} in a command).
A diff here means the CLI's output changed; regenerate a file only when that
change is intended.
"""

import shlex
from pathlib import Path

import pytest

from metaplectic.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "hilbert": "hilbert --p 3 3 2",
    "cocycle": "cocycle --p 3 --g1 1,0,1,1 --g2=-3,1,6,1",
    "split": "split --p 3 --g 1,0,6,1",
    "chi-z": "chi-z --p 3 3",
    "build-rank1": 'build-rank1 --p 5 --chi "mu(2)*omega^1" --prec 40',
    "build-induced": "build-induced --p 5 --n 4 --h 39 --prec 40",
    "classify-ss": "classify-ss --p 5 --r 1",
    "simulate-dual": "simulate-dual --p 3 --r 0 --i 1 --K 4",
    "galois-reduce": "galois-reduce --p 3 --h 15",
    "ps-image": 'ps-image --p 5 --chi1 omega --chi2 "mu(2)"',
    "ss-image": 'ss-image --p 5 --r 1 --eta "omega^2"',
    "verify-bijection": "verify-bijection --p 5 --m 4",
    "selftest": "selftest --seed 0",
    # inputs/module.json is the output of build-induced above
    "twist": 'twist --p 5 {inputs}/module.json --chi "mu(2)*omega^1"',
    "dual": "dual --p 5 {inputs}/module.json",
    "psi": "psi --p 5 {inputs}/module.json {inputs}/vector.json",
    "normalize": "normalize --p 5 {inputs}/form.json",
    "galois-iso": "galois-iso --p 5 {inputs}/params-a.json {inputs}/params-b.json",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_cli_output(name, capsys):
    code = main([arg.format(inputs=GOLDEN / "inputs") for arg in shlex.split(COMMANDS[name])])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()
