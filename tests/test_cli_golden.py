"""CLI output pinned byte for byte: the README examples and small literals."""

import re
import shlex
from pathlib import Path

import pytest

from chebbounds.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    return captured.out


def readme_example(command):
    """The output lines under ``$ chebbounds <command>`` in a README code block."""
    for block in re.findall(r"```\n(.*?)```", README.read_text(), flags=re.S):
        first, _, rest = block.partition("\n")
        if first == f"$ chebbounds {command}":
            return rest
    raise AssertionError(f"no README example for {command!r}")


@pytest.mark.parametrize(
    "command",
    [
        "bound --lambda 1 --mu 1 --delta 0 --t 0.6 --eta 1 --eta 2",
        "verify --samples 10000 --seed 1729",
    ],
)
def test_readme_examples(capsys, command):
    assert run(capsys, shlex.split(command)) == readme_example(command)


# two grid points either side of none, one exactly on d = 0 (lambda 2, mu 0, t = 1/sqrt 2)
SWEEP = ["sweep", "--lambda", "1:2:2", "--mu", "0", "--delta", "0",
         "--t", "0.6:0.70710678118654752440:2", "--eta", "0", "--eta", "1"]

SWEEP_CSV = """\
lambda,mu,delta,t,xi,a2_bound,a3_bound,fs_bound@0,fs_bound@1,denom,singular_flag
1,0,0,0.6,0.666666666667,1.31453413801,2.04,1.728,0.6,1,false
1,0,0,0.707106781187,0.666666666667,1.68179283051,2.70710678119,2.82842712475,0.707106781187,1,false
2,0,0,0.6,0.8,1.24211800682,0.66,1.54285714286,0.3,1.12,false
2,0,0,0.707106781187,0.8,inf,0.853553390593,inf,0.353553390593,8.881784197e-16,true
"""

SWEEP_JSON = """\
[
  {
    "lambda": 2.0,
    "mu": 0.0,
    "delta": 0.0,
    "t": 0.6,
    "xi": 0.8,
    "a2_bound": 1.24211800682,
    "a3_bound": 0.66,
    "fs_bound@0": 1.54285714286,
    "denom": 1.12,
    "singular_flag": false
  },
  {
    "lambda": 2.0,
    "mu": 0.0,
    "delta": 0.0,
    "t": 0.707106781187,
    "xi": 0.8,
    "a2_bound": "unbounded",
    "a3_bound": 0.853553390593,
    "fs_bound@0": "unbounded",
    "denom": 8.881784197e-16,
    "singular_flag": true
  }
]
"""

VERIFY_FULL = """\
[PASS] corollary reductions: 12 slices, 1148 points, max deviation 0.000e+00
[PASS] chebyshev cross-validation: closed-form dev 1.776e-15, series dev 2.331e-15
[PASS] inverse-series fixtures: 100 draws, coefficient dev 5.551e-17, compose residual 2.220e-16
[PASS] fs branch continuity (corrected): 500 draws, max gap at threshold 1.110e-16
[PASS] oracle soundness (full-system): 81 points x 5 quantities, 402 checked, 3 skipped (unbounded closed form), 0 violations
verify: PASS
"""

SERIES_OPERATOR = """\
order = 8
f[2] = 0.3
f[3] = 0.1
f[4] = 0
f[5] = 0
f[6] = 0
f[7] = 0
f[8] = 0
inverse[2] = -0.3
inverse[3] = 0.08
inverse[4] = 0.015
inverse[5] = -0.0456
inverse[6] = 0.04074
inverse[7] = -0.021072
inverse[8] = 0.0011187
compose_residual = 2.22e-17
operator[0] = 1
operator[1] = 0.6
operator[2] = 0.3
operator[3] = 0
operator[4] = 0
operator[5] = 0
operator[6] = 0
operator[7] = 0
c1 = 0.5
c2 = 0.158333333333
membership_d2 = 0.108333333333
admissible = true
"""

SERIES_COMPLEX = """\
order = 12
f[2] = 0.1+0.2j
f[3] = -0.05
f[4] = 0
f[5] = 0
f[6] = 0
f[7] = 0
f[8] = 0
f[9] = 0
f[10] = 0
f[11] = 0
f[12] = 0
inverse[2] = -0.1-0.2j
inverse[3] = -0.01+0.08j
inverse[4] = 0.03-0.04j
inverse[5] = -0.0338+0.0084j
inverse[6] = 0.02198+0.01036j
inverse[7] = -0.008106-0.015792j
inverse[8] = -0.0024651+0.0133518j
inverse[9] = 0.00796565-0.0070642j
inverse[10] = -0.008476897+0.000532246j
inverse[11] = 0.0056853407+0.0038823824j
inverse[12] = -0.00172358784-0.00538693688j
compose_residual = 7.76e-18
"""


def test_sweep_csv_golden(capsys):
    assert run(capsys, SWEEP) == SWEEP_CSV


def test_sweep_json_golden(capsys):
    argv = ["sweep", "--lambda", "2", "--mu", "0", "--delta", "0",
            "--t", "0.6:0.70710678118654752440:2", "--eta", "0", "--format", "json"]
    assert run(capsys, argv) == SWEEP_JSON


def test_verify_full_system_golden(capsys):
    argv = ["verify", "--samples", "300", "--seed", "99", "--mode", "full-system"]
    assert run(capsys, argv) == VERIFY_FULL


@pytest.mark.parametrize("seed, gap", [(1729, "2.053e-01"), (7, "1.925e-01")])
def test_verify_as_printed_continuity_golden(capsys, seed, gap):
    argv = ["verify", "--variant", "as-printed", "--samples", "10", "--seed", str(seed),
            "--lambda", "1", "--mu", "0", "--delta", "0", "--t", "0.6"]
    line = (f"[INFO] fs branch continuity (as-printed): 500 draws, max gap at threshold {gap}"
            " (discontinuity expected for delta > 0; informational)\n")
    assert line in run(capsys, argv)


@pytest.mark.parametrize(
    "command, expected",
    [
        ("series --coeffs 0.3,0.1 --lambda 1 --mu 1 --delta 0 --t 0.6", SERIES_OPERATOR),
        ("series --coeffs 0.1+0.2j,-0.05 --order 12", SERIES_COMPLEX),
    ],
)
def test_series_golden(capsys, command, expected):
    assert run(capsys, shlex.split(command)) == expected
