"""Start-up cost and the names verify calls through.

``bound``, ``cheb`` and ``series`` never import numpy: the closed forms of
one point run on Python floats, and ``cli`` imports numpy, the oracle and
the reductions only inside the commands that need them.  Only ``verify``
imports ``dataclasses`` (and with it ``inspect``), through the oracle and the
reductions: the records that every command builds are ``NamedTuple``s and
``__slots__`` classes.  ``verify`` calls
the oracle and the reductions through ``cli.sweep_verify`` and
``cli.reduction_check``; replacing either attribute must intercept the call,
since the benchmark captures the oracle's results that way.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chebbounds
from chebbounds import cli
from chebbounds.reductions import corollary_ids

SRC = Path(chebbounds.__file__).resolve().parent.parent
# runs cli.main on its arguments, then prints whether numpy and dataclasses were imported
SCRIPT = ("import sys\n"
          "from chebbounds import cli\n"
          "code = cli.main(sys.argv[1:])\n"
          "print('numpy' in sys.modules, 'dataclasses' in sys.modules, code)")
POINT = ["--lambda", "1", "--mu", "1", "--delta", "0", "--t", "0.6"]


def fresh_run(argv):
    """(numpy imported, dataclasses imported, exit code) of cli.main(argv) in a
    new interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *argv], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    numpy, dataclasses, code = proc.stdout.splitlines()[-1].split()
    return numpy == "True", dataclasses == "True", int(code)


@pytest.mark.parametrize("argv", [
    ["bound", *POINT, "--eta", "1", "--eta", "2"],
    ["bound", "--lambda", "2", "--mu", "0", "--delta", "0", "--t", "0.7071067811865476",
     "--eta", "0", "--eta", "1", "--variant", "as-printed"],
    ["cheb", "--t", "0.6", "--n-max", "5"],
    ["series", "--coeffs", "0.3,0.1", *POINT],
], ids=["bound", "bound-singular", "cheb", "series"])
def test_one_point_commands_never_import_numpy(argv):
    assert fresh_run(argv) == (False, False, cli.EXIT_OK)


@pytest.mark.parametrize("argv, dataclasses", [
    (["sweep", "--lambda", "1:2:2", "--mu", "0", "--delta", "0", "--t", "0.6", "--eta", "1"],
     False),
    (["verify", "--lambda", "1", "--mu", "0.5", "--delta", "0", "--t", "0.6", "--samples", "50"],
     True),
], ids=["sweep", "verify"])
def test_grid_commands_import_numpy_and_succeed(argv, dataclasses):
    assert fresh_run(argv) == (True, dataclasses, cli.EXIT_OK)


def test_verify_calls_through_the_cli_names(monkeypatch, capsys):
    sweep_verify, reduction_check = cli.sweep_verify, cli.reduction_check
    oracle_results, checked = [], []

    def counting_sweep(*args, **kwargs):
        results = sweep_verify(*args, **kwargs)
        oracle_results.extend(results)
        return results

    def counting_reduction(cid, *args, **kwargs):
        checked.append(cid)
        return reduction_check(cid, *args, **kwargs)

    monkeypatch.setattr(cli, "sweep_verify", counting_sweep)
    monkeypatch.setattr(cli, "reduction_check", counting_reduction)
    argv = ["verify", "--lambda", "1:2:2", "--mu", "0.5", "--delta", "0", "--t", "0.6",
            "--eta", "1", "--samples", "200"]
    assert cli.main(argv) == cli.EXIT_OK
    assert "verify: PASS" in capsys.readouterr().out
    assert len(oracle_results) == 2 * 3          # two points x |a2|, |a3|, fs@1
    assert checked == corollary_ids()
