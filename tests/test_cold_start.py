"""Start-up cost and the names verify calls through.

``bound``, ``cheb`` and ``series`` never import numpy: the closed forms of
one point run on Python floats, and ``cli`` imports numpy, the oracle and
the reductions only inside the commands that need them.  No command imports
``dataclasses``: every record, verify's included, is a ``NamedTuple`` or a
``__slots__`` class.  ``verify`` calls the oracle and the reductions through
``cli.sweep_verify`` and ``cli.reduction_check``; replacing either attribute
must intercept the call, since the benchmark captures the oracle's results
that way.

``verify`` imports numpy but not ``numpy.random``: its fixture suites
draw from a pure-Python copy of numpy's generator, and the oracle draws
only where its closed-disk bound cannot settle a point, which no point of
the default grid or of the benchmark's full-system grid needs.

Each command loads only its own modules: ``bound`` loads neither
``powerseries``, nor the suites of ``chebbounds.verify``, nor the sweep
renderer, and ``sweep`` loads neither of the first two.  No module that a
command imports imports ``chebbounds.cli``, which under ``python -m
chebbounds.cli`` would compile and run ``cli.py`` a second time.
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
# runs cli.main on its arguments, then prints whether numpy and dataclasses were
# imported, the exit code, and the chebbounds modules loaded
SCRIPT = ("import sys\n"
          "from chebbounds import cli\n"
          "code = cli.main(sys.argv[1:])\n"
          "print('numpy' in sys.modules, 'dataclasses' in sys.modules, code)\n"
          "print(*sorted(m for m in sys.modules if m.startswith('chebbounds.')))")
POINT = ["--lambda", "1", "--mu", "1", "--delta", "0", "--t", "0.6"]
BOUND = ["bound", *POINT, "--eta", "1", "--eta", "2"]
BOUND_SINGULAR = ["bound", "--lambda", "2", "--mu", "0", "--delta", "0",
                  "--t", "0.7071067811865476", "--eta", "0", "--eta", "1", "--variant", "as-printed"]
SWEEP = ["sweep", "--lambda", "1:2:2", "--mu", "0", "--delta", "0", "--t", "0.6", "--eta", "1"]
VERIFY = ["verify", "--lambda", "1", "--mu", "0.5", "--delta", "0", "--t", "0.6", "--samples", "50"]
VERIFY_FULL = ["verify", "--seed", "5", "--mode", "full-system", "--samples", "1000",
               "--lambda", "1:3:5", "--mu", "0:2:5", "--delta", "0:1:5", "--t", "0.55:0.95:9"]


def fresh(*args):
    """A new interpreter run with ``args``, with this checkout's src/ on the path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))


def fresh_run(argv):
    """(numpy imported, dataclasses imported, exit code, chebbounds modules
    loaded) of cli.main(argv) in a new interpreter."""
    proc = fresh("-c", SCRIPT, *argv)
    assert proc.returncode == 0, proc.stderr
    *_, flags, loaded = proc.stdout.splitlines()
    numpy, dataclasses, code = flags.split()
    return numpy == "True", dataclasses == "True", int(code), set(loaded.split())


@pytest.mark.parametrize("argv", [
    BOUND,
    BOUND_SINGULAR,
    ["cheb", "--t", "0.6", "--n-max", "5"],
    ["series", "--coeffs", "0.3,0.1", *POINT],
], ids=["bound", "bound-singular", "cheb", "series"])
def test_one_point_commands_never_import_numpy(argv):
    assert fresh_run(argv)[:3] == (False, False, cli.EXIT_OK)


@pytest.mark.parametrize("argv", [SWEEP, VERIFY], ids=["sweep", "verify"])
def test_grid_commands_import_numpy_and_succeed(argv):
    assert fresh_run(argv)[:3] == (True, False, cli.EXIT_OK)


@pytest.mark.parametrize("argv", [["verify"], VERIFY_FULL, VERIFY],
                         ids=["verify", "verify-full", "verify-point"])
def test_verify_never_imports_numpy_random(argv):
    proc = fresh("-c", "import sys\n"
                       "from chebbounds import cli\n"
                       "code = cli.main(sys.argv[1:])\n"
                       "print('numpy' in sys.modules, 'numpy.random' in sys.modules, code)",
                 *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"True False {cli.EXIT_OK}"


@pytest.mark.parametrize("argv, loads, skips", [
    (BOUND, set(), {"powerseries", "verify", "render"}),
    (BOUND_SINGULAR, set(), {"powerseries", "verify", "render"}),
    (SWEEP, {"render"}, {"powerseries", "verify"}),
    (VERIFY, {"powerseries", "verify"}, {"render"}),
], ids=["bound", "bound-singular", "sweep", "verify"])
def test_each_command_loads_only_its_own_modules(argv, loads, skips):
    *_, code, loaded = fresh_run(argv)
    assert code == cli.EXIT_OK
    assert {f"chebbounds.{name}" for name in loads} <= loaded
    assert not loaded & {f"chebbounds.{name}" for name in skips}


def test_verify_as_a_module_imports_cli_once():
    # under python -m the front end is __main__: a module that imported
    # chebbounds.cli would show it as a second row of the import times
    proc = fresh("-X", "importtime", "-m", "chebbounds.cli", *VERIFY)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    rows = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]
    assert "chebbounds.verify" in rows and "chebbounds.oracle" in rows
    assert "chebbounds.cli" not in rows


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
