"""The console script ends its process right after flushing its output.

``cli.run`` (the ``chebbounds`` script and ``python -m chebbounds.cli``)
runs ``main``, flushes standard output and standard error, and calls
``os._exit`` with main's code, skipping the interpreter's teardown.  That
must change no byte: every command's output, its messages and its exit
code match ``main(argv)`` in process.  Where a flush fails, ``run`` exits
the ordinary way, so a closed pipe or a full disk reports as it always has.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chebbounds
from chebbounds import cli

SRC = Path(chebbounds.__file__).resolve().parent.parent
POINT = ["--lambda", "1", "--mu", "1", "--delta", "0", "--t", "0.6"]
GRID = ["--lambda", "1:2:2", "--mu", "0", "--delta", "0", "--t", "0.6:0.70710678118654752440:2",
        "--eta", "0", "--eta", "1"]
# 10,000 rows, about 0.8 MB of CSV: far more than a pipe holds
LARGE_SWEEP = ["sweep", "--lambda", "1:3:25", "--mu", "0:2:20", "--delta", "0",
               "--t", "0.55:0.95:20"]
# what the command prints on its exit path when a write to standard output fails
BROKEN_PIPE = "error: [Errno 32] Broken pipe\n"
NO_SPACE = "error: [Errno 28] No space left on device\n"


def fresh(args, unbuffered=False, **kwargs):
    """Popen keywords for a new interpreter running ``args`` with this
    checkout's src/ on the path; standard output is block-buffered unless
    ``unbuffered``, so that only the final flush writes a short output."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=path, PYTHONIOENCODING="utf-8")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return dict(args=[sys.executable, *args], env=env, **kwargs)


def as_module(argv, **kwargs):
    return subprocess.run(**fresh(["-m", "chebbounds.cli", *argv], **kwargs),
                          capture_output=True, timeout=60)


def in_process(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


# ---------------------------------------------------------------------------
# the same bytes and exit code as main(argv)


@pytest.mark.parametrize("argv, code", [
    (["bound", *POINT, "--eta", "1", "--eta", "2"], cli.EXIT_OK),
    (["sweep", *GRID], cli.EXIT_OK),
    (["sweep", *GRID, "--format", "json"], cli.EXIT_OK),
    (["verify", *POINT, "--samples", "50"], cli.EXIT_OK),
    (["cheb", "--t", "0.6", "--n-max", "5"], cli.EXIT_OK),
    (["series", "--coeffs", "0.3,0.1j", *POINT], cli.EXIT_OK),
    (["bound", "--lambda", "x"], cli.EXIT_USAGE),
    (["bound", "--lambda", "1"], cli.EXIT_USAGE),
], ids=["bound", "sweep-csv", "sweep-json", "verify", "cheb", "series", "usage",
        "missing-parameter"])
def test_module_run_matches_main(capsys, argv, code):
    expected = in_process(capsys, argv)
    assert expected[0] == code
    proc = as_module(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_sweep_output_file_matches_main(capsys, tmp_path):
    argv = ["sweep", *GRID]
    inside, outside = tmp_path / "main.csv", tmp_path / "run.csv"
    expected = in_process(capsys, [*argv, "--output", str(inside)])
    assert expected == (cli.EXIT_OK, b"", b"")
    proc = as_module([*argv, "--output", str(outside)])
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    assert outside.read_bytes() == inside.read_bytes()
    assert inside.read_bytes().count(b"\n") == 5


def test_unwritable_output_matches_main(capsys, tmp_path):
    argv = ["sweep", *GRID, "--output", str(tmp_path / "missing" / "sweep.csv")]
    expected = in_process(capsys, argv)
    assert expected[0] == cli.EXIT_IO and expected[2].startswith(b"error: [Errno 2]")
    proc = as_module(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_console_script_shape_matches_main(capsys):
    # the wrapper that an installed `chebbounds` script runs
    argv = ["bound", *POINT, "--eta", "1"]
    expected = in_process(capsys, argv)
    script = "import sys; from chebbounds.cli import run; sys.exit(run())"
    proc = subprocess.run(**fresh(["-c", script, *argv]), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


# ---------------------------------------------------------------------------
# run() and main() in process


class Stream(io.StringIO):
    """A text stream that logs its flushes, or fails them with ``error``."""

    def __init__(self, name, log, error=None):
        super().__init__()
        self.name, self.log, self.error = name, log, error

    def flush(self):
        self.log.append(self.name)
        if self.error is not None:
            raise self.error


@pytest.mark.parametrize("argv, code", [
    (["cheb", "--t", "0.6", "--n-max", "2"], cli.EXIT_OK),
    (["bound", "--lambda", "1"], cli.EXIT_USAGE),
], ids=["ok", "usage"])
def test_run_flushes_both_streams_then_exits_once(monkeypatch, argv, code):
    log = []
    monkeypatch.setattr(sys, "argv", ["chebbounds", *argv])
    monkeypatch.setattr(sys, "stdout", Stream("stdout", log))
    monkeypatch.setattr(sys, "stderr", Stream("stderr", log))
    monkeypatch.setattr(os, "_exit", lambda status: log.append(("_exit", status)))
    cli.run()
    assert log == ["stdout", "stderr", ("_exit", code)]


@pytest.mark.parametrize("failing", ["stdout", "stderr"])
def test_run_exits_the_ordinary_way_when_a_flush_fails(monkeypatch, failing):
    log = []
    monkeypatch.setattr(sys, "argv", ["chebbounds", "cheb", "--t", "0.6", "--n-max", "2"])
    for name in ("stdout", "stderr"):
        error = BrokenPipeError(32, "Broken pipe") if name == failing else None
        monkeypatch.setattr(sys, name, Stream(name, log, error))
    monkeypatch.setattr(os, "_exit", lambda status: log.append(("_exit", status)))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == cli.EXIT_OK
    assert log == ["stdout", "stderr"][: 1 + (failing == "stderr")]


@pytest.mark.parametrize("argv", [
    ["bound", *POINT, "--eta", "1"],
    ["sweep", *GRID],
    ["verify", *POINT, "--samples", "50"],
    ["cheb", "--t", "0.6", "--n-max", "3"],
    ["series", "--coeffs", "0.3,0.1"],
], ids=["bound", "sweep", "verify", "cheb", "series"])
def test_main_never_ends_the_process(monkeypatch, capsys, argv):
    def refuse(status):
        raise AssertionError(f"main called os._exit({status})")

    monkeypatch.setattr(os, "_exit", refuse)
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out


# ---------------------------------------------------------------------------
# output that cannot be written, reported as the interpreter's ordinary exit
# reports it.  With standard output unbuffered, the failing write happens inside
# main, which reports it and exits 3.  Buffered, a short output fails only at
# the final flush, and the interpreter reports it in its own words with status 120.


def closed_pipe():
    """A pipe's write end whose reader has already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


def dev_full():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return os.open("/dev/full", os.O_WRONLY)


def ignored(error):
    return ("Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
            f"encoding='utf-8'>\n{error}\n")


@pytest.mark.parametrize("target, unbuffered, code, message", [
    (closed_pipe, True, cli.EXIT_IO, BROKEN_PIPE),
    (closed_pipe, False, 120, ignored("BrokenPipeError: [Errno 32] Broken pipe")),
    (dev_full, True, cli.EXIT_IO, NO_SPACE),
    (dev_full, False, 120, ignored("OSError: [Errno 28] No space left on device")),
], ids=["closed-pipe", "closed-pipe-buffered", "dev-full", "dev-full-buffered"])
def test_bound_into_unwritable_stdout(target, unbuffered, code, message):
    fd = target()
    try:
        proc = subprocess.run(**fresh(["-m", "chebbounds.cli", "bound", *POINT],
                                      unbuffered=unbuffered),
                              stdout=fd, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(fd)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (code, message)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_large_sweep_into_a_reader_that_stops(unbuffered):
    with subprocess.Popen(**fresh(["-m", "chebbounds.cli", *LARGE_SWEEP], unbuffered=unbuffered),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert "Traceback" not in err
    assert (code, err) == (cli.EXIT_IO, BROKEN_PIPE)


def test_bound_with_stdout_closed():
    # with descriptor 1 closed, sys.stdout is None and print writes nothing
    kwargs = fresh(["-m", "chebbounds.cli", "bound", *POINT])
    kwargs["args"] = ["sh", "-c", 'exec "$@" >&-', "sh", *kwargs["args"]]
    proc = subprocess.run(**kwargs, stderr=subprocess.PIPE, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
