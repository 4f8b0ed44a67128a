"""The console script ends its process right after flushing its output.

``cli.run`` (the ``chebbounds`` script and ``python -m chebbounds.cli``)
runs ``main``, which flushes standard output, then flushes standard error
and calls ``os._exit`` with main's code, skipping the interpreter's
teardown.  That must change no byte: every command's output, its messages
and its exit code match ``main(argv)`` in process.  A write to standard
output that fails, buffered or not, fails inside ``main``: exit code 3 and
one error line.  An error line that cannot be written keeps main's code.
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


@pytest.mark.parametrize("failing, code, message", [
    ("stdout", cli.EXIT_IO, BROKEN_PIPE),
    ("stderr", cli.EXIT_OK, ""),
], ids=["stdout", "stderr"])
def test_run_exits_with_mains_code_when_a_flush_fails(monkeypatch, failing, code, message):
    # main reports a failed flush of standard output; a failed flush of standard
    # error has nothing left to tell it to
    log, streams = [], {}
    monkeypatch.setattr(sys, "argv", ["chebbounds", "cheb", "--t", "0.6", "--n-max", "2"])
    for name in ("stdout", "stderr"):
        error = BrokenPipeError(32, "Broken pipe") if name == failing else None
        streams[name] = Stream(name, log, error)
        monkeypatch.setattr(sys, name, streams[name])
    monkeypatch.setattr(os, "_exit", lambda status: log.append(("_exit", status)))
    cli.run()
    assert log == ["stdout", "stderr", ("_exit", code)]
    assert streams["stderr"].getvalue() == message


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
# output that cannot be written.  With standard output unbuffered, the failing
# write happens in the command; buffered, a short output fails only at main's
# flush.  Either way main reports it with one error line and exits 3.


def closed_pipe():
    """A pipe's write end whose reader has already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


def dev_full():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return os.open("/dev/full", os.O_WRONLY)


@pytest.mark.parametrize("target, unbuffered, code, message", [
    (closed_pipe, True, cli.EXIT_IO, BROKEN_PIPE),
    (closed_pipe, False, cli.EXIT_IO, BROKEN_PIPE),
    (dev_full, True, cli.EXIT_IO, NO_SPACE),
    (dev_full, False, cli.EXIT_IO, NO_SPACE),
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


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv, code", [
    (["bound", *POINT], cli.EXIT_OK),
    (["bound", "--lambda", "1"], cli.EXIT_USAGE),
    (["sweep", *GRID, "--output", "."], cli.EXIT_IO),     # a directory cannot be opened
], ids=["ok", "usage", "io"])
def test_unwritable_stderr_keeps_the_exit_code(argv, code, unbuffered):
    fd = dev_full()
    try:
        proc = subprocess.run(**fresh(["-m", "chebbounds.cli", *argv], unbuffered=unbuffered),
                              stdout=subprocess.PIPE, stderr=fd, timeout=60)
    finally:
        os.close(fd)
    assert proc.returncode == code
    assert proc.stdout.startswith(b"lambda = 1\n") == (code == cli.EXIT_OK)


def test_bound_with_stdout_closed():
    # with descriptor 1 closed, sys.stdout is None and print writes nothing
    kwargs = fresh(["-m", "chebbounds.cli", "bound", *POINT])
    kwargs["args"] = ["sh", "-c", 'exec "$@" >&-', "sh", *kwargs["args"]]
    proc = subprocess.run(**kwargs, stderr=subprocess.PIPE, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
