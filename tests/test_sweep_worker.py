"""A sweep of two or more chunks renders every other chunk in one forked
worker.  Its bytes are those of one process rendering every chunk, for
every chunk count, format and sink.  The worker ends only through
``os._exit``, and ``main`` kills and reaps it on every path: success, a
failed write, a failed worker and an interrupt.  Memory stays bounded in
both processes."""

import io
import os
import signal
import subprocess
import sys
import time

import pytest
from test_process_exit import fresh
from test_sweep_sink import GRID, N_ROWS

from chebbounds import cli

# CSV_CHUNK_ROWS -> chunks of the 9225-row grid: 1, 2, 3, an even and an odd count
CHUNKS = {10_000: 1, 5_000: 2, 4_096: 3, 1_200: 8, 1_100: 9}


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids that os.fork returned in this process, from here on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def one_process(monkeypatch, tmp_path, argv) -> bytes:
    """The sweep's bytes where os.fork is missing: this process renders every chunk."""
    out = tmp_path / "one-process.out"
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
    return out.read_bytes()


@pytest.mark.parametrize("out_format", ["csv", "json"])
@pytest.mark.parametrize("chunk", list(CHUNKS), ids=[f"{n}-chunks" for n in CHUNKS.values()])
def test_output_and_text_stdout_match_one_process(chunk, out_format, tmp_path, monkeypatch,
                                                  forks):
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    argv = ["sweep", *GRID, "--format", out_format]
    expected = one_process(monkeypatch, tmp_path, argv)
    assert forks == []
    assert expected.count(b"\n" if out_format == "csv" else b"}") == N_ROWS + (out_format == "csv")
    out = tmp_path / "sweep.out"
    assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == expected
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert cli.main(argv) == cli.EXIT_OK
    assert sys.stdout.getvalue() == expected.decode("ascii")
    assert len(forks) == (0 if CHUNKS[chunk] == 1 else 2)
    no_child_left()


@pytest.mark.parametrize("out_format", ["csv", "json"])
@pytest.mark.parametrize("chunk", [5_000, 1_100], ids=["2-chunks", "9-chunks"])
def test_stdout_matches_one_process(chunk, out_format, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    argv = ["sweep", *GRID, "--format", out_format]
    expected = one_process(monkeypatch, tmp_path, argv)
    script = ("import sys; from chebbounds import cli; "
              "cli.CSV_CHUNK_ROWS = int(sys.argv.pop(1)); cli.run()")
    proc = subprocess.run(**fresh(["-c", script, str(chunk), *argv]), capture_output=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, b"")
    assert proc.stdout == expected


def test_failing_worker_fails_the_sweep_once(tmp_path, monkeypatch, capsys, forks):
    parent, sweep_rows = os.getpid(), cli.sweep_rows

    def rows(*args):
        if os.getpid() != parent:
            raise RuntimeError("no rows here")
        return sweep_rows(*args)

    monkeypatch.setattr(cli, "sweep_rows", rows)
    code = cli.main(["sweep", *GRID, "--output", str(tmp_path / "sweep.csv")])
    with open(tmp_path / "marker", "a") as fh:
        fh.write(f"{os.getpid()}\n")
    assert (tmp_path / "marker").read_text() == f"{parent}\n"
    assert code == cli.EXIT_IO and len(forks) == 1
    err = capsys.readouterr().err
    assert err == "error: the sweep's worker failed: RuntimeError: no rows here\n"
    no_child_left()


def test_worker_that_ends_early_fails_the_sweep(tmp_path, monkeypatch, capsys, forks):
    parent, sweep_rows = os.getpid(), cli.sweep_rows

    def rows(*args):
        if os.getpid() != parent:
            os._exit(0)
        return sweep_rows(*args)

    monkeypatch.setattr(cli, "sweep_rows", rows)
    assert cli.main(["sweep", *GRID, "--output", str(tmp_path / "sweep.csv")]) == cli.EXIT_IO
    assert capsys.readouterr().err == "error: the sweep's worker ended early\n"
    assert len(forks) == 1
    no_child_left()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_exits_3(capsys, monkeypatch, forks):
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 1_000)
    assert cli.main(["sweep", *GRID, "--output", "/dev/full"]) == cli.EXIT_IO
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert len(forks) == 1
    no_child_left()


def test_interrupt_leaves_no_worker(tmp_path, monkeypatch, forks):
    parent, sweep_rows, calls = os.getpid(), cli.sweep_rows, []

    def rows(*args):
        if os.getpid() == parent and len(calls) == 2:
            raise KeyboardInterrupt
        calls.append(args)
        return sweep_rows(*args)

    monkeypatch.setattr(cli, "sweep_rows", rows)
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 1_000)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["sweep", *GRID, "--output", str(tmp_path / "sweep.csv")])
    assert len(forks) == 1
    no_child_left()


def test_caller_that_ignores_sigchld(tmp_path, monkeypatch, forks):
    # its children are reaped as they end: nothing is left for main to kill or reap,
    # since the worker has sent its last chunk while this process renders the last
    parent, sweep_rows = os.getpid(), cli.sweep_rows

    def rows(axes, start, stop, *args):
        if os.getpid() == parent and stop == N_ROWS:
            time.sleep(0.2)
        return sweep_rows(axes, start, stop, *args)

    monkeypatch.setattr(cli, "sweep_rows", rows)
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 1_000)
    argv = ["sweep", *GRID, "--output", str(tmp_path / "sweep.csv")]
    expected = one_process(monkeypatch, tmp_path, argv[:-2])
    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert cli.main(argv) == cli.EXIT_OK
    finally:
        signal.signal(signal.SIGCHLD, handler)
    assert (tmp_path / "sweep.csv").read_bytes() == expected
    assert len(forks) == 1
    no_child_left()


# Linux keeps the largest resident set a process had before its exec, and a
# spawned child starts in its parent's memory: so a small launcher, not this
# process, spawns the sweep and reports the ru_maxrss that wait4 gives it
LAUNCHER = ("import os, subprocess, sys\n"
            "proc = subprocess.Popen(sys.argv[1:])\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "proc.returncode = os.waitstatus_to_exitcode(status)\n"
            "print(proc.returncode, usage.ru_maxrss)\n")


def _max_rss_kib(argv, out) -> int:
    """ru_maxrss of a fresh sweep process and, reaped within it, its worker."""
    sweep = fresh(["-m", "chebbounds.cli", *argv, "--output", str(out)])
    proc = subprocess.run(**dict(sweep, args=[sys.executable, "-c", LAUNCHER, *sweep["args"]]),
                          capture_output=True, text=True, timeout=120)
    code, max_rss = map(int, proc.stdout.split())
    assert code == cli.EXIT_OK, proc.stderr
    return max_rss


def test_sweep_resident_set_does_not_grow_with_the_rows(tmp_path):
    def argv(n_lambda):          # 5,000 rows a lambda value: 10 and 79 chunks
        return ["sweep", "--lambda", f"1:3:{n_lambda}", "--mu", "0:2:20", "--delta", "0:1:10",
                "--t", "0.55:0.95:25", "--eta", "0", "--eta", "1", "--eta", "2"]

    small = _max_rss_kib(argv(8), tmp_path / "small.csv")
    large = _max_rss_kib(argv(64), tmp_path / "large.csv")
    assert (tmp_path / "large.csv").stat().st_size > 50e6
    assert large < 1.1 * small, (small, large)
