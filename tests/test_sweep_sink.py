"""Where the sweep's bytes go.  Both renderers return bytes; ``--output``
is a binary file, and standard output is written through its binary buffer,
or as text where it has none.  Every route carries the same bytes.  Both
formats render every full chunk into one field matrix per sweep."""

import io
import subprocess
import sys

import numpy as np
import pytest
from test_process_exit import fresh

from chebbounds import cli, render

# 25 x 3 x 3 x 41 = 9225 rows: three chunks at the default CSV_CHUNK_ROWS
GRID = ["--lambda", "1:3:25", "--mu", "0:1:3", "--delta", "0:0.5:3", "--t", "0.55:0.95:41",
        "--eta", "0", "--eta", "1", "--eta", "2.5"]
N_ROWS = 9225


def _file_bytes(tmp_path, argv) -> bytes:
    out = tmp_path / "sweep.out"
    assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
    return out.read_bytes()


def _module_stdout(argv, unbuffered: bool) -> bytes:
    proc = subprocess.run(**fresh(["-m", "chebbounds.cli", *argv], unbuffered=unbuffered),
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, b"")
    return proc.stdout


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_stdout_equals_the_output_file(out_format, unbuffered, tmp_path, capsys):
    argv = ["sweep", *GRID, "--format", out_format]
    expected = _file_bytes(tmp_path, argv)
    assert capsys.readouterr() == ("", "")
    assert _module_stdout(argv, unbuffered) == expected


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_text_stdout_gets_the_same_text(out_format, tmp_path, monkeypatch):
    # a library caller's sys.stdout without a binary buffer
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 1000)
    argv = ["sweep", *GRID, "--format", out_format]
    expected = _file_bytes(tmp_path, argv).decode("ascii")
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert cli.main(argv) == cli.EXIT_OK
    assert sys.stdout.getvalue() == expected


def test_sweep_with_stdout_closed():
    # with descriptor 1 closed, sys.stdout is None: the sweep writes nothing, as print does
    kwargs = fresh(["-m", "chebbounds.cli", "sweep", *GRID])
    kwargs["args"] = ["sh", "-c", 'exec "$@" >&-', "sh", *kwargs["args"]]
    proc = subprocess.run(**kwargs, stderr=subprocess.PIPE, timeout=60)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, b"")


@pytest.mark.parametrize("chunk, builds", [(1000, 2), (225, 1), (100_000, 1)],
                         ids=["short-last-chunk", "whole-chunks", "one-chunk"])
def test_one_field_matrix_per_sweep(chunk, builds, tmp_path, monkeypatch):
    # 9225 rows: 9 full chunks of 1000 rows and one of 225, 41 of 225, or one chunk
    field_matrix = render._field_matrix
    for out_format in ("csv", "json"):
        sizes = []

        def counted(rows, header, out_format):
            sizes.append(rows)
            return field_matrix(rows, header, out_format)

        argv = ["sweep", *GRID, "--format", out_format]
        expected = _file_bytes(tmp_path, argv)
        with monkeypatch.context() as patch:
            patch.setattr(render, "_field_matrix", counted)
            patch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
            assert _file_bytes(tmp_path, argv) == expected
        # three etas: a chunk is CSV_CHUNK_ROWS rows
        assert sizes == [min(chunk, N_ROWS), N_ROWS % chunk][:builds], out_format


def test_render_csv_overwrites_every_field():
    # one matrix, a chunk of wide fields and then a chunk of narrow ones
    wide = [np.array([-1.23456789012e-308, 1e300]), np.array([True, False])]
    narrow = [np.array([0.0, 1.0]), np.array([False, True])]
    buf = render._field_matrix(2, ["a", "b"], "csv")
    assert cli.render_csv(["a", "b"], wide, buf) == b"-1.23456789012e-308,true\n1e+300,false\n"
    assert cli.render_csv(["a", "b"], narrow, buf) == b"0,false\n1,true\n"
    buf = render._field_matrix(2, ["a", "b"], "json")
    item = b'  {\n    "a": %s,\n    "b": %s\n  },\n'
    assert cli.render_json(["a", "b"], wide, buf) == (item % (b"-1.23456789012e-308", b"true")
                                                      + item % (b"1e+300", b"false"))
    assert cli.render_json(["a", "b"], narrow, buf) == (item % (b"0.0", b"false")
                                                        + item % (b"1.0", b"true"))
