"""The console script runs without the cyclic garbage collector.

``cli.run`` calls ``gc.disable()`` before ``main``, and the process ends
without a collection.  That is safe because no command makes reference
cycles per point or per chunk: with the collector off, a collection after
``main(argv)`` finds as much garbage (argparse's parser) for a sweep of one
chunk as for one of many, and for the default verify grid as for the
full-system one.  ``main`` itself leaves the collector as it found it.
"""

import gc
import os
import sys

import pytest

from chebbounds import cli

POINT = ["--lambda", "1", "--mu", "1", "--delta", "0", "--t", "0.6"]
ETAS = ["--eta", "0", "--eta", "1", "--eta", "2"]
ONE_CHUNK = ["sweep", "--lambda", "1:2:2", "--mu", "0", "--delta", "0", "--t", "0.6", *ETAS]
# 41,000 rows of 12 fields: 11 chunks of CSV_CHUNK_ROWS rows
MANY_CHUNKS = ["sweep", "--lambda", "1:3:41", "--mu", "0:2:10", "--delta", "0:1:10",
               "--t", "0.6:0.9:10", *ETAS]
VERIFY = ["verify", "--seed", "5"]
# the benchmark's full-system grid: 1,125 points
VERIFY_FULL = ["verify", "--seed", "5", "--mode", "full-system", "--samples", "1000",
               "--lambda", "1:3:5", "--mu", "0:2:5", "--delta", "0:1:5", "--t", "0.55:0.95:9"]


def garbage(argv) -> int:
    """The objects that a collection finds after main(argv), run with the
    collector off, as run() runs it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert cli.main(argv) == cli.EXIT_OK
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_sweep_garbage_does_not_grow_with_its_chunks(tmp_path, capsys):
    assert 41_000 > 10 * cli.CSV_CHUNK_ROWS
    output = ["--output", str(tmp_path / "sweep.csv")]
    garbage([*ONE_CHUNK, *output])              # the first sweep imports the renderer
    assert garbage([*ONE_CHUNK, *output]) == garbage([*MANY_CHUNKS, *output])
    with open(tmp_path / "sweep.csv", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 41_001


def test_verify_garbage_does_not_grow_with_its_grid(capsys):
    garbage(VERIFY)                             # the first verify imports its suites
    assert garbage(VERIFY) == garbage(VERIFY_FULL)
    assert "1125 points x 5 quantities" in capsys.readouterr().out


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(capsys, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(["bound", *POINT]) == cli.EXIT_OK
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


def test_run_turns_the_collector_off_before_main(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or cli.EXIT_OK)
    monkeypatch.setattr(os, "_exit", lambda status: seen.append(("_exit", status)))
    monkeypatch.setattr(sys, "argv", ["chebbounds"])
    try:
        cli.run()
    finally:
        gc.enable()
    assert seen == [False, ("_exit", cli.EXIT_OK)]
