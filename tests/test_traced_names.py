"""The benchmark's traced run wraps program functions by looking them up
by name (``WRAPS`` in perfbench/layers.py).  Every such name must still
resolve, so that a rename fails here rather than in the benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = [(module, attr) for module, attr, *_ in layers.WRAPS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing


def test_traced_sweep_writes_the_same_bytes(monkeypatch, tmp_path):
    # the traced run also replaces cli.open, which must then open only the output
    # file: the forked worker's pipe is not a file that the trace may time
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers, spans = importlib.import_module("layers"), importlib.import_module("spans")
    from chebbounds import cli
    argv = ["sweep", "--lambda", "1:3:25", "--mu", "0:1:3", "--delta", "0:0.5:3",
            "--t", "0.55:0.95:41", "--eta", "0", "--eta", "1", "--eta", "2.5"]
    assert cli.main([*argv, "--output", str(tmp_path / "plain.csv")]) == cli.EXIT_OK
    for module, attr, *_ in layers.WRAPS:          # each restored after the test
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    monkeypatch.setattr(cli, "sweep_verify", cli.sweep_verify)
    monkeypatch.setattr(cli, "open", open, raising=False)
    tracer = spans.Tracer(0)
    layers.install(tracer, [])
    assert cli.main([*argv, "--output", str(tmp_path / "traced.csv")]) == cli.EXIT_OK
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert [s.name for s in tracer.spans].count("cli.write") == 1
