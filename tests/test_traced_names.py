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
