import pytest

from run import parse_importtime
from spans import Span, Tracer, covered, self_times


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 7),
        Span(1, "a", 1.0, 3.0, 0, 7),
        Span(2, "b", 2.0, 5.0, 0, 7),      # overlaps a: the union [1, 5] counts once
        Span(3, "c", 8.0, 12.0, 0, 7),     # clipped to the parent's end
        Span(4, "leaf", 1.5, 2.5, 1, 7),
    ]
    aggs = [(0, "many", 40, 0.5), (1, "many", 3, 0.25)]
    selfs = self_times(spans, aggs)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0 - 0.5)
    assert selfs[1] == pytest.approx(2.0 - 1.0 - 0.25)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_covered_ignores_intervals_outside_the_span():
    assert covered(0.0, 1.0, [(2.0, 3.0), (-1.0, -0.5)]) == 0.0
    assert covered(0.0, 4.0, [(0.5, 1.0), (0.0, 2.0), (1.5, 3.0)]) == pytest.approx(3.0)


def test_tracer_nests_spans_and_aggregates_leaves():
    tracer = Tracer(request=3)
    leaf = tracer.wrap("leaf", lambda x: x + 1, aggregate=True)
    inner = tracer.wrap("inner", lambda: leaf(1))
    hidden = tracer.wrap("hidden", lambda: inner())      # called inside an aggregate
    outer = tracer.wrap("outer", lambda: [inner(), leaf(2), tracer.wrap("agg", hidden, True)()])
    assert outer() == [2, 3, 2]
    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"outer", "inner"}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert all(s.request == 3 for s in tracer.spans)
    counts = {key: entry[0] for key, entry in tracer.aggs.items()}
    assert counts == {
        (by_name["inner"].id, "leaf"): 1,
        (by_name["outer"].id, "leaf"): 1,
        (by_name["outer"].id, "agg"): 1,
    }


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:       200 |        300 | site",
        "import time:       900 |      90000 |     numpy",
        "import time:       500 |     120000 | chebbounds",
        "import time:       400 |        400 |   chebbounds.bounds",
        "import time:      7000 |       7000 | chebbounds.cli",
    ])
    total, numpy_s = parse_importtime(stderr)
    assert total == pytest.approx(0.127)
    assert numpy_s == pytest.approx(0.09)


class _FakeRunner:
    """Calibration probes that take 0.2 s, then 0.4 s, then 0.6 s, ..."""

    def __init__(self):
        self.calls = 0

    def python(self, *args):
        from run import Outcome

        self.calls += 1
        return Outcome(wall=0.2 * self.calls, code=0, rss_mb=1.0, stdout="", stderr="")


def test_clock_scales_each_sample_by_the_probes_around_it(monkeypatch):
    import run

    monkeypatch.setattr(run, "REFERENCE_CALIBRATION_S", 0.3)
    monkeypatch.setattr(run, "CALIBRATE_EVERY_S", 1.0)
    clock = run.Clock(_FakeRunner())                 # probe 0.2
    first = clock.sample(0.5, 0.5)                   # no probe yet
    second = clock.sample(0.7, 0.7)                  # 1.2 s elapsed: probe 0.4
    third = clock.sample(2.0, 2.0)                   # probe 0.6
    scaled = clock.scaled()                          # nothing pending: no probe
    assert clock.probes == pytest.approx([0.2, 0.4, 0.6])
    assert scaled[first] == pytest.approx(0.5 * 0.3 / 0.3)
    assert scaled[second] == pytest.approx(0.7 * 0.3 / 0.3)
    assert scaled[third] == pytest.approx(2.0 * 0.3 / 0.5)


def test_per_layer_metrics_match_benchmark_json():
    import json
    from pathlib import Path

    import layers

    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER
