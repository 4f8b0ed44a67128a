"""Which program calls the traced run wraps, and the per-layer metrics.

Names are wrapped where the caller looks them up: `cli` imports its
callees by name, and `oracle` imports the closed-form bounds and `cheb_u`
by name and looks up `empirical_sup` as a module global.  Replacing the
attribute on the calling module therefore intercepts every such call
without touching the program's files.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter

from spans import Span, Tracer, self_times

# (calling module, attribute, span name, aggregated)
WRAPS = (
    ("chebbounds.cli", "grid_points", "cli.grid", False),
    ("chebbounds.cli", "sweep_rows", "cli.rows", False),
    ("chebbounds.cli", "render_csv", "cli.render", False),
    ("chebbounds.cli", "render_json", "cli.render", False),
    ("chebbounds.cli", "ClassParams", "classop.params", True),
    ("chebbounds.cli", "bound_report", "bounds.report", True),
    ("chebbounds.cli", "fekete_szego_bound", "bounds.fs", True),
    ("chebbounds.cli", "reduction_check", "bounds.reduction", False),
    ("chebbounds.cli", "sweep_verify", "oracle.sweep", False),
    ("chebbounds.cli", "cheb_u", "chebyshev", True),
    ("chebbounds.cli", "gen_fun_coeffs", "chebyshev", True),
    ("chebbounds.cli", "invert_compositional", "powerseries.invert", True),
    ("chebbounds.oracle", "empirical_sup", "oracle.sup", False),
    ("chebbounds.oracle", "bound_a2", "bounds.a2", True),
    ("chebbounds.oracle", "bound_a3", "bounds.a3", True),
    ("chebbounds.oracle", "fekete_szego_bound", "bounds.fs", True),
    ("chebbounds.oracle", "cheb_u", "chebyshev", True),
)

# name -> unit, in the order of BENCHMARK.json
PER_LAYER = {
    "import.total_s": "s",
    "import.numpy_s": "s",
    "cli.main_self_s": "s",
    "cli.grid_s": "s",
    "cli.rows_self_s": "s",
    "cli.render_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "classop.params_built": "count",
    "classop.params_s": "s",
    "bounds.report_calls": "count",
    "bounds.report_s": "s",
    "bounds.fs_calls": "count",
    "bounds.fs_s": "s",
    "bounds.reduction_s": "s",
    "oracle.sup_calls": "count",
    "oracle.sup_s": "s",
    "oracle.self_s": "s",
    "oracle.samples_evaluated": "count",
    "oracle.infeasible": "count",
    "oracle.feasible_ratio": "ratio",
    "oracle.skipped": "count",
    "oracle.us_per_sample": "us",
    "powerseries.invert_calls": "count",
    "powerseries.s": "s",
    "chebyshev.calls": "count",
    "chebyshev.s": "s",
    "machine.calibration_s": "s",
    "trace.overhead_pct": "%",
}


class _TimedFile:
    """File handle whose open-to-close interval is recorded as `cli.write`."""

    def __init__(self, tracer: Tracer, fh) -> None:
        self._tracer, self._fh, self._start = tracer, fh, perf_counter()

    def write(self, text):
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        self._tracer.record("cli.write", self._start, perf_counter())
        return False


def install(tracer: Tracer | None, captured: list) -> None:
    """Wrap the program's calls.  With no tracer, only capture the oracle
    results that `cli` receives from `sweep_verify`."""
    cli = importlib.import_module("chebbounds.cli")
    sweep_verify = cli.sweep_verify

    def capturing(*args, **kwargs):
        results = sweep_verify(*args, **kwargs)
        captured.extend(results)
        return results

    cli.sweep_verify = capturing
    if tracer is None:
        return
    for module, attr, name, aggregate in WRAPS:
        mod = importlib.import_module(module)
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), aggregate))
    cli.open = lambda *a, **k: _TimedFile(tracer, open(*a, **k))


def oracle_summary(results) -> list[list]:
    """[verdict, sup, bound, n_samples, n_infeasible] per OracleResult."""
    return [
        [r.verdict, r.sup_value, r.closed_form_bound, r.n_samples, r.n_infeasible]
        for r in results
    ]


def tightness_median(summary) -> float:
    """Median sup/bound over the checked (not skipped) oracle results."""
    ratios = [sup / bound for verdict, sup, bound, _, _ in summary if verdict != "skipped"]
    return statistics.median(ratios) if ratios else 0.0


def invocation_metrics(spans: list[Span], aggs, oracle) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (import, output size and
    overhead are measured by the caller)."""
    selfs = self_times(spans, aggs)

    def dur(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def self_of(name):
        return sum(selfs[s.id] for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def agg(*names):
        rows = [(c, b) for _parent, n, c, b in aggs if n in names]
        return sum(c for c, _ in rows), sum(b for _, b in rows)

    params_n, params_s = agg("classop.params")
    report_n, report_s = agg("bounds.report")
    fs_n, fs_s = agg("bounds.fs")
    invert_n, invert_s = agg("powerseries.invert")
    cheb_n, cheb_s = agg("chebyshev")
    samples = sum(row[3] for row in oracle)
    infeasible = sum(row[4] for row in oracle)
    return {
        "cli.main_self_s": self_of("cli.main"),
        "cli.grid_s": dur("cli.grid"),
        "cli.rows_self_s": self_of("cli.rows"),
        "cli.render_s": dur("cli.render"),
        "cli.write_s": dur("cli.write"),
        "classop.params_built": params_n,
        "classop.params_s": params_s,
        "bounds.report_calls": report_n,
        "bounds.report_s": report_s,
        "bounds.fs_calls": fs_n,
        "bounds.fs_s": fs_s,
        "bounds.reduction_s": dur("bounds.reduction"),
        "oracle.sup_calls": count("oracle.sup"),
        "oracle.sup_s": dur("oracle.sup"),
        "oracle.self_s": self_of("oracle.sup"),
        "oracle.samples_evaluated": samples,
        "oracle.infeasible": infeasible,
        "oracle.feasible_ratio": (samples - infeasible) / samples if samples else 0.0,
        "oracle.skipped": sum(1 for row in oracle if row[0] == "skipped"),
        "oracle.us_per_sample": 1e6 * dur("oracle.sup") / samples if samples else 0.0,
        "powerseries.invert_calls": invert_n,
        "powerseries.s": invert_s,
        "chebyshev.calls": cheb_n,
        "chebyshev.s": cheb_s,
    }
