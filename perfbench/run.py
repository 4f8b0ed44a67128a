"""End-to-end and per-layer benchmark of the `chebbounds` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from src/.
One client runs one `chebbounds` invocation at a time, each in a fresh
interpreter (a closed loop), until the invocations' wall time adds up to S
seconds.  Every output is checked against perfbench/reference.py outside
the timed region.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; --trace 1 alternates plain and
traced invocations and reports the per-layer metrics, including the
tracing overhead.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import reference
import workloads
from spans import spans_from_json

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 5
CALL_TIMEOUT_S = 120.0
# stop starting invocations once the loop has run this long past --seconds
LOOP_GRACE_S = 60.0
# A fixed probe, independent of the program, with the CLI's mix of work:
# interpreter start, numpy import, a bytecode loop, a numpy pass, and
# 100 MB of freshly touched memory (a sweep's resident set).
CALIBRATION = (
    "import numpy as np\n"
    "s = 0\n"
    "for i in range(300_000):\n"
    "    s += i * i\n"
    "np.sqrt(np.abs(np.exp(1j * np.linspace(0.0, 6.28, 400_000)))).sum()\n"
    "np.ones(12_500_000).sum()\n"
)
# about CALIBRATION's spawn-to-exit time on the reference 2-core machine
REFERENCE_CALIBRATION_S = 0.3
CALIBRATE_EVERY_S = 1.0
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import chebbounds.cli as m; "
    "print(time.perf_counter() - t); print(m.__file__)"
)


@dataclass
class Outcome:
    """One finished child process."""

    wall: float                # spawn to exit, seconds
    code: int
    rss_mb: float              # peak resident set of the child
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # call arguments -> (stdout, output file) already found correct
    verified: dict = field(default_factory=dict)

    def check(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failures.append(f"{what}: {'; '.join(errors)}")

    def output_errors(self, call: workloads.Call, res: "Outcome", output: str | None) -> list[str]:
        """check_call, skipped when the output repeats one already checked
        byte for byte (a sweep repeats its grid on every invocation)."""
        if res.code == 0 and self.verified.get(call.argv) == (res.stdout, output):
            return []
        errors = check_call(call, res, output)
        if not errors:
            self.verified[call.argv] = (res.stdout, output)
        return errors


class Runner:
    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, cmd: list[str]) -> Outcome:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            wall=wall,
            code=proc.returncode,
            rss_mb=usage.ru_maxrss / 1024.0,      # ru_maxrss is in KiB on Linux
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def python(self, *args: str) -> Outcome:
        return self.spawn([sys.executable, *args])


# ---------------------------------------------------------------------------
# set-up: cold import of chebbounds.cli


def import_seconds(runner: Runner) -> tuple[float, float]:
    """(in-process time of `import chebbounds.cli`, spawn-to-exit time) in
    a fresh interpreter."""
    res = runner.python("-c", IMPORT_SNIPPET)
    lines = res.stdout.split()
    if res.code != 0 or len(lines) != 2:
        raise SystemExit(f"perfbench: cannot import chebbounds.cli: {res.stderr[-300:]}")
    if Path(lines[1]).resolve() != SRC / "chebbounds" / "cli.py":
        raise SystemExit(f"perfbench: imported {lines[1]}, not the checkout's {SRC}")
    return float(lines[0]), res.wall


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(chebbounds total, numpy) cumulative seconds from `-X importtime`."""
    total = numpy_s = 0.0
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1]) * 1e-6
        except ValueError:
            continue                            # the column header
        name = parts[2][1:]
        if name.startswith("chebbounds"):       # top level: not indented
            total += cumulative
        if name.strip() == "numpy":
            numpy_s += cumulative
    return total, numpy_s


def import_breakdown(runner: Runner) -> dict[str, float]:
    totals, numpys = [], []
    for _ in range(IMPORTTIME_REPEATS):
        res = runner.python("-X", "importtime", "-c", "import chebbounds.cli")
        total, numpy_s = parse_importtime(res.stderr)
        totals.append(total)
        numpys.append(numpy_s)
    return {"import.total_s": statistics.median(totals), "import.numpy_s": statistics.median(numpys)}


# ---------------------------------------------------------------------------
# invocations


def output_path(runner: Runner, call: workloads.Call) -> Path | None:
    return runner.work / "sweep.csv" if call.argv[0] == "sweep" else None


def cli_args(runner: Runner, call: workloads.Call) -> list[str]:
    out = output_path(runner, call)
    return list(call.argv) + (["--output", str(out)] if out else [])


def check_call(call: workloads.Call, res: Outcome, output: str | None) -> list[str]:
    if res.code != 0:
        return [f"exit code {res.code}: {res.stderr.strip()[-300:]}"]
    kind, expect = call.argv[0], call.expect
    if kind == "bound":
        return reference.check_bound(res.stdout, expect["point"], expect["etas"])
    if kind == "sweep":
        extra = ["unexpected standard output"] if res.stdout else []
        return extra + reference.check_sweep_csv(output or "", expect["ranges"], expect["etas"])
    return reference.check_verify(res.stdout, expect["mode"], expect["ranges"], expect["etas"])


def read_output(runner: Runner, call: workloads.Call) -> str | None:
    path = output_path(runner, call)
    if path is None or not path.exists():
        return None
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return text


def plain(runner: Runner, call: workloads.Call, tally: Tally) -> Outcome:
    res = runner.python("-m", "chebbounds.cli", *cli_args(runner, call))
    tally.check(call.argv[0], tally.output_errors(call, res, read_output(runner, call)))
    return res


def in_child(runner: Runner, call: workloads.Call, trace: bool, request: int, tally: Tally):
    """Run the call through child.py; returns (outcome, report, output bytes)."""
    report_path = runner.work / "report.json"
    report_path.unlink(missing_ok=True)
    res = runner.python(str(CHILD), "run", str(report_path), "1" if trace else "0",
                        str(request), "--", *cli_args(runner, call))
    output = read_output(runner, call)
    errors = tally.output_errors(call, res, output)
    report = None
    if not errors:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        errors = violations(report["oracle"])
    tally.check(f"{call.argv[0]} ({'traced' if trace else 'captured'})", errors)
    size = len(res.stdout.encode()) + (len(output.encode()) if output else 0)
    return res, (report if not errors else None), size


def violations(summary) -> list[str]:
    return [f"oracle violation: sup {sup} > bound {bound}"
            for verdict, sup, bound, _, _ in summary if verdict == "violation"]


def tightness(runner: Runner, wl: workloads.Workload, tally: Tally) -> float:
    """Median oracle sup/bound: from the results cli's sweep_verify returns,
    or, for workloads that run no oracle, from the oracle at sample points."""
    if wl.probe is None:
        _, report, _ = in_child(runner, wl.calls[0], False, 0, tally)
        return layers.tightness_median(report["oracle"]) if report else 0.0
    spec, report_path = runner.work / "probe.json", runner.work / "report.json"
    spec.write_text(json.dumps(wl.probe), encoding="utf-8")
    res = runner.python(str(CHILD), "probe", str(spec), str(report_path))
    errors = [f"probe exit code {res.code}: {res.stderr.strip()[-300:]}"] if res.code else []
    summary = [] if errors else json.loads(report_path.read_text(encoding="utf-8"))["oracle"]
    errors += violations(summary)
    tally.check("oracle probe", errors)
    return layers.tightness_median(summary) if not errors else 0.0


def closed_loop(wl: workloads.Workload, seconds: float, step) -> None:
    """Call step(call, i) in turn until the invocation wall time step
    returns adds up to `seconds`."""
    busy, i = 0.0, 0
    deadline = perf_counter() + seconds + LOOP_GRACE_S
    while busy < seconds and perf_counter() < deadline:
        busy += step(wl.calls[i % len(wl.calls)], i)
        i += 1


class Clock:
    """Scales times to the reference machine speed.

    On a shared machine the speed of the same work drifts by tens of
    percent over minutes.  A calibration probe, which is independent of
    the program, runs at the start and after every CALIBRATE_EVERY_S of
    elapsed work.  Each sample is multiplied by REFERENCE_CALIBRATION_S
    over the mean of the probes just before and just after it.
    """

    def __init__(self, runner: Runner) -> None:
        self.runner = runner
        self.probes: list[float] = []
        self._samples: list[tuple[float, int]] = []   # (seconds, probes before it)
        self._since = 0.0
        self._probe()

    def _probe(self) -> None:
        res = self.runner.python("-c", CALIBRATION)
        if res.code != 0:
            raise SystemExit(f"perfbench: calibration probe failed: {res.stderr[-300:]}")
        self.probes.append(res.wall)
        self._since = 0.0

    def elapsed(self, seconds: float) -> None:
        self._since += seconds
        if self._since >= CALIBRATE_EVERY_S:
            self._probe()

    def sample(self, seconds: float, elapsed: float) -> int:
        """Record a timed sample taken in `elapsed` wall time; returns its index."""
        self._samples.append((seconds, len(self.probes)))
        self.elapsed(elapsed)
        return len(self._samples) - 1

    def scaled(self) -> list[float]:
        """Every sample, scaled, in the order taken."""
        if self._since > 0.0:
            self._probe()
        return [
            seconds * 2.0 * REFERENCE_CALIBRATION_S / (self.probes[n - 1] + self.probes[n])
            for seconds, n in self._samples
        ]


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(runner: Runner, wl: workloads.Workload, seconds: float, tally: Tally) -> dict:
    import_seconds(runner)                  # fills the bytecode cache
    clock = Clock(runner)
    setup: list[int] = []                   # clock sample indices
    samples: list[tuple[workloads.Call, Outcome, int]] = []

    def probe_setup():
        imported, wall = import_seconds(runner)
        setup.append(clock.sample(imported, wall))

    def step(call, _i):
        res = plain(runner, call, tally)
        samples.append((call, res, clock.sample(res.wall, res.wall)))
        # spread the set-up probes over the run, like the invocations
        busy = sum(r.wall for _, r, _ in samples)
        while len(setup) < SETUP_REPEATS * min(1.0, busy / seconds):
            probe_setup()
        return res.wall

    closed_loop(wl, seconds, step)
    while len(setup) < SETUP_REPEATS:
        probe_setup()
    scaled = clock.scaled()
    walls = [scaled[i] for _, _, i in samples]
    raw = statistics.median(res.wall for _, res, _ in samples)
    print(f"perfbench: {len(samples)} invocations, raw median {raw:.4f} s, calibration median "
          f"{statistics.median(clock.probes):.4f} s over {len(clock.probes)} probes", file=sys.stderr)
    return {
        "setup_s": (statistics.median(scaled[i] for i in setup), "s"),
        "latency_p50_ms": (1e3 * statistics.median(walls), "ms"),
        "latency_p90_ms": (1e3 * float(np.percentile(walls, 90)), "ms"),
        "rows_per_s": (statistics.median(c.rows / w for (c, _, _), w in zip(samples, walls)), "1/s"),
        "checks_per_s": (statistics.median(c.results / w for (c, _, _), w in zip(samples, walls)), "1/s"),
        "peak_rss_mb": (statistics.median(res.rss_mb for _, res, _ in samples), "MB"),
        "oracle_tightness_median": (tightness(runner, wl, tally), "ratio"),
    }


def per_layer(runner: Runner, wl: workloads.Workload, seconds: float, tally: Tally) -> dict:
    import_seconds(runner)                  # fills the bytecode cache
    clock = Clock(runner)
    plain_walls, traced_walls, per_call = [], [], []

    def step(call, i):
        base = plain(runner, call, tally)
        res, report, size = in_child(runner, call, True, i, tally)
        plain_walls.append(base.wall)
        traced_walls.append(res.wall)
        clock.elapsed(base.wall + res.wall)
        if report is not None:
            spans, aggs = spans_from_json(report)
            metrics = layers.invocation_metrics(spans, aggs, report["oracle"])
            metrics["cli.output_bytes"] = size
            per_call.append(metrics)
        return base.wall + res.wall

    closed_loop(wl, seconds, step)
    values = import_breakdown(runner)
    for name in per_call[0] if per_call else ():
        values[name] = statistics.median(m[name] for m in per_call)
    clock.scaled()
    values["machine.calibration_s"] = statistics.median(clock.probes)
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    return {name: (values.get(name, 0.0), unit) for name, unit in layers.PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "chebbounds" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'chebbounds'} is missing", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed)
        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        metrics = measure(Runner(work), wl, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()             # only when no other run uses it
        except OSError:
            pass
    for failure in tally.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
