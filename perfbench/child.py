"""Runs inside a fresh interpreter started by run.py, with src/ on the path.

    child.py run REPORT TRACE REQUEST -- CLI-ARGS...
        runs chebbounds.cli.main(CLI-ARGS) and writes REPORT (JSON): the
        exit code, the oracle results cli received, and with TRACE=1 the
        spans of every wrapped call.
    child.py probe SPEC REPORT
        runs the oracle's sweep_verify at the points in SPEC (JSON) and
        writes the oracle results to REPORT.
"""

from __future__ import annotations

import json
import sys

import layers
from spans import Tracer


def _run(report: str, trace: bool, request: int, argv: list[str]) -> int:
    tracer = Tracer(request) if trace else None
    captured: list = []
    layers.install(tracer, captured)
    from chebbounds import cli

    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    try:
        code = main(argv)
    finally:
        sys.stdout.flush()
    out = {"code": code, "oracle": layers.oracle_summary(captured)}
    if tracer is not None:
        out.update(tracer.to_json())
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


def _probe(spec_path: str, report: str) -> int:
    from chebbounds.classop import ClassParams
    from chebbounds.oracle import OracleConfig, sweep_verify

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cfg = OracleConfig(n_samples=spec["samples"], seed=spec["seed"])
    results = []
    for lam, mu, delta, t, etas in spec["points"]:
        results += sweep_verify([ClassParams(lam, mu, delta, t)], etas, cfg)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"oracle": layers.oracle_summary(results)}, fh)
    return 0


def main(args: list[str]) -> int:
    if args[0] == "run":
        report, trace, request, sep, *argv = args[1:]
        if sep != "--":
            raise SystemExit("usage: child.py run REPORT TRACE REQUEST -- CLI-ARGS...")
        return _run(report, trace == "1", int(request), argv)
    if args[0] == "probe":
        return _probe(args[1], args[2])
    raise SystemExit(f"unknown mode {args[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
