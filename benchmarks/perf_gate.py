"""Benchmark regression gate runner (CI entry point).

Thin wrapper over :mod:`repro.obs.perfgate` so the gate can run without
an installed CLI::

    PYTHONPATH=src python benchmarks/perf_gate.py \
        --baseline BENCH_accel.json --baseline BENCH_serve.json \
        --history BENCH_history.jsonl

Re-runs each committed ``BENCH_*.json`` baseline with its own embedded
configuration (median of ``--k`` runs), fails when any mode's
throughput drops more than ``--tolerance`` below the committed number,
and appends one JSON line per baseline to the history file.  Exit code
0 = no regression, 1 = regression, 2 = bad usage.  Equivalent to
``python -m repro perf-gate``; see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "src"),
)

from repro.obs.perfgate import (  # noqa: E402
    DEFAULT_K,
    DEFAULT_TOLERANCE,
    PerfGateError,
    run_perf_gate,
)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline", action="append", default=[],
        help="bench JSON baseline to gate (repeatable; default: the "
             "committed BENCH_*.json documents)",
    )
    parser.add_argument("--k", type=int, default=DEFAULT_K,
                        help="re-runs per baseline (median compared)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed relative slowdown (0.30 = 30%%)")
    parser.add_argument(
        "--modes", nargs="*", default=None,
        help="restrict the gate to these mode names",
    )
    parser.add_argument(
        "--history", default=os.path.join(_REPO_ROOT, "BENCH_history.jsonl"),
        help="bench history JSONL to append to ('' disables)",
    )
    args = parser.parse_args(argv)

    baselines = args.baseline or [
        os.path.join(_REPO_ROOT, name)
        for name in (
            "BENCH_accel.json", "BENCH_serve.json", "BENCH_net.json",
            "BENCH_net_trace.json", "BENCH_zoo.json", "BENCH_zoo_column.json",
        )
        if os.path.exists(os.path.join(_REPO_ROOT, name))
    ]
    if not baselines:
        print("perf_gate: no baselines found", file=sys.stderr)
        return 2
    try:
        report = run_perf_gate(
            baselines,
            k=args.k,
            tolerance=args.tolerance,
            modes=args.modes,
            history_path=args.history or None,
        )
    except PerfGateError as exc:
        print(f"perf_gate: {exc}", file=sys.stderr)
        return 2
    print(report.report())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
