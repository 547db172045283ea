"""Network-gateway soak benchmark (``BENCH_net.json`` generator).

Standalone runner over :func:`repro.net.soak.run_net_soak`::

    PYTHONPATH=src python benchmarks/bench_net.py -o BENCH_net.json

Drives the diurnal-traffic soak — concurrent tenants over real TCP, a
quota-starved free tier, a mid-peak worker crash, SLO-driven
autoscaling — and writes the full report document, provenance header
included (``bench: "net"``), so ``repro perf-gate`` can later re-run
the identical configuration from the committed file and compare the
``net-gateway`` frames/s.  Exit code 0 requires zero bit mismatches
against ``decode_many`` and a passing final SLO report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "src"),
)

from repro.net.soak import SoakConfig, run_net_soak  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--connections", type=int, default=60,
        help="concurrent client connections",
    )
    parser.add_argument(
        "--frames", type=int, default=6,
        help="frames per connection during the peak phase",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace", action="store_true",
        help="record wire-level trace propagation (the "
             "BENCH_net_trace.json variant; mode becomes "
             "net-gateway-traced)",
    )
    parser.add_argument(
        "--output", "-o", default="",
        help="write the BENCH_net.json document here (default: stdout)",
    )
    args = parser.parse_args(argv)

    cfg = SoakConfig(
        connections=args.connections,
        peak_frames_per_conn=args.frames,
        seed=args.seed,
        trace=args.trace,
    )
    doc = run_net_soak(
        cfg, progress=lambda msg: print(f"bench_net: {msg}", file=sys.stderr)
    )
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"bench_net: wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    ok = (
        doc["verify"]["mismatches"] == 0
        and (doc["slo"] or {}).get("status") == "pass"
    )
    if doc.get("trace_verify") is not None:
        ok = ok and doc["trace_verify"]["ok"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
