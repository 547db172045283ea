"""Measure the benchmark's own noise band and write it as the baseline.

``python3 bench/noise.py [--write bench/baseline.json]`` runs
``bench/run.py`` once per (workload, seed) for seeds 1 to 10, each in a
fresh process as a CI driver would, then reports for every (workload,
end-to-end metric):

* the median and spread of all runs, the spread being the distance
  between the first and third quartile over the median
  (``statistics.quantiles(values, n=4)``);
* the same for seeds 1-5 and 6-10, treated as two independent sets,
  and how much worse the second set's median is than the first's.

A pair whose spread or set shift exceeds its bound in ``BENCHMARK.json``
is marked ``"gated": false`` with its measured spread, rather than
having its bound widened (set-up time is exempt from the spread rule,
not from the shift).  Each workload also records the host slowdown the
speedometer read in every run (``bench/speed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Seeds of the campaign; the first half and the second are the sets.
SEEDS = range(1, 11)


def spread(values: List[float]) -> float:
    """Interquartile range over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if not first:
        return 0.0
    change = (second - first) / first
    return -change if better == "higher" else change


def run_once(workload: str, seed: int) -> Dict[str, Any]:
    """The last stdout line of one run, plus its result document."""
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    prefix = "result document: "
    path = next(l[len(prefix):] for l in lines if l.startswith(prefix))
    with open(path) as handle:
        result["document"] = json.load(handle)
    return result


def summarize(values: List[float], bound: float,
              better: str) -> Dict[str, Any]:
    half = len(values) // 2
    sets = [values[:half], values[half:]]
    medians = [statistics.median(s) for s in sets]
    return {
        "median": statistics.median(values),
        "spread": spread(values),
        "set_medians": medians,
        "set_spreads": [spread(s) for s in sets],
        "set_shift": worse_by(medians[0], medians[1], better),
        "bound": bound,
        "values": values,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/noise.py")
    parser.add_argument("--write", help="write the baseline JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values: Dict[str, Dict[str, List[float]]] = {
        name: {m: [] for m in metrics} for name in names
    }
    slowdowns: Dict[str, List[float]] = {name: [] for name in names}
    started = time.time()
    result: Dict[str, Any] = {}
    for seed in SEEDS:
        for name in names:
            result = run_once(name, seed)
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{name} seed {seed}: incorrect run")
            for metric in metrics:
                values[name][metric].append(
                    result["metrics"][metric]["value"]
                )
            extras = result["document"]["workloads"][name]["extras"]
            slowdowns[name].append(statistics.median(extras["host_slowdowns"]))
            print(f"seed {seed} {name}: " + ", ".join(
                f"{m}={values[name][m][-1]:.4g}" for m in metrics
            ) + f", host slowdown {slowdowns[name][-1]:.3f}", flush=True)
    summary: Dict[str, Dict[str, Any]] = {}
    print(f"\n{'workload':<20} {'metric':<24} {'median':>10} {'spread':>7} "
          f"{'shift':>7} {'bound':>6}  gated")
    for name in names:
        summary[name] = {"host_slowdown": {
            "median": statistics.median(slowdowns[name]),
            "spread": spread(slowdowns[name]),
            "values": slowdowns[name],
        }}
        for metric, spec_m in metrics.items():
            row = summarize(values[name][metric], spec_m["bound"],
                            spec_m["better"])
            row["gated"] = row["set_shift"] <= row["bound"] and (
                metric == "setup_s" or row["spread"] <= row["bound"]
            )
            row["unit"] = spec_m["unit"]
            summary[name][metric] = row
            print(f"{name:<20} {metric:<24} {row['median']:>10.4g} "
                  f"{row['spread']:>7.3f} {row['set_shift']:>7.3f} "
                  f"{row['bound']:>6.2f}  {row['gated']}")
    if args.write:
        last = result["document"]["provenance"]
        doc = {
            "provenance": {
                "commit": last["commit"],
                "dirty": last["dirty"],
                "host": last["host"],
                "placement": last["placement"],
                "run_seconds": spec["run_seconds"],
                "seeds": [SEEDS[0], SEEDS[-1]],
                "sets": "seeds 1-5 and seeds 6-10",
                "campaign_minutes": round((time.time() - started) / 60.0, 1),
            },
            "workloads": summary,
        }
        with open(args.write, "w") as handle:
            json.dump(doc, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
