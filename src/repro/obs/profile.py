"""Profiling views: per-layer wall time and per-stage cycle activity.

Two attribution surfaces feed this module:

* the **numpy decoders** emit ``decode.iteration`` / ``decode.layer``
  spans into a :class:`~repro.obs.trace.TraceRecorder` when one is
  attached, and :func:`layer_profile` folds them into per-layer wall
  time — the software mirror of the paper's cycles-per-layer accounting
  (the batch kernel's ``batch.layer`` spans fold the same way);
* the **architecture simulators** already produce cycle-exact
  :class:`~repro.arch.scheduler_trace.ArchTrace` objects, and
  :func:`stage_profile` / :func:`arch_chrome_trace` turn them into the
  core1/core2/stall decomposition (Fig 4) and a Chrome-trace timeline
  that loads in ``about:tracing``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.arch.scheduler_trace import ArchTrace
from repro.obs.trace import TraceRecorder
from repro.utils.tables import render_table

__all__ = [
    "layer_profile",
    "layer_profile_report",
    "stage_profile",
    "arch_chrome_trace",
    "write_chrome_trace",
]


def layer_profile(
    recorder: TraceRecorder, span_name: str = "decode.layer"
) -> Dict[Any, Dict[str, float]]:
    """Fold ``decode.layer`` spans into per-layer wall-time totals.

    Returns ``{layer_label: {"count", "total_s", "mean_s"}}`` keyed by
    the span's ``layer`` label; spans without one aggregate under -1.
    """
    agg: Dict[Any, Dict[str, float]] = {}
    for rec in recorder.by_name(span_name):
        layer = rec.label_dict.get("layer", -1)
        entry = agg.setdefault(
            layer, {"count": 0, "total_s": 0.0, "mean_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += rec.duration_s
    for entry in agg.values():
        entry["mean_s"] = entry["total_s"] / entry["count"]
    return agg


def layer_profile_report(
    recorder: TraceRecorder,
    span_name: str = "decode.layer",
    title: str = "per-layer wall time",
) -> str:
    """The :func:`layer_profile` aggregate as an aligned text table."""
    prof = layer_profile(recorder, span_name)
    if not prof:
        return f"{title}: (no decode.layer spans recorded)"
    total = sum(e["total_s"] for e in prof.values()) or 1.0
    rows = [
        [layer, int(e["count"]), f"{e['total_s'] * 1e3:.3f}",
         f"{e['mean_s'] * 1e6:.1f}", f"{e['total_s'] / total:.1%}"]
        for layer, e in sorted(prof.items(), key=lambda kv: str(kv[0]))
    ]
    return render_table(
        ["layer", "count", "total ms", "mean us", "share"], rows, title=title
    )


def stage_profile(trace: ArchTrace) -> Dict[str, Dict[str, float]]:
    """Busy/stall cycle decomposition per pipeline stage of an ArchTrace.

    For each unit (core1, core2, shifter, ...) reports busy cycles,
    stall cycles (makespan minus busy — the idle gaps the pipelined
    architecture exists to close), and the busy fraction.  This is the
    Fig 4 "cores are busy at most ~50 %" computation as data.
    """
    makespan = trace.total_cycles
    out: Dict[str, Dict[str, float]] = {}
    for unit in trace.units():
        busy = trace.busy_cycles(unit)
        out[unit] = {
            "busy_cycles": float(busy),
            "stall_cycles": float(max(0, makespan - busy)),
            "utilization": trace.utilization(unit),
        }
    return out


def arch_chrome_trace(
    trace: ArchTrace, clock_mhz: float = 400.0
) -> Dict[str, Any]:
    """An :class:`ArchTrace` as a Chrome-trace JSON object.

    Cycle timestamps convert to microseconds at ``clock_mhz`` (cycles /
    MHz = us), one timeline row per hardware unit, so the Fig 4 / Fig 6
    schedules open directly in ``about:tracing`` / Perfetto.
    """
    if clock_mhz <= 0:
        raise ValueError(f"clock_mhz must be > 0, got {clock_mhz}")
    events: List[Dict[str, Any]] = []
    tids = {unit: i + 1 for i, unit in enumerate(trace.units())}
    scale = 1.0 / clock_mhz  # cycles -> microseconds
    for seg in trace.segments:
        events.append(
            {
                "name": seg.label or seg.unit,
                "cat": seg.unit,
                "ph": "X",
                "ts": seg.start * scale,
                "dur": seg.cycles * scale,
                "pid": 1,
                "tid": tids[seg.unit],
                "args": {"start_cycle": seg.start, "end_cycle": seg.end},
            }
        )
    for unit, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": unit},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(obj: Dict[str, Any], path: str) -> None:
    """Serialize a Chrome-trace object (from any exporter) to a file."""
    with open(path, "w") as handle:
        json.dump(obj, handle)
