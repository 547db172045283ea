"""Per-request trace extraction: one request's story out of a big trace.

A soak or chaos run leaves one Chrome trace holding thousands of
spans across client, gateway, shard, and engine threads.  This
module answers the on-call question — *what happened to request X?* —
by slicing that document down to a single distributed trace id:

* :func:`extract_request` filters a Chrome-trace document to the spans
  of one trace id (looked up directly, or via a ``client.request`` /
  ``gateway.request`` span's ``job`` label), keeping the process/thread
  metadata rows so the slice still renders with named rows in
  Perfetto;
* :func:`request_waterfall` reduces the slice to the canonical latency
  waterfall — wire / admission / queue-wait / decode / respond — using
  the segment durations the gateway stamped onto its root span plus
  the client/gateway span-duration difference for time on the wire;
* :func:`format_waterfall` renders it as an aligned text bar chart for
  ``repro trace-request``.

Trace ids ride span *labels* (``args.trace``) rather than span ids:
the label is what the wire carries from hop to hop, so it is the one
join key that holds across recorders.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ReproError

__all__ = [
    "extract_request",
    "format_waterfall",
    "load_chrome_trace",
    "request_waterfall",
    "trace_ids",
]

#: Waterfall segments in render order.
_SEGMENTS = ("wire", "admission", "queue_wait", "decode", "respond")

_META_PHASES = ("M",)


class TraceLookupError(ReproError):
    """The requested trace id / job id is not in the document."""


def load_chrome_trace(path: str) -> Dict[str, Any]:
    """Read a Chrome-trace JSON document from disk."""
    with open(path) as handle:
        return json.load(handle)


def _span_events(doc: Mapping[str, Any]) -> List[Dict[str, Any]]:
    return [
        e for e in doc.get("traceEvents", ())
        if e.get("ph") not in _META_PHASES
    ]


def trace_ids(doc: Mapping[str, Any]) -> List[int]:
    """Every distinct distributed trace id present in the document."""
    out = set()
    for event in _span_events(doc):
        trace = (event.get("args") or {}).get("trace")
        if trace:
            out.add(int(trace))
    return sorted(out)


def _resolve_trace_id(
    doc: Mapping[str, Any], job_id: Optional[int]
) -> int:
    """Map a client-side job id to its trace id.

    Searches ``client.request`` spans first (their ``job`` label is the
    client's wire job id — what ``RemoteResult.job_id`` reported), then
    ``gateway.request`` spans as a fallback for traces whose client
    half is missing from the document.
    """
    for wanted in ("client.request", "gateway.request"):
        for event in _span_events(doc):
            if event.get("name") != wanted:
                continue
            args = event.get("args") or {}
            if args.get("job") == job_id and args.get("trace"):
                return int(args["trace"])
    raise TraceLookupError(
        f"no client.request/gateway.request span with job={job_id!r}"
    )


def extract_request(
    doc: Mapping[str, Any],
    trace_id: Optional[int] = None,
    job_id: Optional[int] = None,
) -> Dict[str, Any]:
    """One request's spans as a standalone Chrome-trace document.

    Exactly one of ``trace_id`` / ``job_id`` must be given.  The result
    keeps the source document's process/thread metadata rows for the
    pids that still own events, so the slice opens in Perfetto with the
    same named rows as the full trace.
    """
    if (trace_id is None) == (job_id is None):
        raise TraceLookupError("pass exactly one of trace_id / job_id")
    if trace_id is None:
        trace_id = _resolve_trace_id(doc, job_id)
    picked = [
        e for e in _span_events(doc)
        if (e.get("args") or {}).get("trace") == trace_id
    ]
    if not picked:
        raise TraceLookupError(
            f"trace id {trace_id} not found "
            f"({len(trace_ids(doc))} trace ids in document)"
        )
    pids = {e.get("pid") for e in picked}
    meta = [
        e for e in doc.get("traceEvents", ())
        if e.get("ph") in _META_PHASES and e.get("pid") in pids
    ]
    return {
        "traceEvents": picked + meta,
        "displayTimeUnit": doc.get("displayTimeUnit", "ms"),
        "trace_id": trace_id,
    }


def _first(events: List[Dict[str, Any]], name: str) -> Optional[Dict[str, Any]]:
    for event in events:
        if event.get("name") == name:
            return event
    return None


def request_waterfall(request_doc: Mapping[str, Any]) -> Dict[str, Any]:
    """The latency waterfall of one extracted request.

    Returns ``{"total_s", "segments": {name: seconds}, "spans": N,
    "trace_id"}``.  Wire time is the client span's duration minus the
    gateway span's (both ends of one round trip measured locally — no
    cross-host clock arithmetic); the gateway-side segments come from
    the ``*_s`` labels the gateway stamped onto its root span.  Any
    segment whose source span/label is missing is simply absent, so a
    gateway-only trace (no client recorder) still yields its splits.
    """
    events = _span_events(request_doc)
    client = _first(events, "client.request")
    gateway = _first(events, "gateway.request")
    segments: Dict[str, float] = {}
    total_s: Optional[float] = None
    if client is not None:
        total_s = float(client.get("dur", 0.0)) / 1e6
    if gateway is not None:
        args = gateway.get("args") or {}
        gw_s = float(gateway.get("dur", 0.0)) / 1e6
        if total_s is None:
            total_s = gw_s
        if client is not None:
            segments["wire"] = max(0.0, total_s - gw_s)
        for name in ("admission", "queue_wait", "decode", "respond"):
            value = args.get(f"{name}_s")
            if value is not None:
                segments[name] = float(value)
    ordered = {
        name: segments[name] for name in _SEGMENTS if name in segments
    }
    return {
        "trace_id": request_doc.get("trace_id"),
        "total_s": total_s if total_s is not None else 0.0,
        "segments": ordered,
        "spans": len(events),
    }


def format_waterfall(waterfall: Mapping[str, Any], width: int = 40) -> str:
    """The waterfall as an aligned text bar chart."""
    total = float(waterfall.get("total_s") or 0.0)
    lines = [
        f"trace {waterfall.get('trace_id')} — "
        f"{waterfall.get('spans', 0)} spans, total "
        f"{total * 1e3:.3f}ms"
    ]
    segments: Mapping[str, float] = waterfall.get("segments") or {}
    if not segments:
        lines.append("  (no waterfall segments recorded)")
        return "\n".join(lines)
    scale = max(segments.values()) or 1.0
    for name, seconds in segments.items():
        bar = "#" * max(1, int(round(width * seconds / scale)))
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(
            f"  {name:<10s} {seconds * 1e3:9.3f}ms {share:5.1f}%  {bar}"
        )
    return "\n".join(lines)
