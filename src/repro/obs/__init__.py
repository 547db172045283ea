"""Unified observability: tracing, metrics, and profiling.

The software analogue of the paper's activity-based evaluation — where
the hardware flow counts per-block toggles to attribute power (Table I)
and reads per-stage schedules to attribute cycles (Fig 4/6), this
package gives every runtime subsystem one instrumentation spine:

* :class:`TraceRecorder` — ring-buffered nested spans and events
  (decode iterations/layers, engine slot fill/retire, pool
  enqueue/dispatch/crash/restart, fault-injection hits) with a
  Chrome-trace JSON exporter; near-zero overhead when disabled;
* :class:`MetricsRegistry` — labelled counters/gauges/histograms with
  text, JSON, and Prometheus-exposition renderers; the backing store of
  :class:`~repro.serve.metrics.ServeMetrics` and the fault-campaign
  accounting;
* :mod:`repro.obs.profile` — per-layer wall-time attribution for the
  numpy decoders and the core1/core2/stall decomposition (plus
  Chrome-trace export) for the cycle-accurate architecture models;
* :class:`EventLog` — levelled, trace-correlated JSON-lines structured
  logging for runtime incidents (crashes, restarts, sheds, injected
  faults, shard strike-outs), tailed by ``repro logs``;
* :class:`SloMonitor` — declarative service-level objectives evaluated
  against a registry snapshot, surfaced in ``DecodeService.health()``
  and ``repro obs-report``;
* :mod:`repro.obs.perfgate` — the benchmark regression gate behind
  ``repro perf-gate``: re-runs committed ``BENCH_*.json`` baselines
  median-of-k and fails on relative throughput regressions;
* :class:`TraceContext` — the (trace id, span id) pair that rides the
  wire protocol's trace context field so client, gateway, and worker
  spans of one request merge into a single distributed trace;
* :mod:`repro.obs.request_trace` — slices one request's trace out of a
  merged Chrome trace and renders its latency waterfall
  (``repro trace-request``).

Quickstart::

    from repro.obs import TraceRecorder, MetricsRegistry
    from repro.decoder import LayeredMinSumDecoder

    rec = TraceRecorder()
    decoder = LayeredMinSumDecoder(code, recorder=rec)
    decoder.decode(llrs)
    print(rec.report())                  # span aggregate
    rec.write_chrome_trace("decode.json")  # open in about:tracing
"""

from repro.obs.log import (
    LEVELS,
    EventLog,
    follow_log,
    LogRecord,
    format_record,
    format_records,
    read_log,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.profile import (
    arch_chrome_trace,
    layer_profile,
    layer_profile_report,
    stage_profile,
    write_chrome_trace,
)
from repro.obs.request_trace import (
    extract_request,
    format_waterfall,
    load_chrome_trace,
    request_waterfall,
    trace_ids,
)
from repro.obs.slo import (
    SloConfigError,
    SloMonitor,
    SloReport,
    SloRule,
    SloVerdict,
    default_gateway_slos,
    default_serve_slos,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACE,
    SpanRecord,
    TraceContext,
    TraceRecorder,
    new_trace_id,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EventLog",
    "Gauge",
    "Histogram",
    "LEVELS",
    "LogRecord",
    "MetricsError",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACE",
    "SloConfigError",
    "SloMonitor",
    "SloReport",
    "SloRule",
    "SloVerdict",
    "SpanRecord",
    "TraceContext",
    "TraceRecorder",
    "arch_chrome_trace",
    "default_gateway_slos",
    "default_serve_slos",
    "extract_request",
    "format_record",
    "format_waterfall",
    "follow_log",
    "format_records",
    "layer_profile",
    "layer_profile_report",
    "load_chrome_trace",
    "new_trace_id",
    "read_log",
    "request_waterfall",
    "stage_profile",
    "trace_ids",
    "write_chrome_trace",
]
