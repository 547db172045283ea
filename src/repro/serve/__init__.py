"""Batched decode runtime: batch kernel, continuous batching, workers.

The software analogue of the paper's throughput story.  Where the
hardware keeps its z-way datapath saturated across layers (two-layer
pipelining + scoreboard), this package keeps a vectorized numpy datapath
saturated across *frames*:

* :class:`BatchLayeredMinSumDecoder` — decode a ``(B, n)`` LLR matrix
  with a few numpy passes per layer over frame-minor state, bit-exact
  with the per-frame decoder, retiring converged frames early
  (:class:`ColumnBatchLayeredMinSumDecoder` runs the column-layered
  schedule on the same state);
* :class:`ContinuousBatchingEngine` — slot reuse: retired frames free
  slots that new frames fill mid-flight, so the batch never drains,
  and each step iterates only up to the highest occupied slot;
* :class:`DecodeService` — worker pool with per-rate sharding, bounded
  queues (typed backpressure errors), futures-based submission, and
  self-healing: supervised workers restart after crashes with capped
  backoff, every pending future fails fast with a typed error (nothing
  hangs), transient faults trigger bounded retries, per-job deadlines
  expire stale work, and a load-shedding policy trades iteration budget
  for availability under overload — see :meth:`DecodeService.health`;
* :class:`ServeMetrics` / :class:`MetricsSnapshot` — counters and
  latency/occupancy statistics with a text report;
* :class:`LoadShedPolicy` and friends — the overload-degradation knob.

Quickstart::

    from repro.serve import DecodeService

    with DecodeService(code, batch_size=16) as service:
        futures = [service.submit(llrs) for llrs in traffic]
        results = [f.result().result for f in futures]
"""

from repro.serve.batch import BatchLayeredMinSumDecoder
from repro.serve.column import ColumnBatchLayeredMinSumDecoder
from repro.serve.engine import ContinuousBatchingEngine
from repro.serve.jobs import CompletedJob, DecodeJob
from repro.serve.metrics import MetricsSnapshot, ServeMetrics
from repro.serve.pool import DecodeService, ServiceHealth, ShardHealth
from repro.serve.shedding import LoadShedPolicy, NoShedPolicy, StepShedPolicy

__all__ = [
    "BatchLayeredMinSumDecoder",
    "ColumnBatchLayeredMinSumDecoder",
    "ContinuousBatchingEngine",
    "CompletedJob",
    "DecodeJob",
    "DecodeService",
    "LoadShedPolicy",
    "MetricsSnapshot",
    "NoShedPolicy",
    "ServeMetrics",
    "ServiceHealth",
    "ShardHealth",
    "StepShedPolicy",
]
