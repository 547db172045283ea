"""Counters and latency/occupancy statistics for the serving runtime.

A decode service owns one :class:`ServeMetrics`, shared by every
engine and worker of the service, and exposes its state several ways:
:meth:`snapshot` returns an immutable :class:`MetricsSnapshot` dataclass
for programmatic use, :meth:`report` renders the snapshot as an aligned
text table in the house style of the evaluation harness, and the
backing :class:`~repro.obs.metrics.MetricsRegistry` (the ``registry``
attribute) renders the same series as JSON or Prometheus exposition
text for machine consumers.

Every counter and histogram lives in the registry (instrument names are
prefixed ``serve_``) and is also a public attribute, so callers record
into it directly; the values the snapshot reports are by construction
identical to what the registry exposes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.obs.metrics import MetricsRegistry
from repro.utils.tables import render_table

__all__ = ["MetricsSnapshot", "ServeMetrics"]

#: Occupancy is a fraction in [0, 1]; latency buckets suit ms-scale decodes.
_OCCUPANCY_BUCKETS = tuple(i / 10 for i in range(1, 11))
_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass(frozen=True)
class MetricsSnapshot(object):
    """Immutable point-in-time view of a :class:`ServeMetrics`.

    Attributes
    ----------
    frames_in / frames_out:
        Frames admitted to an engine slot / frames retired with a result.
    frames_converged / frames_failed:
        Retired frames whose parity checks passed / did not pass.
    frames_rejected:
        Frames refused by backpressure (queue full or service closed).
    frames_errored:
        Frames whose future completed exceptionally (bad input, worker
        crash, dead shard) — distinct from ``frames_failed``, which are
        decoded-but-unconverged frames that still produced a result.
    frames_retried:
        Re-admissions after a transient engine failure (a frame retried
        twice counts twice).
    frames_expired:
        Frames dropped at dequeue because their deadline had passed.
    frames_shed:
        Frames admitted with a reduced iteration budget by the
        load-shedding policy.
    worker_crashes / worker_restarts:
        Shard worker loops that died with an unexpected exception / that
        were restarted by the supervisor after backoff.
    engine_steps:
        Layered iterations executed across all engines, each over the
        occupied slots (one engine step runs one or more).
    slot_iterations:
        Frame-iterations executed (sum of occupied slots over steps).
    iterations_saved:
        Frame-iterations avoided by early retirement of converged
        frames, relative to running every frame to its budget.
    mean_occupancy:
        Mean fraction of slots busy per layered iteration (0..1).
    p50_latency_s / p99_latency_s / mean_latency_s:
        Submit-to-retire latency percentiles over the recent window.
    elapsed_s:
        Wall-clock seconds since the metrics object was created/reset.
    throughput_fps:
        ``frames_out / elapsed_s`` (0 when no time has elapsed).
    """

    frames_in: int
    frames_out: int
    frames_converged: int
    frames_failed: int
    frames_rejected: int
    frames_errored: int
    frames_retried: int
    frames_expired: int
    frames_shed: int
    worker_crashes: int
    worker_restarts: int
    engine_steps: int
    slot_iterations: int
    iterations_saved: int
    mean_occupancy: float
    p50_latency_s: float
    p99_latency_s: float
    mean_latency_s: float
    elapsed_s: float
    throughput_fps: float


class ServeMetrics(object):
    """Thread-safe counters + histograms for the decode service.

    Every instrument is a public attribute (``frames_in`` ...
    ``latency``) registered in :attr:`registry` under a ``serve_*``
    name; code records into them directly
    (``metrics.frames_rejected.inc()``).  A
    :class:`~repro.serve.pool.DecodeService` owns one instance, and the
    gateway and autoscaler in front of it publish their ``net_*``
    series into the same :attr:`registry`.
    """

    def __init__(self) -> None:
        self.registry = reg = MetricsRegistry()
        self.frames_in = reg.counter(
            "serve_frames_in", "frames admitted to an engine slot")
        self.frames_out = reg.counter(
            "serve_frames_out", "frames retired with a result")
        self.frames_converged = reg.counter(
            "serve_frames_converged", "retired frames with parity passing")
        self.frames_failed = reg.counter(
            "serve_frames_failed", "retired frames still failing parity")
        self.frames_rejected = reg.counter(
            "serve_frames_rejected", "frames refused by backpressure")
        self.frames_errored = reg.counter(
            "serve_frames_errored", "frame futures completed exceptionally")
        self.frames_retried = reg.counter(
            "serve_frames_retried", "re-admissions after transient faults")
        self.frames_expired = reg.counter(
            "serve_frames_expired", "frames dropped past their deadline")
        self.frames_shed = reg.counter(
            "serve_frames_shed", "frames admitted with a shed budget")
        self.worker_crashes = reg.counter(
            "serve_worker_crashes", "worker loops died unexpectedly")
        self.worker_restarts = reg.counter(
            "serve_worker_restarts", "worker loops restarted by supervisor")
        self.engine_steps = reg.counter(
            "serve_engine_steps", "layered iterations over occupied slots")
        self.slot_iterations = reg.counter(
            "serve_slot_iterations", "frame-iterations executed")
        self.iterations_saved = reg.counter(
            "serve_iterations_saved", "frame-iterations avoided by early retire")
        self.occupancy = reg.histogram(
            "serve_occupancy_ratio", "busy slot fraction per iteration",
            buckets=_OCCUPANCY_BUCKETS)
        self.latency = reg.histogram(
            "serve_latency_seconds", "submit-to-retire latency",
            buckets=_LATENCY_BUCKETS)
        self._started_at = time.monotonic()

    def reset(self) -> None:
        """Zero every serving instrument and drop retained samples."""
        for inst in (
            self.frames_in, self.frames_out, self.frames_converged,
            self.frames_failed, self.frames_rejected, self.frames_errored,
            self.frames_retried, self.frames_expired, self.frames_shed,
            self.worker_crashes, self.worker_restarts, self.engine_steps,
            self.slot_iterations, self.iterations_saved,
            self.occupancy, self.latency,
        ):
            inst.reset()
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # derived recordings (called by engines)
    # ------------------------------------------------------------------
    def step_recorded(self, busy_slots: int, capacity: int,
                      iterations: int) -> None:
        """An engine step of ``iterations`` layered iterations, each over
        ``busy_slots`` of ``capacity`` slots: the same values as that
        many one-iteration records, one update per instrument."""
        self.engine_steps.inc(iterations)
        self.slot_iterations.inc(busy_slots * iterations)
        if capacity > 0:
            self.occupancy.observe(busy_slots / capacity, count=iterations)

    def frames_retired(self, converged: int, failed: int,
                       iterations_saved: int,
                       latencies_s: Sequence[float]) -> None:
        """The frames one engine step retired: ``converged`` with their
        parity passing and ``failed`` without, the iterations the
        converged ones saved against their budgets, and every frame's
        latency in retirement order.  The same values as one record per
        frame, with one update per instrument."""
        self.frames_out.inc(converged + failed)
        if converged:
            self.frames_converged.inc(converged)
            self.iterations_saved.inc(iterations_saved)
        if failed:
            self.frames_failed.inc(failed)
        self.latency.observe_many(latencies_s)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Immutable view of all counters and histograms."""
        elapsed = max(0.0, time.monotonic() - self._started_at)
        frames_out = int(self.frames_out.value())
        fps = frames_out / elapsed if elapsed > 0 else 0.0
        return MetricsSnapshot(
            frames_in=int(self.frames_in.value()),
            frames_out=frames_out,
            frames_converged=int(self.frames_converged.value()),
            frames_failed=int(self.frames_failed.value()),
            frames_rejected=int(self.frames_rejected.value()),
            frames_errored=int(self.frames_errored.value()),
            frames_retried=int(self.frames_retried.value()),
            frames_expired=int(self.frames_expired.value()),
            frames_shed=int(self.frames_shed.value()),
            worker_crashes=int(self.worker_crashes.value()),
            worker_restarts=int(self.worker_restarts.value()),
            engine_steps=int(self.engine_steps.value()),
            slot_iterations=int(self.slot_iterations.value()),
            iterations_saved=int(self.iterations_saved.value()),
            mean_occupancy=self.occupancy.mean(),
            p50_latency_s=self.latency.percentile(50.0),
            p99_latency_s=self.latency.percentile(99.0),
            mean_latency_s=self.latency.mean(),
            elapsed_s=elapsed,
            throughput_fps=fps,
        )

    def report(self, title: str = "serving metrics") -> str:
        """The snapshot as an aligned two-column text table."""
        snap = self.snapshot()
        rows = [
            ["frames in / out", f"{snap.frames_in} / {snap.frames_out}"],
            ["converged / failed (unconverged)",
             f"{snap.frames_converged} / {snap.frames_failed}"],
            ["rejected (backpressure)", str(snap.frames_rejected)],
            ["errored (exception)", str(snap.frames_errored)],
            ["retried (transient fault)", str(snap.frames_retried)],
            ["expired (deadline)", str(snap.frames_expired)],
            ["shed (reduced budget)", str(snap.frames_shed)],
            ["worker crashes / restarts",
             f"{snap.worker_crashes} / {snap.worker_restarts}"],
            ["engine steps", str(snap.engine_steps)],
            ["slot iterations", str(snap.slot_iterations)],
            ["iterations saved (early retire)", str(snap.iterations_saved)],
            ["mean batch occupancy", f"{snap.mean_occupancy:.2f}"],
            ["latency p50 / p99 (ms)",
             f"{snap.p50_latency_s * 1e3:.2f} / {snap.p99_latency_s * 1e3:.2f}"],
            ["throughput (frames/s)", f"{snap.throughput_fps:.1f}"],
        ]
        return render_table(["metric", "value"], rows, title=title)
