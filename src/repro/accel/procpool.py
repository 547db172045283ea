"""Multiprocess shard backend: a decode engine behind a worker process.

:class:`ProcessEngineProxy` presents the same surface a
:class:`~repro.serve.pool.DecodeService` worker expects from a
:class:`~repro.serve.engine.ContinuousBatchingEngine` — ``free_slots``,
``in_flight``, ``admit``, ``step`` — but runs the actual engine in a
child process, so a shard's decode arithmetic escapes the parent's GIL
and (on multi-core hosts) shards decode genuinely in parallel.

Data path
---------
LLRs never travel through pickles.  The proxy allocates three
shared-memory slabs per shard (``multiprocessing.RawArray``):

* ``in_llrs``  — ``(batch_size, n)`` float64, parent-written channel LLRs
* ``out_llrs`` — ``(batch_size, n)`` float64, child-written posterior LLRs
* ``out_bits`` — ``(batch_size, n)`` uint8, child-written hard decisions

Only tiny job descriptors ``(slot, job_id, iteration_budget)`` and
result tuples (slot, convergence metadata, per-iteration syndromes)
cross the process queues.  A slot index is a ticket for one lane of all
three slabs; the parent recycles it when the result is read back.

Failure model
-------------
The child is assumed killable at any instant (that is the point of the
process boundary: a segfaulting or OOM-killed decode takes down one
shard process, not the service).  :meth:`step` watches child liveness
and raises :class:`~repro.errors.WorkerProcessError` when the child
died, which the pool supervisor treats exactly like an in-process worker
crash: in-flight futures fail fast, the proxy is rebuilt (respawning a
fresh child), and repeated deaths strike the shard out.

Spawn, not fork: a spawned child starts from a clean interpreter, which
keeps the decoder state of a crashed predecessor from leaking into the
replacement and works on every platform.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import queue
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.channel.quantize import MESSAGE_8BIT, FixedPointFormat
from repro.codes.qc import QCLDPCCode
from repro.decoder.layered import DEFAULT_MAX_ITERATIONS
from repro.decoder.minsum import SCALING_FACTOR
from repro.decoder.result import DecodeResult
from repro.errors import DecodingError, EngineFullError, WorkerProcessError
from repro.obs.log import EventLog, LogRecord
from repro.obs.trace import TraceRecorder, records_from_wire, records_to_wire
from repro.serve.jobs import CompletedJob, DecodeJob
from repro.serve.metrics import ServeMetrics

__all__ = ["ProcessEngineProxy"]

#: Parent poll granularity for child results; also the child's idle poll.
_POLL_S = 0.05

#: Grace period for a clean child exit before escalating to terminate().
_JOIN_S = 5.0

#: Child-side span count that triggers a telemetry flush mid-burst.
_FLUSH_SPANS = 256


def _child_main(
    code: QCLDPCCode,
    batch_size: int,
    max_iterations: int,
    scaling_factor: float,
    fixed: bool,
    fmt: FixedPointFormat,
    schedule: str,
    trace_enabled: bool,
    in_buf: "ctypes.Array",
    out_llr_buf: "ctypes.Array",
    out_bits_buf: "ctypes.Array",
    job_q: "multiprocessing.Queue",
    result_q: "multiprocessing.Queue",
) -> None:
    """Child entry point: drive a private engine from the job queue.

    Runs until the stop sentinel (``None``) arrives, finishing any
    in-flight frames first so a graceful shutdown loses nothing.  On an
    internal error the exception is reported through the result queue
    (best effort) and re-raised, killing the process — the parent's
    liveness watch does the rest.

    The child carries its own :class:`TraceRecorder` and
    :class:`ServeMetrics` (recorder/registry objects hold locks and
    cannot cross the spawn boundary) and periodically ships
    ``("telemetry", payload)`` messages on the result queue: drained
    span batches in wire form, engine-step/slot-iteration deltas, and
    any structured log records, all stamped with the child's wall-clock
    epoch so the parent can correct for the ``perf_counter`` offset.
    """
    from repro.serve.engine import ContinuousBatchingEngine

    recorder = TraceRecorder(enabled=trace_enabled)
    child_metrics = ServeMetrics()
    pid = os.getpid()
    pending_logs: List[Dict[str, Any]] = [
        LogRecord(
            level="info",
            event="procpool.child_start",
            wall_time=time.time(),
            monotonic_s=time.monotonic(),
            fields={"pid": pid, "fixed": fixed},
        ).to_dict()
    ]
    sent = {"steps": 0, "slots": 0}

    def flush_telemetry() -> None:
        spans = recorder.drain()
        snap = child_metrics.snapshot()
        d_steps = int(snap.engine_steps) - sent["steps"]
        d_slots = int(snap.slot_iterations) - sent["slots"]
        if not spans and d_steps == 0 and not pending_logs:
            return
        sent["steps"] += d_steps
        sent["slots"] += d_slots
        payload = {
            "pid": pid,
            "wall_epoch": recorder.wall_epoch(),
            "spans": records_to_wire(spans),
            "steps": d_steps,
            "slot_iterations": d_slots,
            "dropped": recorder.dropped,
            "logs": list(pending_logs),
        }
        del pending_logs[:]
        result_q.put(("telemetry", payload))

    try:
        engine = ContinuousBatchingEngine(
            code,
            batch_size=batch_size,
            max_iterations=max_iterations,
            scaling_factor=scaling_factor,
            fixed=fixed,
            fmt=fmt,
            schedule=schedule,
            metrics=child_metrics,
            recorder=recorder,
        )
        n = code.n
        in_llrs = np.frombuffer(in_buf, dtype=np.float64).reshape(batch_size, n)
        out_llrs = np.frombuffer(out_llr_buf, dtype=np.float64).reshape(
            batch_size, n
        )
        out_bits = np.frombuffer(out_bits_buf, dtype=np.uint8).reshape(
            batch_size, n
        )
        # child-local engine job id -> (parent slot, parent job id)
        ticket: Dict[int, Tuple[int, int]] = {}
        stopping = False
        while True:
            while not stopping and engine.free_slots > 0:
                try:
                    if engine.in_flight == 0:
                        msg = job_q.get(timeout=_POLL_S)
                    else:
                        msg = job_q.get_nowait()
                except queue.Empty:
                    break
                if msg is None:
                    stopping = True
                    break
                slot, job_id, budget = msg
                job = DecodeJob(
                    llrs=in_llrs[slot].copy(), iteration_budget=budget
                )
                engine.admit(job)
                ticket[job.job_id] = (slot, job_id)
            if engine.in_flight == 0:
                # drained (or idle): ship whatever telemetry accumulated
                flush_telemetry()
                if stopping:
                    return
                continue
            for done in engine.step():
                slot, job_id = ticket.pop(done.job_id)
                res = done.result
                out_llrs[slot] = res.llrs
                out_bits[slot] = res.bits
                result_q.put(
                    (
                        "done",
                        slot,
                        job_id,
                        bool(res.converged),
                        int(res.iterations),
                        int(res.syndrome_weight),
                        [int(w) for w in res.iteration_syndromes],
                    )
                )
            if len(recorder) >= _FLUSH_SPANS:
                flush_telemetry()
    except Exception as exc:  # pragma: no cover - crash path timing
        try:
            result_q.put(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise


class ProcessEngineProxy(object):
    """Engine-shaped front for a decode worker process.

    Drop-in replacement for
    :class:`~repro.serve.engine.ContinuousBatchingEngine` inside a
    :class:`~repro.serve.pool.DecodeService` shard
    (``DecodeService(..., backend="process")`` builds these): same
    ``free_slots`` / ``in_flight`` / ``admit`` / ``step`` contract, same
    bit-exact results, but the layered min-sum runs in a child process
    fed through shared-memory LLR slots.

    Parameters
    ----------
    code / batch_size / max_iterations / scaling_factor / fixed / fmt / schedule:
        Decoder configuration, forwarded verbatim to the child engine.
    metrics:
        Optional shared :class:`ServeMetrics`; admissions and
        retirements are recorded parent-side, and the child's
        engine-step/slot-iteration deltas are folded in as telemetry
        arrives, so one registry aggregates thread- and process-backed
        shards alike.
    recorder:
        Optional parent :class:`~repro.obs.trace.TraceRecorder`; when
        given (and enabled at spawn time), the child records its own
        spans and the proxy merges shipped batches into this recorder
        with ``shard``/``backend`` labels, the child's pid, and a
        wall-clock offset correction — ``to_chrome_trace`` then shows
        the worker as its own process row on the parent timeline.
    log:
        Optional :class:`~repro.obs.log.EventLog`; spawn/shutdown/death
        lifecycle and child-shipped records are published into it.
    label:
        Shard key used in merged span labels and log fields (defaults
        to the code name).
    poll_s:
        How long one :meth:`step` call waits for a child result before
        returning empty (bounds the pool worker's reaction latency to
        close/crash signals).

    Notes
    -----
    The child is spawned lazily on the first :meth:`admit`, so
    constructing a proxy (e.g. a supervisor pre-building a replacement
    engine) costs no process until work actually arrives.  A proxy whose
    child died raises :class:`WorkerProcessError` from :meth:`step`;
    it does not respawn itself — recovery policy (restart budget,
    backoff, strike-out) belongs to the pool supervisor.
    """

    def __init__(
        self,
        code: QCLDPCCode,
        batch_size: int = 16,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        scaling_factor: float = SCALING_FACTOR,
        fixed: bool = False,
        fmt: FixedPointFormat = MESSAGE_8BIT,
        schedule: str = "row",
        metrics: Optional[ServeMetrics] = None,
        recorder: Optional[TraceRecorder] = None,
        log: Optional[EventLog] = None,
        label: str = "",
        poll_s: float = _POLL_S,
    ) -> None:
        if batch_size < 1:
            raise DecodingError(f"batch_size must be >= 1, got {batch_size}")
        if schedule not in ("row", "column"):
            raise DecodingError(
                f"schedule must be 'row' or 'column', got {schedule!r}"
            )
        self.code = code
        self.batch_size = batch_size
        self.max_iterations = max_iterations
        self.scaling_factor = scaling_factor
        self.fixed = fixed
        self.fmt = fmt
        self.schedule = schedule
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.recorder = recorder
        self.log = log
        self.label = label
        self.poll_s = poll_s

        self._ctx = multiprocessing.get_context("spawn")
        n = code.n
        self._in_buf = self._ctx.RawArray(ctypes.c_double, batch_size * n)
        self._out_llr_buf = self._ctx.RawArray(ctypes.c_double, batch_size * n)
        self._out_bits_buf = self._ctx.RawArray(ctypes.c_uint8, batch_size * n)
        self._in = np.frombuffer(self._in_buf, dtype=np.float64).reshape(
            batch_size, n
        )
        self._out_llrs = np.frombuffer(
            self._out_llr_buf, dtype=np.float64
        ).reshape(batch_size, n)
        self._out_bits = np.frombuffer(
            self._out_bits_buf, dtype=np.uint8
        ).reshape(batch_size, n)
        self._job_q: "multiprocessing.Queue" = self._ctx.Queue()
        self._result_q: "multiprocessing.Queue" = self._ctx.Queue()
        self._proc: Optional[multiprocessing.process.BaseProcess] = None
        self._free: List[int] = list(range(batch_size))
        # parent job id -> (slot ticket, original job)
        self._jobs: Dict[int, Tuple[int, DecodeJob]] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # engine surface
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Frames handed to the child and not yet retired."""
        return len(self._jobs)

    @property
    def free_slots(self) -> int:
        """Shared-memory slots available for :meth:`admit`."""
        return len(self._free)

    @property
    def process_alive(self) -> bool:
        """True while the child process exists and runs."""
        return self._proc is not None and self._proc.is_alive()

    @property
    def _shard_label(self) -> str:
        return self.label or (self.code.name or "shard")

    def _ensure_started(self) -> None:
        if self._proc is not None or self._closed:
            return
        trace_enabled = self.recorder is not None and self.recorder.enabled
        proc = self._ctx.Process(
            target=_child_main,
            args=(
                self.code,
                self.batch_size,
                self.max_iterations,
                self.scaling_factor,
                self.fixed,
                self.fmt,
                self.schedule,
                trace_enabled,
                self._in_buf,
                self._out_llr_buf,
                self._out_bits_buf,
                self._job_q,
                self._result_q,
            ),
            name=f"decode-proc-{self.code.name or 'shard'}",
            daemon=True,
        )
        proc.start()
        self._proc = proc
        if self.log is not None:
            self.log.info("procpool.spawn", shard=self._shard_label,
                          pid=proc.pid)

    def admit(self, job: DecodeJob) -> int:
        """Write the job's LLRs into a free slot and notify the child.

        Raises
        ------
        EngineFullError
            If every shared-memory slot is occupied.
        DecodingError
            If the job's LLR vector has the wrong length.
        WorkerProcessError
            If the proxy has been shut down.
        """
        if self._closed:
            raise WorkerProcessError("proxy is shut down")
        if not self._free:
            raise EngineFullError(
                f"all {self.batch_size} slots occupied; step() before admitting"
            )
        llrs = np.asarray(job.llrs, dtype=np.float64)
        if llrs.shape != (self.code.n,):
            raise DecodingError(
                f"job {job.job_id}: LLR length {llrs.shape} != ({self.code.n},)"
            )
        self._ensure_started()
        slot = self._free.pop()
        self._in[slot] = llrs
        self._jobs[job.job_id] = (slot, job)
        # the queue put happens-after the shared-memory write, so the
        # child observes a fully written LLR lane when the ticket arrives
        self._job_q.put((slot, job.job_id, job.iteration_budget))
        self.metrics.frames_in.inc()
        return slot

    def step(self) -> List[CompletedJob]:
        """Collect finished frames from the child (bounded wait).

        Waits up to ``poll_s`` for the first result, then drains every
        result already queued.  Returns an empty list when the child is
        still computing — the caller keeps polling, exactly like an
        in-process engine mid-decode.

        Raises
        ------
        WorkerProcessError
            If the child process has died (killed, crashed) or reported
            an internal error; the pool supervisor maps this onto its
            crash/restart/strike-out path.
        """
        if not self._jobs:
            return []
        completed: List[CompletedJob] = []
        try:
            msg = self._result_q.get(timeout=self.poll_s)
        except queue.Empty:
            self._check_alive()
            return completed
        while True:
            self._handle(msg, completed)
            try:
                msg = self._result_q.get_nowait()
            except queue.Empty:
                break
        if not completed:
            # a telemetry-only wake must not mask a stalled/dead child
            self._check_alive()
        return completed

    def _handle(self, msg: tuple, completed: List[CompletedJob]) -> None:
        if msg[0] == "telemetry":
            self._merge_telemetry(msg[1])
        else:
            completed.append(self._retire(msg))

    def _merge_telemetry(self, payload: Dict[str, Any]) -> None:
        """Fold one child telemetry batch into the parent observers.

        Span times are shifted by the difference of the two recorders'
        wall-clock epochs (both processes share the machine wall clock,
        while their ``perf_counter`` epochs are unrelated), labelled
        with the shard key and backend, and tagged with the child pid so
        the Chrome trace renders the worker as its own process row.

        The offset is clamped at zero: a child forked *before* the
        current parent recorder (e.g. its final telemetry flush arrives
        after a shard restart swapped a fresh recorder in) would
        otherwise shift spans to negative timestamps, which Chrome's
        trace viewer silently drops.
        """
        spans = payload.get("spans") or []
        if self.recorder is not None and spans:
            offset = max(
                0.0,
                float(payload["wall_epoch"]) - self.recorder.wall_epoch(),
            )
            self.recorder.merge(
                records_from_wire(spans),
                time_offset_s=offset,
                extra_labels={
                    "shard": self._shard_label, "backend": "process",
                },
                process_id=int(payload.get("pid", 0)),
            )
        self.metrics.absorb_worker_steps(
            int(payload.get("steps", 0)),
            int(payload.get("slot_iterations", 0)),
            self.batch_size,
        )
        if self.log is not None:
            for obj in payload.get("logs") or ():
                rec = LogRecord.from_dict(obj)
                fields = dict(rec.fields)
                fields.setdefault("shard", self._shard_label)
                self.log.append(
                    LogRecord(
                        level=rec.level,
                        event=rec.event,
                        wall_time=rec.wall_time,
                        monotonic_s=rec.monotonic_s,
                        span_id=rec.span_id,
                        fields=fields,
                    )
                )

    def _drain_telemetry(self) -> None:
        """Absorb queued telemetry without blocking (shutdown path).

        Non-telemetry stragglers are discarded: by the time this runs
        the child is gone and any unretired result has already been
        failed by the supervisor.
        """
        while True:
            try:
                msg = self._result_q.get_nowait()
            except (queue.Empty, OSError, ValueError):
                return
            if msg is not None and msg[0] == "telemetry":
                self._merge_telemetry(msg[1])

    def _check_alive(self) -> None:
        proc = self._proc
        if proc is not None and not proc.is_alive():
            if self.log is not None:
                self.log.error(
                    "procpool.child_died",
                    shard=self._shard_label,
                    pid=proc.pid,
                    exit_code=proc.exitcode,
                    in_flight=len(self._jobs),
                )
            raise WorkerProcessError(
                f"decode worker process for {self.code.name or 'shard'!s} "
                f"died (exit code {proc.exitcode}) with "
                f"{len(self._jobs)} frame(s) in flight"
            )

    def _retire(self, msg: tuple) -> CompletedJob:
        if msg[0] == "error":
            raise WorkerProcessError(f"decode worker reported: {msg[1]}")
        _tag, slot, job_id, converged, iterations, weight, syndromes = msg
        entry = self._jobs.pop(job_id, None)
        if entry is None:  # pragma: no cover - protocol violation
            raise WorkerProcessError(
                f"decode worker returned unknown job id {job_id}"
            )
        _slot, job = entry
        result = DecodeResult(
            bits=self._out_bits[slot].copy(),
            converged=converged,
            iterations=iterations,
            llrs=self._out_llrs[slot].copy(),
            syndrome_weight=weight,
            iteration_syndromes=list(syndromes),
        )
        self._free.append(slot)
        done = CompletedJob(job=job, result=result)
        budget = job.iteration_budget
        if budget is None:
            budget = self.max_iterations
        self.metrics.frame_retired(
            converged=converged,
            iterations=iterations,
            max_iterations=min(max(1, int(budget)), self.max_iterations),
            latency_s=done.latency_s,
        )
        return done

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, timeout_s: float = _JOIN_S) -> None:
        """Stop the child and release the queues (idempotent).

        Sends the stop sentinel and waits up to ``timeout_s`` for a
        graceful exit (the child finishes in-flight frames first), then
        escalates to ``terminate()``.  Safe on a proxy whose child was
        never spawned or already died.
        """
        if self._closed:
            return
        self._closed = True
        proc = self._proc
        self._proc = None
        if proc is not None:
            try:
                self._job_q.put(None)
            except Exception:
                pass
            proc.join(timeout_s)
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        # the child flushes telemetry right before a graceful exit;
        # absorb those final batches before the queues close
        self._drain_telemetry()
        if self.log is not None and proc is not None:
            self.log.info("procpool.shutdown", shard=self._shard_label)
        for q in (self._job_q, self._result_q):
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:
                pass
