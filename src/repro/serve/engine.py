"""Continuous-batching engine: slot reuse across frames.

The LLM-inference continuous-batching pattern applied to LDPC decoding:
an engine owns ``batch_size`` decoder slots; every :meth:`step` runs
full layered iterations over the *occupied* slots, retires frames whose
parity checks pass (or whose iteration budget is spent), and the freed
slots are immediately available to :meth:`admit` new frames — so a
saturated engine never idles a slot waiting for the slowest frame of a
fixed batch, exactly the way the paper's two-layer pipelined
architecture keeps core1/core2 busy across layers via its scoreboard.
Admission fills the lowest free slot, and a step iterates a contiguous
state only as wide as the highest occupied slot (rounded up to a power
of two): slots above it are not stepped at all — the software form of
the paper's clock gating of idle blocks.

A step is one call into the batch kernel (one foreign call when
compiled), which keeps each slot's iteration count, budget and syndrome
trail in the kernel's :class:`~repro.serve.batch.Lanes` and iterates
until a frame retires — as the paper's datapath runs a frame's
iterations and parity check with no host round trip.  A step with a
free slot also ends after the iteration during which
:attr:`ContinuousBatchingEngine.doorbell` was set:
:meth:`DecodeService.submit <repro.serve.pool.DecodeService.submit>`
sets it after queueing a frame, like the hardware's input-FIFO flag,
and the shard worker clears it before each read of its queue, so a
queued frame waits at most one iteration for a free slot.

Host work runs once per step, not once per frame, on both sides of
that call.  :meth:`~ContinuousBatchingEngine.admit` only claims the
lowest free slot (a bit in an occupancy mask, with a maintained count
behind :attr:`~ContinuousBatchingEngine.in_flight`) and records the
frame; the next step re-lays out the state if its width changed, then
loads every recorded frame with one column write and one fresh-lane
write (the input FIFO's burst).  The frames a step retires come out
with one gather of their P columns, their metrics in one record.

Frames in the same engine share one code (and hence one LLR length);
mixed-rate traffic is sharded across engines by the worker pool in
:mod:`repro.serve.pool`.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

import numpy as np

from repro.channel.quantize import MESSAGE_8BIT, FixedPointFormat
from repro.codes.qc import QCLDPCCode
from repro.decoder.layered import DEFAULT_MAX_ITERATIONS
from repro.decoder.minsum import SCALING_FACTOR
from repro.decoder.result import DecodeResult
from repro.errors import DecodingError, EngineFullError
from repro.serve.batch import BatchLayeredMinSumDecoder
from repro.serve.jobs import CompletedJob, DecodeJob
from repro.serve.metrics import ServeMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder

__all__ = ["ContinuousBatchingEngine"]


class ContinuousBatchingEngine(object):
    """Decode a stream of jobs through a fixed pool of batch slots.

    Parameters
    ----------
    code:
        The QC-LDPC code every frame of this engine uses.
    batch_size:
        Number of decoder slots (B).
    max_iterations / scaling_factor / fixed / fmt:
        Forwarded to the underlying batch kernel.
    schedule:
        ``"row"`` (the paper's layered schedule, bit-exact with
        :class:`~repro.decoder.layered.LayeredMinSumDecoder`) or
        ``"column"`` (the column-layered schedule of
        :mod:`repro.serve.column`, bit-exact with
        :class:`~repro.decoder.column_layered.ColumnLayeredMinSumDecoder`).
    metrics:
        Optional shared :class:`ServeMetrics`; a private instance is
        created when omitted.
    recorder:
        Optional :class:`~repro.obs.trace.TraceRecorder`; when enabled
        the engine emits ``engine.admit`` / ``engine.retire`` events per
        slot fill/free and an ``engine.step`` span per step (labelled
        ``busy`` / ``capacity`` / ``width`` / ``iterations``), and
        forwards the recorder to the batch kernel for
        ``batch.layer`` attribution.

    Attributes
    ----------
    doorbell:
        One-element ``int32`` array: set it to non-zero after queueing
        work for this engine, and a step with a free slot returns after
        its current iteration.  The engine never clears it.
    """

    def __init__(
        self,
        code: QCLDPCCode,
        batch_size: int = 16,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        scaling_factor: float = SCALING_FACTOR,
        fixed: bool = False,
        fmt: FixedPointFormat = MESSAGE_8BIT,
        metrics: Optional[ServeMetrics] = None,
        recorder: "Optional[TraceRecorder]" = None,
        schedule: str = "row",
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
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.recorder = recorder
        if schedule == "column":
            from repro.serve.column import ColumnBatchLayeredMinSumDecoder

            kernel_cls = ColumnBatchLayeredMinSumDecoder
        else:
            kernel_cls = BatchLayeredMinSumDecoder
        self.kernel = kernel_cls(
            code,
            max_iterations=max_iterations,
            scaling_factor=scaling_factor,
            fixed=fixed,
            fmt=fmt,
            recorder=recorder,
        )
        # kernel state at the current iterated width (see step())
        self._width = 0
        self._p = self.kernel.prepare(np.zeros((0, code.n)))
        self._r = self.kernel.new_r_state(0)
        # per-slot iteration count, budget (0: free) and syndrome trail,
        # kept by the kernel's step
        self._lanes = self.kernel.new_lanes(batch_size)
        self.doorbell = self._lanes.doorbell
        # per occupied slot: its job and iteration budget
        self._jobs: List[Optional[Tuple[DecodeJob, int]]] = [None] * batch_size
        # occupied slots as bits of one int, and their count
        self._occupied = 0
        self._busy = 0
        # frames admitted since the last step, loaded by the next one
        self._load_slots: List[int] = []
        self._load_llrs: List[np.ndarray] = []

    # ------------------------------------------------------------------
    # slot management
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Frames currently occupying a slot."""
        return self._busy

    @property
    def free_slots(self) -> int:
        """Slots available for :meth:`admit`."""
        return self.batch_size - self._busy

    def admit(self, job: DecodeJob) -> int:
        """Claim the lowest free slot for one job; returns the slot index.

        The frame is loaded into the kernel state by the next
        :meth:`step`, together with every frame admitted before it.

        Raises
        ------
        EngineFullError
            If every slot is occupied.
        DecodingError
            If the job's LLR vector has the wrong length.
        """
        if self._busy == self.batch_size:
            raise EngineFullError(
                f"all {self.batch_size} slots occupied; step() before admitting"
            )
        llrs = np.asarray(job.llrs, dtype=np.float64)
        if llrs.shape != (self.code.n,):
            raise DecodingError(
                f"job {job.job_id}: LLR length {llrs.shape} != ({self.code.n},)"
            )
        occupied = self._occupied
        slot = (~occupied & (occupied + 1)).bit_length() - 1  # lowest 0 bit
        # per-job budget (load shedding lowers it); clamp to [1, engine max]
        budget = job.iteration_budget
        if budget is None:
            budget = self.max_iterations
        budget = min(max(1, int(budget)), self.max_iterations)
        lanes = self._lanes
        lanes.iters[slot] = 0
        lanes.budgets[slot] = budget
        self._occupied = occupied | (1 << slot)
        self._busy += 1
        self._jobs[slot] = (job, budget)
        self._load_slots.append(slot)
        self._load_llrs.append(llrs)
        if self.recorder is not None:
            self.recorder.event("engine.admit", slot=slot, job=job.job_id)
        return slot

    def _width_for(self, slots: int) -> int:
        """Iterated width covering slots ``[0, slots)``: the next power
        of two, capped at the engine's batch size."""
        return min(self.batch_size, 1 << (slots - 1).bit_length())

    def _set_width(self, width: int) -> None:
        if width != self._width:
            self._p, self._r = self.kernel.resize(self._p, self._r, width,
                                                  self.batch_size)
            self._width = width

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> List[CompletedJob]:
        """Iterate the occupied slots until a frame retires.

        Loads the frames admitted since the last step, then one kernel
        call runs layered iterations until at least one frame passes its
        parity checks or spends its iteration budget, or, with a slot
        free, until :attr:`doorbell` is set.  Retires (and returns) every
        such frame; the freed slots can be refilled before the next
        step.
        """
        busy = self._busy
        if busy == 0:
            return []
        rec = self.recorder
        tracing = rec is not None and rec.enabled
        step_t0 = time.perf_counter() if tracing else 0.0

        # Iterate a contiguous state just wide enough for the highest
        # occupied slot (rounded up to a power of two, so the kernel
        # keeps few scratch shapes and re-lays out state only when the
        # width changes).  Free slots below it decode stale state
        # (cheap, harmless); the hot path never gathers/scatters R.
        self._set_width(self._width_for(self._occupied.bit_length()))
        if self._load_slots:
            self.kernel.load_slots(self._p, self._r, self._load_slots,
                                   self._load_llrs)
            self.metrics.frames_in.inc(len(self._load_slots))
            self._load_slots, self._load_llrs = [], []
        # a full engine has no slot to offer: it ignores the doorbell
        iterations, retired = self.kernel.iterate_once(
            self._p, self._r, self._lanes, busy < self.batch_size)
        self.metrics.step_recorded(busy, self.batch_size, iterations)
        if tracing:
            rec.complete("engine.step", step_t0, busy=busy,
                         capacity=self.batch_size, width=self._width,
                         iterations=iterations)
        return self._retire(retired) if retired else []

    def _retire(self, retired: List[int]) -> List[CompletedJob]:
        """Results of the lanes a step retired, and their slots freed."""
        lanes = self._lanes
        used_by = lanes.iters[retired].tolist()
        trails = lanes.trail[retired].tolist()
        bits, llrs = self.kernel.frames_out(self._p, retired)
        now = time.monotonic()
        jobs = self._jobs
        completed: List[CompletedJob] = []
        latencies: List[float] = []
        converged_count = saved = 0
        for i, slot in enumerate(retired):
            job, budget = jobs[slot]
            jobs[slot] = None
            self._occupied &= ~(1 << slot)
            used = used_by[i]
            trail = trails[i][:used]
            converged = trail[-1] == 0
            if converged:
                converged_count += 1
                saved += max(0, budget - used)
            done = CompletedJob(job=job, completed_at=now, result=DecodeResult(
                bits=bits[i],
                converged=converged,
                iterations=used,
                llrs=llrs[i],
                syndrome_weight=trail[-1],
                iteration_syndromes=trail,
            ))
            latencies.append(done.latency_s)
            completed.append(done)
            if self.recorder is not None:
                self.recorder.event(
                    "engine.retire", slot=slot, job=done.job_id,
                    converged=converged, iterations=used,
                )
        self._busy -= len(retired)
        self.metrics.frames_retired(converged_count,
                                    len(retired) - converged_count, saved,
                                    latencies)
        return completed

    def drain(self) -> List[CompletedJob]:
        """Step until every in-flight frame has retired."""
        completed: List[CompletedJob] = []
        while self.in_flight:
            completed.extend(self.step())
        return completed

    # ------------------------------------------------------------------
    # convenience driver
    # ------------------------------------------------------------------
    def run(self, jobs: Iterable[DecodeJob]) -> List[CompletedJob]:
        """Continuously feed ``jobs`` through the slots.

        Admission happens whenever a slot is free (including slots freed
        by early retirement mid-stream), so a long job list keeps the
        batch full; results are returned in the input order.
        """
        pending = deque(
            job if isinstance(job, DecodeJob) else DecodeJob(llrs=np.asarray(job))
            for job in jobs
        )
        order = {job.job_id: i for i, job in enumerate(pending)}
        completed: List[Optional[CompletedJob]] = [None] * len(pending)
        extras: List[CompletedJob] = []

        while pending or self.in_flight:
            while pending and self.free_slots:
                self.admit(pending.popleft())
            for done in self.step():
                pos = order.get(done.job_id)
                if pos is None:
                    # a frame admitted outside this run() call retired here
                    extras.append(done)
                else:
                    completed[pos] = done
        return [c for c in completed if c is not None] + extras
