"""Continuous-batching engine: slot reuse across frames.

The LLM-inference continuous-batching pattern applied to LDPC decoding:
an engine owns ``batch_size`` decoder slots; every :meth:`step` runs one
full layered iteration over the *occupied* slots only, retires frames
whose parity checks pass (or whose iteration budget is spent), and the
freed slots are immediately available to :meth:`admit` new frames — so
a saturated engine never idles a slot waiting for the slowest frame of
a fixed batch, exactly the way the paper's two-layer pipelined
architecture keeps core1/core2 busy across layers via its scoreboard.
Admission fills the lowest free slot, and a step iterates a contiguous
state only as wide as the highest occupied slot (rounded up to a power
of two): slots above it are not stepped at all — the software form of
the paper's clock gating of idle blocks.

Frames in the same engine share one code (and hence one LLR length);
mixed-rate traffic is sharded across engines by the worker pool in
:mod:`repro.serve.pool`.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

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
from repro.utils.bitops import hard_decision

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
        slot fill/free and an ``engine.step`` span per layered
        iteration (labelled ``busy`` / ``capacity`` / ``width``), and
        forwards the recorder to the batch kernel for
        ``batch.layer`` attribution.
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
        self._occupied = np.zeros(batch_size, dtype=bool)
        self._iters = np.zeros(batch_size, dtype=np.int64)
        self._budgets = np.full(batch_size, max_iterations, dtype=np.int64)
        self._jobs: List[Optional[DecodeJob]] = [None] * batch_size
        self._syndromes: List[List[int]] = [[] for _ in range(batch_size)]
        # frames admitted above the current width, loaded by the next
        # step's re-layout (at most one re-layout per step)
        self._pending: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # slot management
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Frames currently occupying a slot."""
        return int(np.count_nonzero(self._occupied))

    @property
    def free_slots(self) -> int:
        """Slots available for :meth:`admit`."""
        return self.batch_size - self.in_flight

    def admit(self, job: DecodeJob) -> int:
        """Place one job into a free slot; returns the slot index.

        Raises
        ------
        EngineFullError
            If every slot is occupied.
        DecodingError
            If the job's LLR vector has the wrong length.
        """
        free = np.flatnonzero(~self._occupied)
        if free.size == 0:
            raise EngineFullError(
                f"all {self.batch_size} slots occupied; step() before admitting"
            )
        llrs = np.asarray(job.llrs, dtype=np.float64)
        if llrs.shape != (self.code.n,):
            raise DecodingError(
                f"job {job.job_id}: LLR length {llrs.shape} != ({self.code.n},)"
            )
        slot = int(free[0])
        if slot < self._width:
            self.kernel.load_slot(self._p, self._r, slot, llrs)
        else:
            self._pending[slot] = llrs
        self._occupied[slot] = True
        self._iters[slot] = 0
        # per-job budget (load shedding lowers it); clamp to [1, engine max]
        budget = job.iteration_budget
        if budget is None:
            budget = self.max_iterations
        self._budgets[slot] = min(max(1, int(budget)), self.max_iterations)
        self._jobs[slot] = job
        self._syndromes[slot] = []
        self.metrics.frames_in.inc()
        if self.recorder is not None:
            self.recorder.event("engine.admit", slot=slot, job=job.job_id)
        return slot

    def _width_for(self, slots: int) -> int:
        """Iterated width covering slots ``[0, slots)``: the next power
        of two, capped at the engine's batch size."""
        return min(self.batch_size, 1 << (slots - 1).bit_length())

    def _set_width(self, width: int) -> None:
        if width != self._width:
            self._p, self._r = self.kernel.resize(self._p, self._r, width)
            self._width = width

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> List[CompletedJob]:
        """Run one layered iteration over the occupied slots.

        Retires (and returns) every frame whose parity checks pass or
        whose iteration budget is exhausted; the freed slots can be
        refilled before the next step.
        """
        act = np.flatnonzero(self._occupied)
        if act.size == 0:
            return []
        rec = self.recorder
        tracing = rec is not None and rec.enabled
        step_t0 = time.perf_counter() if tracing else 0.0

        # Iterate a contiguous state just wide enough for the highest
        # occupied slot (rounded up to a power of two, so the kernel
        # keeps few scratch shapes and re-lays out state only when the
        # width changes).  Free slots below it decode stale state
        # (cheap, harmless); the hot path never gathers/scatters R.
        self._set_width(self._width_for(int(act[-1]) + 1))
        for slot, llrs in self._pending.items():
            self.kernel.load_slot(self._p, self._r, slot, llrs)
        self._pending.clear()
        self.kernel.iterate_once(self._p, self._r)
        p = self._p

        self._iters[act] += 1
        weights = self.kernel.syndrome_weights(p, frames=act)
        self.metrics.step_recorded(int(act.size), self.batch_size)
        if tracing:
            rec.complete("engine.step", step_t0, busy=int(act.size),
                         capacity=self.batch_size, width=self._width)

        completed: List[CompletedJob] = []
        for j, slot in enumerate(act):
            slot = int(slot)
            weight = int(weights[j])
            self._syndromes[slot].append(weight)
            converged = weight == 0
            if not converged and self._iters[slot] < self._budgets[slot]:
                continue
            job = self._jobs[slot]
            # one strided gather per frame: the bits are the signs of
            # the contiguous LLR copy (dequantizing keeps every sign)
            llrs = self.kernel.frame_llrs(p, slot)
            result = DecodeResult(
                bits=hard_decision(llrs),
                converged=converged,
                iterations=int(self._iters[slot]),
                llrs=llrs,
                syndrome_weight=weight,
                iteration_syndromes=list(self._syndromes[slot]),
            )
            done = CompletedJob(job=job, result=result)
            self.metrics.frame_retired(
                converged=converged,
                iterations=result.iterations,
                max_iterations=int(self._budgets[slot]),
                latency_s=done.latency_s,
            )
            self._occupied[slot] = False
            self._jobs[slot] = None
            completed.append(done)
            if self.recorder is not None:
                self.recorder.event(
                    "engine.retire", slot=slot, job=done.job_id,
                    converged=converged, iterations=result.iterations,
                )
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
