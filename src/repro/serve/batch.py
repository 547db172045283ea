"""Vectorized batch kernel for layered scaled min-sum decoding.

:class:`BatchLayeredMinSumDecoder` decodes a ``(B, n)`` LLR matrix with
a handful of numpy passes per layer — the software analogue of the
paper's z-way parallel datapath, with frames in place of circulant
lanes.  It is bit-exact with
:class:`~repro.decoder.layered.LayeredMinSumDecoder` in both float and
fixed-point modes; the golden vectors and the differential sweeps pin
the equivalence.  How the passes stay value-identical to the per-frame
update rule:

* **frame-minor layout.**  P is ``(n, B)`` and each sweep's R store is
  ``(degree, rows, B)``, so the batch axis is innermost and every
  gather/scatter/reduction streams over contiguous frame lanes.
* **layer sweeps.**  A pass updates a whole sweep of the plan
  (:attr:`~repro.accel.plan.CodePlan.sweeps`): a maximal run of
  consecutive layers that share no block column and have one degree.
  Disjoint columns mean disjoint P rows, so the fused pass reads and
  writes exactly what the layers would one after another (the paper's
  hazard-free pipelining of layer ``l + 1`` behind layer ``l``); equal
  degree means the stacked edges need no padding or mask.  The code's
  structure alone decides the fusion: NR extension rows fuse, while
  every WiMAX and WiFi code keeps one layer per sweep.
* **running two-min.**  ``min1``/``min2`` come from core1's comparator
  chain over the degree axis (``min2 = min(min2, max(min1, x))``, then
  ``min1 = min(min1, x)``), so ``min2`` is the exact second order
  statistic: a tie at the minimum yields ``min2 == min1``, the value the
  reference's scatter at the first argmin produces.  ``|R'|`` is one
  select, ``min2`` where an edge holds the minimum and ``min1`` elsewhere.
* **sign via parity.**  The outgoing sign is the per-check XOR parity of
  "is negative" bits times the edge's own sign (zero counts as
  positive, like a two's-complement MSB).  The float path applies the
  own sign with one ``np.copysign`` against Q; the fixed path folds the
  parity into the small per-check minima before the select.
* **one-gather syndrome.**  The parity check reads every check's hard
  decisions through the plan's padded check-major index in one gather,
  one XOR reduction and one count, whatever the number of layers.
* **preallocated scratch.**  Per-pass temporaries live in reusable
  buffers, one set per (degree, check rows, batch width); once warm, a
  pass allocates only its per-check ``(rows, B)`` values and the select.
* **narrow fixed-point state.**  The fixed mode stores P and R as
  ``int16`` (every intermediate of the 8-bit datapath provably fits).

The float path normalizes a ``-0.0`` channel LLR to ``+0.0`` — the same
value under IEEE comparison, so it decodes identically.

Converged frames are **retired early**: at every iteration boundary the
per-frame parity checks run, frames whose syndrome is zero are recorded
and removed, and the working arrays are compacted (into fresh
contiguous frame-minor copies) so later iterations spend no work on
finished frames.  The continuous-batching engine
(:mod:`repro.serve.engine`) builds on the same primitives exposed here —
:meth:`iterate_once`, :meth:`syndrome_weights` and the slot accessors —
to refill freed slots with new frames instead of shrinking the batch.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.accel.plan import get_plan
from repro.channel.quantize import MESSAGE_8BIT, FixedPointFormat
from repro.codes.qc import QCLDPCCode
from repro.decoder.layered import DEFAULT_MAX_ITERATIONS
from repro.decoder.minsum import SCALING_FACTOR
from repro.decoder.result import BatchDecodeResult
from repro.errors import DecodingError
from repro.utils.bitops import hard_decision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder

__all__ = ["BatchLayeredMinSumDecoder"]

class _LayerScratch(object):
    """Reusable pass temporaries for one (degree, rows, batch) shape."""

    def __init__(self, degree: int, rows: int, batch: int, dtype) -> None:
        shape = (degree, rows, batch)
        self.q = np.empty(shape, dtype=dtype)
        self.mag = np.empty(shape, dtype=dtype)
        self.neg = np.empty(shape, dtype=bool)
        self.is_min = np.empty(shape, dtype=bool)
        self.tot = np.empty((rows, batch), dtype=bool)
        #: per-check (min1, min2), stacked so one pass scales both
        self.mins = np.empty((2, rows, batch), dtype=dtype)
        self.min1, self.min2 = self.mins
        self.loser = np.empty((rows, batch), dtype=dtype)


class BatchLayeredMinSumDecoder(object):
    """Layered scaled min-sum over a batch of frames.

    Parameters
    ----------
    code:
        The QC-LDPC code (shared by every frame of a batch).
    max_iterations:
        Full-iteration budget per frame (paper: 10).
    scaling_factor:
        Check-message scaling, float mode only (paper: 0.75).
    fixed:
        Bit-accurate 8-bit two's-complement arithmetic.
    fmt:
        Fixed-point message format (default: the paper's 8-bit format).
    early_termination:
        Retire frames as soon as their parity checks pass at an
        iteration boundary (per-frame early exit, as in the paper).
    recorder:
        Optional :class:`~repro.obs.trace.TraceRecorder`; when enabled,
        every sweep emits a ``batch.layer`` span (labelled ``layer``,
        the sweep's first layer, ``layers``, how many layers it fused,
        and ``batch``, the width iterated) and every full iteration a
        ``batch.iteration`` span.  Tracing never touches the
        working arrays, so batch results stay bit-exact with and
        without it.

    Notes
    -----
    Kernel state is frame-minor: P is ``(n, B)`` and R one ``(degree,
    k * z, B)`` array per sweep of ``k`` layers.  The batch driver and the
    continuous-batching engine touch it only through the state
    accessors (``prepare`` / ``load_slot`` / ``frame_bits`` /
    ``compact`` / ``resize`` / ...).
    """

    def __init__(
        self,
        code: QCLDPCCode,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        scaling_factor: float = SCALING_FACTOR,
        fixed: bool = False,
        fmt: FixedPointFormat = MESSAGE_8BIT,
        early_termination: bool = True,
        recorder: "Optional[TraceRecorder]" = None,
    ) -> None:
        if max_iterations < 1:
            raise DecodingError(f"max_iterations must be >= 1, got {max_iterations}")
        if not 0.0 < scaling_factor <= 1.0:
            raise DecodingError(
                f"scaling_factor must be in (0, 1], got {scaling_factor}"
            )
        self.code = code
        self.max_iterations = max_iterations
        self.scaling_factor = scaling_factor
        self.fixed = fixed
        self.fmt = fmt
        self.early_termination = early_termination
        self.recorder = recorder
        # Cached routing tables (gather indices) shared by every decoder
        # of this code structure.
        self.plan = get_plan(code)
        self._dtype = np.int16 if fixed else np.float64
        #: fixed-mode saturation bounds, as int16 scalars for np.clip
        self._lo = np.int16(fmt.min_code)
        self._hi = np.int16(fmt.max_code)
        #: min identity (the column kernel masks an edge out with it):
        #: +inf for floats, int16 max for codes
        self._big = np.int16(np.iinfo(np.int16).max) if fixed else np.inf
        self._scratch: Dict[Tuple[int, int, int], _LayerScratch] = {}
        #: syndrome hard-decision buffers, ``(n + 1, A)`` per state width A
        self._syndrome_bits: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # state primitives (shared with the continuous-batching engine)
    # ------------------------------------------------------------------
    def prepare(self, llrs_2d: np.ndarray) -> np.ndarray:
        """Channel LLRs ``(B, n)`` -> frame-minor ``(n, B)`` P state."""
        llrs = np.asarray(llrs_2d, dtype=np.float64)
        if llrs.ndim != 2 or llrs.shape[1] != self.code.n:
            raise DecodingError(
                f"LLR matrix shape {llrs.shape} != (B, {self.code.n})"
            )
        if self.fixed:
            llrs = self.fmt.quantize(llrs)
        p = np.array(llrs.T, dtype=self._dtype, order="C")  # always a copy
        if not self.fixed:
            # normalize -0.0 -> +0.0 so copysign() reads the same edge
            # sign as the reference's `q < 0` test (see module notes)
            p += 0.0
        return p

    def new_r_state(self, batch: int) -> List[np.ndarray]:
        """Zeroed per-sweep R messages in ``(degree, rows, batch)`` layout."""
        return [
            np.zeros(sw.var_idx.shape + (batch,), dtype=self._dtype)
            for sw in self.plan.sweeps
        ]

    def iterate_once(self, p: np.ndarray, r: List[np.ndarray]) -> None:
        """Run one full iteration (all sweeps) in place on ``(n, A)`` state."""
        rec = self.recorder
        tracing = rec is not None and rec.enabled
        batch = p.shape[1]
        mode = "fixed" if self.fixed else "float"
        for sw, rs in zip(self.plan.sweeps, r):
            if tracing:
                layer_t0 = time.perf_counter()
            idx = sw.var_idx
            s = self._layer_scratch(*idx.shape, batch)
            p[idx] = self._check_update(p, rs, idx, s)
            if tracing:
                rec.complete("batch.layer", layer_t0, layer=sw.layers[0],
                             layers=len(sw.layers), batch=batch, mode=mode)

    def syndrome_weights(self, p: np.ndarray, frames=None) -> np.ndarray:
        """Unsatisfied-check count per frame of an ``(n, A)`` P state.

        ``frames`` optionally restricts the result to a subset of frames
        (an index array).  One gather through the plan's padded
        check-major index reads every check's hard decisions at once
        (pad entries hit the bit buffer's zero last row), so the call
        count does not grow with the number of layers.  The bit buffer
        is kept per state width, which the engine holds to a few powers
        of two.
        """
        bits = self._syndrome_bits.get(p.shape[1])
        if bits is None:
            bits = np.zeros((self.code.n + 1, p.shape[1]), dtype=bool)
            self._syndrome_bits[p.shape[1]] = bits
        np.less(p, 0, out=bits[:-1])   # hard decision; last row stays 0
        edges = np.take(bits, self.plan.check_idx, axis=0)
        weights = np.count_nonzero(np.logical_xor.reduce(edges, axis=0), axis=0)
        return weights if frames is None else weights[frames]

    def finalize_llrs(self, p: np.ndarray) -> np.ndarray:
        """Frame-minor P state -> ``(A, n)`` a-posteriori LLRs."""
        if self.fixed:
            return self.fmt.dequantize(p.T)
        return np.asarray(p.T, dtype=np.float64)

    # ------------------------------------------------------------------
    # state-layout accessors
    # ------------------------------------------------------------------
    def batch_of(self, p: np.ndarray) -> int:
        """Number of frames held by P state ``p``."""
        return int(p.shape[1])

    def load_slot(
        self, p: np.ndarray, r: List[np.ndarray], slot: int, llrs: np.ndarray
    ) -> None:
        """Overwrite slot ``slot`` with a fresh frame's initial state."""
        p[:, slot] = self.prepare(llrs[None, :])[:, 0]
        for rl in r:
            rl[:, :, slot] = 0

    def frame_bits(self, p: np.ndarray, frame: int) -> np.ndarray:
        """Hard-decision bits of one frame of P state."""
        return hard_decision(p[:, frame])

    def frame_llrs(self, p: np.ndarray, frame: int) -> np.ndarray:
        """Finalized a-posteriori LLRs of one frame of P state.

        Always a copy: the caller holds the result beyond the slot's
        lifetime, while ``finalize_llrs`` may return a view in float
        mode.
        """
        return self.finalize_llrs(p[:, frame : frame + 1])[0].copy()

    def frames_bits(self, p: np.ndarray, sel) -> np.ndarray:
        """Hard-decision bits ``(K, n)`` of the selected frames."""
        return hard_decision(p[:, sel].T)

    def frames_llrs(self, p: np.ndarray, sel) -> np.ndarray:
        """Finalized LLRs ``(K, n)`` of the selected frames."""
        return self.finalize_llrs(p[:, sel])

    def compact(
        self, p: np.ndarray, r: List[np.ndarray], keep: np.ndarray
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Drop retired frames from the working state (boolean mask).

        ``compress`` copies in C order, so the surviving state stays
        frame-minor and contiguous for the remaining iterations.
        """
        return p.compress(keep, axis=1), [rl.compress(keep, axis=2) for rl in r]

    def resize(
        self, p: np.ndarray, r: List[np.ndarray], width: int
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Contiguous copy of the state at batch width ``width``.

        The first ``min(width, current)`` frames carry over; frames
        beyond the old width start from zeroed P and R.
        """
        keep = min(width, p.shape[1])
        new_p = np.zeros((p.shape[0], width), dtype=p.dtype)
        new_p[:, :keep] = p[:, :keep]
        new_r = self.new_r_state(width)
        for old, new in zip(r, new_r):
            new[:, :, :keep] = old[:, :, :keep]
        return new_p, new_r

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def decode(self, llrs_2d: np.ndarray) -> BatchDecodeResult:
        """Decode a ``(B, n)`` LLR matrix; rows are independent frames."""
        p = self.prepare(llrs_2d)
        batch = self.batch_of(p)

        out_bits = np.zeros((batch, self.code.n), dtype=np.uint8)
        out_llrs = np.zeros((batch, self.code.n), dtype=np.float64)
        out_converged = np.zeros(batch, dtype=bool)
        out_iterations = np.zeros(batch, dtype=np.int64)
        out_weights = np.zeros(batch, dtype=np.int64)
        out_syndromes: List[List[int]] = [[] for _ in range(batch)]

        if batch == 0:
            return BatchDecodeResult(
                bits=out_bits,
                converged=out_converged,
                iterations=out_iterations,
                llrs=out_llrs,
                syndrome_weights=out_weights,
                iteration_syndromes=out_syndromes,
                max_iterations=self.max_iterations,
            )

        r = self.new_r_state(batch)
        active = np.arange(batch)
        rec = self.recorder
        tracing = rec is not None and rec.enabled

        for it in range(self.max_iterations):
            it_t0 = time.perf_counter() if tracing else 0.0
            self.iterate_once(p, r)
            weights = self.syndrome_weights(p)
            if tracing:
                rec.complete("batch.iteration", it_t0, iteration=it,
                             active=int(len(active)))
            for j, frame in enumerate(active):
                out_syndromes[frame].append(int(weights[j]))

            if self.early_termination:
                done = weights == 0
            else:
                done = np.zeros(len(active), dtype=bool)
            if it == self.max_iterations - 1:
                done = np.ones(len(active), dtype=bool)

            if done.any():
                retired = active[done]
                out_bits[retired] = self.frames_bits(p, done)
                out_llrs[retired] = self.frames_llrs(p, done)
                out_converged[retired] = weights[done] == 0
                out_iterations[retired] = it + 1
                out_weights[retired] = weights[done]

                keep = ~done
                if not keep.any():
                    break
                p, r = self.compact(p, r, keep)
                active = active[keep]

        return BatchDecodeResult(
            bits=out_bits,
            converged=out_converged,
            iterations=out_iterations,
            llrs=out_llrs,
            syndrome_weights=out_weights,
            iteration_syndromes=out_syndromes,
            max_iterations=self.max_iterations,
        )

    # ------------------------------------------------------------------
    # the layer update
    # ------------------------------------------------------------------
    def _layer_scratch(
        self, degree: int, rows: int, batch: int
    ) -> _LayerScratch:
        key = (degree, rows, batch)
        scratch = self._scratch.get(key)
        if scratch is None:
            scratch = _LayerScratch(degree, rows, batch, self._dtype)
            self._scratch[key] = scratch
        return scratch

    def _two_min(self, s: _LayerScratch, degree: int):
        """Exact per-check ``(min1, min2)`` from ``s.mag``, as ``s.mins``.

        Core1's min-finder in software, a running comparator chain over
        the edges: each new magnitude ``x`` first lets the loser of ``x``
        vs ``min1`` compete for ``min2``, then updates ``min1``.
        ``min2`` is therefore the second order statistic, so a tie at
        the minimum gives ``min2 == min1`` — the per-frame kernel's
        min2-at-first-argmin value.  A degree-1 check reports ``min1``
        twice.
        """
        mag, min1, min2 = s.mag, s.min1, s.min2
        if degree == 1:
            np.copyto(s.mins, mag[0])
            return s.mins
        np.minimum(mag[0], mag[1], out=min1)
        np.maximum(mag[0], mag[1], out=min2)
        for x in mag[2:]:
            np.maximum(min1, x, out=s.loser)
            np.minimum(min2, s.loser, out=min2)
            np.minimum(min1, x, out=min1)
        return s.mins

    def _gather_q(
        self, p: np.ndarray, rl: np.ndarray, idx: np.ndarray, s: _LayerScratch
    ) -> None:
        """Core1 front half, shared by both schedules.

        Gathers ``Q = P[idx] - R`` into ``s.q`` (saturated in fixed
        mode), ``|Q|`` into ``s.mag``, the "is negative" bits into
        ``s.neg`` and each check's sign parity into ``s.tot``.
        """
        q = s.q
        batch = q.shape[-1]
        np.take(p, idx.reshape(-1), axis=0, out=q.reshape(-1, batch))
        np.subtract(q, rl, out=q)                 # Q = P - R
        if self.fixed:
            # |P|,|R| <= 127: the int16 difference fits; saturate Q
            np.clip(q, self._lo, self._hi, out=q)
        np.absolute(q, out=s.mag)
        np.less(q, 0, out=s.neg)   # -0.0 counts positive, as in hardware
        np.logical_xor.reduce(s.neg, axis=0, out=s.tot)  # check parity

    def _scale(self, mag: np.ndarray) -> np.ndarray:
        """Scaled message magnitudes: 0.75 shift-add in fixed mode."""
        if self.fixed:
            return ((3 * mag.astype(np.int32)) >> 2).astype(np.int16)
        return self.scaling_factor * mag

    def _check_update(
        self, p: np.ndarray, rl: np.ndarray, idx: np.ndarray, s: _LayerScratch
    ) -> np.ndarray:
        """One pass's check-node update on frame-minor state.

        Writes the outgoing ``R'`` of every edge into ``rl`` and returns
        ``P' = Q + R'`` (a view into ``s.q``) for the caller to scatter
        back.
        """
        self._gather_q(p, rl, idx, s)
        q = s.q
        mins = self._two_min(s, idx.shape[0])
        np.equal(s.mag, mins[0], out=s.is_min)
        # scaling the per-check minima gives the same values as scaling
        # every edge: each edge carries min1 or min2
        scaled = self._scale(mins)
        if self.fixed:
            # outgoing sign = check parity * own sign; the parity folds
            # into the (2, z, B) minima before the select
            scaled *= np.int16(1) - np.int16(2) * s.tot
        s1, s2 = scaled
        sel = np.where(s.is_min, s2, s1)         # min2 at argmin, min1 elsewhere
        if self.fixed:
            np.multiply(sel, 1 - 2 * s.neg.view(np.int8), out=rl)
        else:
            np.copysign(sel, q, out=rl)
            np.multiply(rl, 1.0 - 2.0 * s.tot, out=rl)
        np.add(q, rl, out=q)                     # P' = Q + R'
        if self.fixed:
            # |Q|+|R'| <= 222: the int16 sum fits; saturate P'
            np.clip(q, self._lo, self._hi, out=q)
        return q
