"""Vectorized batch kernel for layered scaled min-sum decoding.

:class:`BatchLayeredMinSumDecoder` decodes a ``(B, n)`` LLR matrix with
a handful of numpy passes per layer — the software analogue of the
paper's z-way parallel datapath, with frames in place of circulant
lanes.  It is bit-exact with
:class:`~repro.decoder.layered.LayeredMinSumDecoder` in both float and
fixed-point modes; the golden vectors and the differential sweeps pin
the equivalence.  How the passes stay value-identical to the per-frame
update rule:

* **frame-minor layout.**  P is ``(n, B)`` and each layer's R store is
  ``(degree, z, B)``, so the batch axis is innermost and every
  gather/scatter/reduction streams over contiguous frame lanes.
* **argmin-free two-min search.**  ``min2`` is the second order
  statistic: a plain ``min`` plus a masked ``min`` over the non-minimum
  entries, with a tie-count correction that reproduces the reference
  first-edge tie-break exactly.
* **sign via parity.**  The outgoing sign is the per-check XOR parity of
  "is negative" bits times the edge's own sign (zero counts as
  positive, like a two's-complement MSB); the float path applies the
  own sign with one ``np.copysign`` against Q.
* **preallocated scratch.**  Per-layer temporaries live in reusable
  buffers, one set per (layer degree, batch width), so the hot loop
  allocates nothing once warm.
* **narrow fixed-point state.**  The fixed mode stores P and R as
  ``int16`` (every intermediate of the 8-bit datapath provably fits).

The float path normalizes a ``-0.0`` channel LLR to ``+0.0`` — the same
value under IEEE comparison, so it decodes identically.

Converged frames are **retired early**: at every iteration boundary the
per-frame parity checks run, frames whose syndrome is zero are recorded
and removed, and the working arrays are compacted so later iterations
spend no work on finished frames.  The continuous-batching engine
(:mod:`repro.serve.engine`) builds on the same primitives exposed here —
:meth:`iterate_once`, :meth:`syndrome_weights` and the slot accessors —
to refill freed slots with new frames instead of shrinking the batch.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

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
    """Reusable per-layer temporaries for one (degree, z, batch) shape."""

    def __init__(self, degree: int, z: int, batch: int, dtype) -> None:
        shape = (degree, z, batch)
        self.q = np.empty(shape, dtype=dtype)
        self.mag = np.empty(shape, dtype=dtype)
        self.neg = np.empty(shape, dtype=bool)
        self.is_min = np.empty(shape, dtype=bool)
        self.notmin = np.empty(shape, dtype=bool)
        self.sel = np.empty(shape, dtype=dtype)
        self.tot = np.empty((z, batch), dtype=bool)
        self.min1 = np.empty((z, batch), dtype=dtype)
        self.mmin = np.empty((z, batch), dtype=dtype)
        self.cnt = np.empty((z, batch), dtype=np.int16)


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
    layer_order:
        Optional permutation of layer indices per iteration.
    recorder:
        Optional :class:`~repro.obs.trace.TraceRecorder`; when enabled,
        every layer sweep emits a ``batch.layer`` span (labelled with
        the layer index and the batch width iterated) and every full
        iteration a ``batch.iteration`` span.  Tracing never touches the
        working arrays, so batch results stay bit-exact with and
        without it.

    Notes
    -----
    Kernel state is frame-minor: P is ``(n, B)`` and R one ``(degree,
    z, B)`` array per layer.  The batch driver and the
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
        layer_order: Optional[Sequence[int]] = None,
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
        if layer_order is None:
            self.layer_order = list(range(code.num_layers))
        else:
            self.layer_order = [int(i) for i in layer_order]
            if sorted(self.layer_order) != list(range(code.num_layers)):
                raise DecodingError(
                    "layer_order must be a permutation of the layer indices"
                )
        self._dtype = np.int16 if fixed else np.float64
        #: fixed-mode saturation bounds, as int16 scalars for np.clip
        self._lo = np.int16(fmt.min_code)
        self._hi = np.int16(fmt.max_code)
        #: masked-min identity: +inf for floats, int16 max for codes
        self._big = np.int16(np.iinfo(np.int16).max) if fixed else np.inf
        self._scratch: Dict[Tuple[int, int], _LayerScratch] = {}

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
        """Zeroed per-layer R messages in ``(degree, z, batch)`` layout."""
        return [
            np.zeros((lp.degree, self.plan.z, batch), dtype=self._dtype)
            for lp in self.plan.layers
        ]

    def iterate_once(self, p: np.ndarray, r: List[np.ndarray]) -> None:
        """Run one full iteration (all layers) in place on ``(n, A)`` state."""
        rec = self.recorder
        tracing = rec is not None and rec.enabled
        batch = p.shape[1]
        mode = "fixed" if self.fixed else "float"
        for l in self.layer_order:
            if tracing:
                layer_t0 = time.perf_counter()
            idx = self.plan.layers[l].var_idx
            s = self._layer_scratch(idx.shape[0], batch)
            p[idx] = self._check_update(p, r[l], idx, s)
            if tracing:
                rec.complete("batch.layer", layer_t0, layer=l,
                             batch=batch, mode=mode)

    def syndrome_weights(self, p: np.ndarray, frames=None) -> np.ndarray:
        """Unsatisfied-check count per frame of an ``(n, A)`` P state.

        ``frames`` optionally restricts the computation to a subset of
        frames (an index array).
        """
        if frames is not None:
            p = p[:, frames]
        bits = hard_decision(p)
        weights = np.zeros(p.shape[1], dtype=np.int64)
        for lp in self.plan.layers:
            vals = bits[lp.var_idx]  # (degree, z, A)
            weights += np.count_nonzero(
                np.bitwise_xor.reduce(vals, axis=0), axis=0
            )
        return weights

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
        """Drop retired frames from the working state (boolean mask)."""
        return p[:, keep], [rl[:, :, keep] for rl in r]

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
    def _layer_scratch(self, degree: int, batch: int) -> _LayerScratch:
        key = (degree, batch)
        scratch = self._scratch.get(key)
        if scratch is None:
            scratch = _LayerScratch(degree, self.plan.z, batch, self._dtype)
            self._scratch[key] = scratch
        return scratch

    def _two_min(self, s: _LayerScratch, degree: int):
        """Reference-exact (min1, min2) per check from ``s.mag``.

        ``min2`` is the second order statistic: a plain min, then a
        masked min over the non-minimum entries; a tie (two edges at the
        minimum) makes the true second-min equal the min itself, which
        the ``cnt > 1`` correction restores — matching the per-frame
        kernel's scatter-at-first-argmin semantics exactly.
        """
        mag = s.mag
        np.min(mag, axis=0, out=s.min1)
        np.equal(mag, s.min1[None], out=s.is_min)
        np.logical_not(s.is_min, out=s.notmin)
        if degree == 1:
            return s.min1, s.min1
        np.add.reduce(s.is_min, axis=0, dtype=np.int16, out=s.cnt)
        np.min(mag, axis=0, where=s.notmin, initial=self._big, out=s.mmin)
        min2 = np.where(s.cnt > 1, s.min1, s.mmin)
        return s.min1, min2

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
        """One layer's check-node update on frame-minor state.

        Writes the outgoing ``R'`` of every edge into ``rl`` and returns
        ``P' = Q + R'`` (a view into ``s.q``) for the caller to scatter
        back.
        """
        self._gather_q(p, rl, idx, s)
        q = s.q
        min1, min2 = self._two_min(s, idx.shape[0])
        # scaling the per-check minima gives the same values as scaling
        # every edge: each edge carries min1 or min2
        s1 = self._scale(min1)
        s2 = self._scale(min2)
        np.multiply(s.is_min, s2, out=rl)        # |R'|: min2 at argmin,
        np.multiply(s.notmin, s1, out=s.sel)
        np.add(rl, s.sel, out=rl)                # ... min1 elsewhere
        # outgoing sign = check parity * own sign
        if self.fixed:
            np.multiply(s.neg, np.int16(-2), out=s.sel)
            np.add(s.sel, np.int16(1), out=s.sel)  # 1 - 2*neg
            np.multiply(rl, s.sel, out=rl)
            np.multiply(rl, np.int16(1) - np.int16(2) * s.tot, out=rl)
        else:
            np.copysign(rl, q, out=rl)
            np.multiply(rl, 1.0 - 2.0 * s.tot, out=rl)
        np.add(q, rl, out=q)                     # P' = Q + R'
        if self.fixed:
            # |Q|+|R'| <= 222: the int16 sum fits; saturate P'
            np.clip(q, self._lo, self._hi, out=q)
        return q
