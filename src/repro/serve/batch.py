"""Batch kernel for layered scaled min-sum decoding.

:class:`BatchLayeredMinSumDecoder` decodes a ``(B, n)`` LLR matrix the
way the paper's z-way parallel datapath does, with frames as extra
lanes.  One iteration is one call into ``repro/accel/kernel.c``, the
paper's C loop nest (per layer, per block column: barrel shift, core1,
then core2's write-back) compiled at first use by
:mod:`repro.accel.native`; the syndrome is a second call.  A
continuous-batching engine step is one call in all: ``ldpc_step_*``
iterates, counts each lane's unsatisfied checks and retires lanes,
iteration after iteration, until a lane retires or the engine's doorbell
rings (:class:`Lanes`).  Without a C compiler the same state is iterated
by a handful of numpy passes per layer instead, and the step is a Python
loop over them, bit for bit the same.  Both are bit-exact with
:class:`~repro.decoder.layered.LayeredMinSumDecoder` in float and
fixed-point modes; the golden vectors and the differential tests pin
the equivalence.  How the passes stay value-identical to the per-frame
update rule:

* **frame-minor layout.**  P is ``(n, B)`` and R one contiguous
  ``(E * z + 1, B)`` buffer, edges numbered layer by layer so that edge
  ``e`` owns rows ``e * z .. (e + 1) * z``; each layer's ``(degree, z,
  B)`` block is a view.  The batch axis is innermost, so every
  gather/scatter/reduction streams over contiguous frame lanes; a
  circulant's rotation is two contiguous runs (the barrel shifter).
* **fresh-lane row.**  R's last row is a per-frame keep mask, the
  software form of a hardware decoder's first-iteration flag: loading a
  frame clears its entry instead of zeroing its R column.  The C loop
  reads R as ``R & keep``, so a fresh frame sees ``R = 0`` bit for bit;
  the numpy passes zero the fresh frames' R columns once at the start
  of their iteration.  Either way every entry is all-ones afterwards,
  and the row moves with the state through ``compact`` and ``resize``.
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
* **one-call syndrome.**  The parity check is one call (numpy: one
  gather and one XOR reduction per layer, as the C loop does).
* **preallocated scratch.**  Temporaries live in reusable buffers, one
  set per batch width (numpy: per degree and width); the C loop's is a
  few L1-sized tiles, not a copy of the layer.  ``resize`` copies the
  state into one of two re-layout buffers, in turn, instead of
  allocating a new one.
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
:meth:`iterate_once` with its :class:`Lanes` and the slot accessors —
to refill freed slots with new frames instead of shrinking the batch.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.accel import native
from repro.accel.plan import CodePlan, get_plan
from repro.channel.quantize import MESSAGE_8BIT, FixedPointFormat
from repro.codes.qc import QCLDPCCode
from repro.decoder.layered import DEFAULT_MAX_ITERATIONS
from repro.decoder.minsum import SCALING_FACTOR
from repro.decoder.result import BatchDecodeResult
from repro.errors import DecodingError
from repro.utils.bitops import hard_decision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder

__all__ = ["BatchLayeredMinSumDecoder", "Lanes"]


def _edge_tables(plan: CodePlan) -> Tuple[np.ndarray, np.ndarray]:
    """Routing tables of ``kernel.c``.

    Returns ``layer_edge`` (``num_layers + 1`` offsets into the edge
    list) and ``edges`` (``(E, 2)``: the block column's first variable
    and the circulant shift).  Edges are numbered layer by layer, the
    order of the R buffer, so edge ``e``'s messages are R rows ``e * z
    .. (e + 1) * z``.
    """
    layer_edge = np.cumsum([0] + [lp.degree for lp in plan.layers])
    cols = np.concatenate([lp.block_cols for lp in plan.layers])
    shifts = np.concatenate([lp.shifts for lp in plan.layers])
    edges = np.stack([cols * plan.z, shifts % plan.z], axis=1)
    return layer_edge.astype(np.int32), edges.astype(np.int32)


class Lanes(object):
    """Per-lane state of an engine step, in arrays ``kernel.c`` reads
    and writes in place.

    ``iters`` counts the iterations the frame in each lane has run,
    ``budgets`` holds its iteration budget (0 marks a free lane, and a
    step sets it to 0 when the lane retires), ``trail`` holds each
    lane's unsatisfied-check count per iteration and ``retired`` the
    compiled step's output: the count ``n``, then ``n`` lanes.  ``doorbell`` is a
    one-element flag another thread sets after queueing work; a step
    told to listen reads it between iterations and returns early.
    """

    def __init__(self, capacity: int, max_iterations: int) -> None:
        self.capacity = capacity
        self.max_iterations = max_iterations
        self.iters = np.zeros(capacity, dtype=np.int64)
        self.budgets = np.zeros(capacity, dtype=np.int64)
        self.trail = np.zeros((capacity, max_iterations), dtype=np.int64)
        self.retired = np.zeros(capacity + 1, dtype=np.int64)
        self.doorbell = np.zeros(1, dtype=np.int32)
        head = (self.iters.ctypes.data, self.budgets.ctypes.data,
                self.trail.ctypes.data, max_iterations,
                self.retired.ctypes.data)
        #: trailing ``ldpc_step_*`` arguments, deaf and listening
        self.args = (head + (None,), head + (self.doorbell.ctypes.data,))

    def check(self, width: int) -> None:
        """Refuse a state wider than these lanes."""
        if width > self.capacity:
            raise DecodingError(
                f"state of {width} frames exceeds {self.capacity} lanes")

    def spent(self) -> DecodingError:
        """The error for a busy lane with no iteration left."""
        return DecodingError(
            "a busy lane has no iteration left: iters must stay below "
            f"max_iterations={self.max_iterations}")


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
    recorder:
        Optional :class:`~repro.obs.trace.TraceRecorder`; when enabled,
        every layer of every iteration emits a ``batch.layer`` span
        (labelled ``layer``, ``batch``, the width iterated, and
        ``mode``) and every full iteration of :meth:`decode` a
        ``batch.iteration`` span.  Tracing never touches
        the working arrays, so batch results stay bit-exact with and
        without it.

    Notes
    -----
    Kernel state is frame-minor: P is ``(n, B)`` and R one ``(degree,
    z, B)`` view per layer into one ``(E * z + 1, B)`` buffer whose last
    row marks fresh frames.  The batch driver and the
    continuous-batching engine touch it only through the state
    accessors (``prepare`` / ``load_slots`` / ``frames_out`` /
    ``compact`` / ``resize`` / ...).  :meth:`decode` retires each
    frame at the first iteration boundary where its parity checks pass
    (per-frame early exit, as in the paper).
    """

    def __init__(
        self,
        code: QCLDPCCode,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        scaling_factor: float = SCALING_FACTOR,
        fixed: bool = False,
        fmt: FixedPointFormat = MESSAGE_8BIT,
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
        self.recorder = recorder
        # Cached routing tables (gather indices) shared by every decoder
        # of this code structure.
        self.plan = get_plan(code)
        self._dtype = np.int16 if fixed else np.float64
        #: the fresh-lane row's integer view: 0 fresh, -1 (all ones) kept
        self._mask_dtype = np.int16 if fixed else np.int64
        #: fixed-mode saturation bounds, as int16 scalars for np.clip
        self._lo = np.int16(fmt.min_code)
        self._hi = np.int16(fmt.max_code)
        #: min identity (the column kernel masks an edge out with it):
        #: +inf for floats, int16 max for codes
        self._big = np.int16(np.iinfo(np.int16).max) if fixed else np.inf
        self._scratch: Dict[Tuple[int, int], _LayerScratch] = {}
        #: R layout: one ``(degree, z)`` block per layer, stacked
        #: frame-minor into one ``(E * z + 1, B)`` buffer after which
        #: comes the fresh-lane row
        self._r_blocks = [lp.var_idx.shape for lp in self.plan.layers]
        #: the compiled layer loop nest (None: the numpy path below)
        self._native = native.load()
        #: the compiled engine step (None: a Python loop over iterations)
        self._step_fn = None
        #: (first R view, width, buffer) of the last R state checked
        self._r_checked: Optional[tuple] = None
        #: resize's two re-layout buffer pairs, ``(flat P, {width: (P,
        #: R views, R buffer)}, flat R)``, and the pair used last
        self._relayout = [(np.zeros(0, self._dtype), {},
                           np.zeros(0, self._dtype)) for _ in range(2)]
        self._relayout_pick = 1
        if self._native is not None:
            self._bind_native()

    def _bind_native(self) -> None:
        """Routing tables, entry points and constants of ``kernel.c``."""
        kernel = self._native
        self._layer_edge, self._edges = _edge_tables(self.plan)
        #: leading arguments of every entry point: tables, layer count
        self._tables = (self._layer_edge.ctypes.data, self._edges.ctypes.data,
                        self.plan.num_layers)
        #: a traced step's clock readings, one per layer boundary of up
        #: to max_iterations iterations
        self._stamps = np.zeros(self.max_iterations * self.plan.num_layers + 1)
        self._stamps_addr = self._stamps.ctypes.data
        self._span_labels: Dict[int, list] = {}
        if self.fixed:
            self._iterate_fn = kernel.iterate_i16
            self._syndrome_fn = kernel.syndrome_i16
            self._step_fn = kernel.step_i16
            self._consts: tuple = (int(self._lo), int(self._hi))
        else:
            self._iterate_fn = kernel.iterate_f64
            self._syndrome_fn = kernel.syndrome_f64
            self._step_fn = kernel.step_f64
            self._consts = (float(self.scaling_factor),)
        self._native_bufs: Dict[int, tuple] = {}
        #: (P, first R view, call arguments) of the last state iterated
        self._bound: Optional[tuple] = None

    # ------------------------------------------------------------------
    # state primitives (shared with the continuous-batching engine)
    # ------------------------------------------------------------------
    def prepare(self, llrs_2d: np.ndarray) -> np.ndarray:
        """Channel LLRs ``(B, n)`` -> frame-minor ``(n, B)`` P state."""
        return np.array(self._channel(llrs_2d).T, dtype=self._dtype,
                        order="C")

    def _channel(self, llrs_2d: np.ndarray) -> np.ndarray:
        """Channel LLRs ``(B, n)`` (an array or a list of rows) in the
        state's arithmetic, always a copy: quantized codes, or floats
        with ``-0.0`` made ``+0.0`` so copysign() reads the same edge
        sign as the reference's ``q < 0`` test (see module notes)."""
        llrs = np.asarray(llrs_2d, dtype=np.float64)
        if llrs.ndim != 2 or llrs.shape[1] != self.code.n:
            raise DecodingError(
                f"LLR matrix shape {llrs.shape} != (B, {self.code.n})"
            )
        if self.fixed:
            return self.fmt.quantize(llrs)
        return llrs + 0.0

    def new_r_state(self, batch: int) -> List[np.ndarray]:
        """Zeroed R messages: ``(degree, z, batch)`` views, one per
        layer, into one contiguous ``(E * z + 1, batch)`` buffer whose
        last row, the fresh-lane row, marks every frame fresh."""
        return self._r_views(
            np.zeros((self._r_rows, batch), dtype=self._dtype)
        )

    @property
    def _r_rows(self) -> int:
        """Rows of the R buffer: the message rows and the fresh row."""
        return sum(degree * rows for degree, rows in self._r_blocks) + 1

    def _r_views(self, buf: np.ndarray) -> List[np.ndarray]:
        views, row = [], 0
        for degree, rows in self._r_blocks:
            views.append(buf[row : row + degree * rows].reshape(
                degree, rows, buf.shape[1]))
            row += degree * rows
        return views

    def _r_buffer(self, r: List[np.ndarray], width: int) -> np.ndarray:
        """The one ``(E * z + 1, width)`` buffer behind the R views of
        ``r``, checked once per state (the state of the last call is
        remembered).  The views must be those :meth:`_r_views` cuts from
        the leading ``(E * z + 1) * width`` values of one C-ordered
        array: ``new_r_state``'s, ``compact``'s, or a re-layout buffer
        of ``resize``."""
        first = r[0] if r else None
        checked = self._r_checked
        if checked is not None and checked[0] is first and checked[1] == width:
            return checked[2]
        owner = None if first is None else first.base
        size = self._r_rows * width
        if (
            owner is None
            or owner.dtype != self._dtype
            or not owner.flags.c_contiguous
            or owner.size < size
            or len(r) != len(self._r_blocks)
        ):
            raise DecodingError(
                "R state must come from new_r_state, compact or resize"
            )
        buf = owner.reshape(-1)[:size].reshape(self._r_rows, width)
        for rl, view in zip(r, self._r_views(buf)):
            if rl.base is not owner or rl.shape != view.shape or (
                    view.size and (rl.strides != view.strides
                                   or rl.ctypes.data != view.ctypes.data)):
                raise DecodingError(
                    "R state must come from new_r_state, compact or resize"
                )
        self._r_checked = (first, width, buf)
        return buf

    def _clear_fresh(self, p: np.ndarray, r: List[np.ndarray]) -> None:
        """The numpy paths' first step of an iteration: zero the R
        columns of fresh frames, then mark every frame kept."""
        buf = self._r_buffer(r, p.shape[1])
        keep = buf[-1].view(self._mask_dtype)
        fresh = np.flatnonzero(keep == 0)
        if fresh.size:
            buf[:-1, fresh] = 0
            keep[:] = -1

    def new_lanes(self, capacity: int) -> Lanes:
        """Free lane state for an engine of ``capacity`` slots."""
        return Lanes(capacity, self.max_iterations)

    def iterate_once(
        self,
        p: np.ndarray,
        r: List[np.ndarray],
        lanes: Optional[Lanes] = None,
        listen: bool = False,
    ) -> Optional[Tuple[int, List[int]]]:
        """Run one full iteration (all layers) in place on ``(n, A)`` state.

        With ``lanes``, run one engine step instead: iterate the whole
        state, append each busy lane's unsatisfied-check count to its
        trail, advance its iteration count and retire it once it
        converged or spent its budget, over and over until a lane
        retires, or until ``lanes.doorbell`` is set if ``listen``.
        Returns the iterations run and the retired lanes, in order.

        Compiled, either is one call into ``kernel.c``.  A traced run
        passes a stamp buffer the loop fills with the clock after every
        layer, and every layer becomes a ``batch.layer`` span from those
        stamps, so the spans time the C loop itself, not the calls.
        """
        if lanes is None:
            self._iterate(p, r)
            return None
        if self._native is None or self._step_fn is None:
            return self._step_loop(p, r, lanes, listen)
        return self._step_native(p, r, lanes, listen)

    def _iterate(self, p: np.ndarray, r: List[np.ndarray]) -> None:
        """One iteration: the compiled loop nest, or its numpy twin."""
        if self._native is None:
            self._iterate_numpy(p, r)
            return
        args = self._bind(p, r)
        rec = self.recorder
        if rec is None or not rec.enabled:
            self._iterate_fn(*self._tables, *args, None)
            return
        t0 = time.perf_counter()
        self._iterate_fn(*self._tables, *args, self._stamps_addr)
        self._layer_trace(rec, t0, args[1], 1)

    def _step_native(self, p: np.ndarray, r: List[np.ndarray], lanes: Lanes,
                     listen: bool) -> Tuple[int, List[int]]:
        args = self._bind(p, r)
        width = args[1]
        lanes.check(width)
        weights = self._native_buffers(width)[3]
        rec = self.recorder
        tracing = rec is not None and rec.enabled
        t0 = time.perf_counter()
        k = self._step_fn(*self._tables, *args,
                          self._stamps_addr if tracing else None, weights,
                          *lanes.args[listen])
        if k < 0:
            raise lanes.spent()
        if tracing and k:
            self._layer_trace(rec, t0, width, k)
        retired = lanes.retired
        return k, retired[1 : retired[0] + 1].tolist()

    def _step_loop(self, p: np.ndarray, r: List[np.ndarray], lanes: Lanes,
                   listen: bool) -> Tuple[int, List[int]]:
        """The engine step as a Python loop over single iterations and
        :meth:`syndrome_weights`, bit for bit ``ldpc_step_*``."""
        width = self.batch_of(p)
        lanes.check(width)
        iters, budgets = lanes.iters, lanes.budgets
        busy = np.flatnonzero(budgets[:width] > 0)
        if busy.size == 0:
            return 0, []
        if np.any((iters[busy] < 0) | (iters[busy] >= lanes.max_iterations)):
            raise lanes.spent()
        limit = np.minimum(budgets[busy], lanes.max_iterations)
        k = 0
        while True:
            self._iterate(p, r)
            weights = self.syndrome_weights(p, frames=busy)
            k += 1
            it = iters[busy]
            lanes.trail[busy, it] = weights
            iters[busy] = it + 1
            retired = busy[(weights == 0) | (it + 1 >= limit)]
            if retired.size or (listen and lanes.doorbell[0]):
                budgets[retired] = 0
                return k, retired.tolist()

    def _layer_trace(self, rec: "TraceRecorder", t0: float, batch: int,
                     iterations: int) -> None:
        """``batch.layer`` spans of ``iterations`` traced iterations from
        the stamps the C loop wrote."""
        stamps = self._stamps[: iterations * self.plan.num_layers + 1].tolist()
        rec.complete_spans("batch.layer", stamps,
                           self._layer_spans(batch, iterations),
                           offset=t0 - stamps[0])

    def _layer_spans(self, batch: int, iterations: int) -> list:
        """Per layer of ``iterations`` iterations: its start and end
        boundary (indices into the stamps) and its ``batch.layer`` span
        labels."""
        spans = self._span_labels.get(batch)
        if spans is None:
            mode = "fixed" if self.fixed else "float"
            L = self.plan.num_layers
            spans = [
                (i, i + 1,
                 (("batch", batch), ("layer", i % L), ("mode", mode)))
                for i in range(self.max_iterations * L)
            ]
            self._span_labels[batch] = spans
        return spans[: iterations * self.plan.num_layers]

    def _iterate_numpy(self, p: np.ndarray, r: List[np.ndarray]) -> None:
        """One iteration without a compiler: the C loop's plain
        twin, a few numpy passes per layer on the same state."""
        self._clear_fresh(p, r)
        rec = self.recorder
        tracing = rec is not None and rec.enabled
        batch = p.shape[1]
        mode = "fixed" if self.fixed else "float"
        for l, (lp, rl) in enumerate(zip(self.plan.layers, r)):
            if tracing:
                layer_t0 = time.perf_counter()
            s = self._layer_scratch(lp.degree, batch)
            p[lp.var_idx] = self._check_update(p, rl, lp.var_idx, s)
            if tracing:
                rec.complete("batch.layer", layer_t0, layer=l, batch=batch,
                             mode=mode)

    def _native_buffers(self, width: int) -> tuple:
        """Per state width: ``(scratch, scratch address, weights, weights
        address)`` — the C loop's ``(4 + max_degree)`` tiles of scratch,
        which the syndrome reuses as ``z * A`` parities, and the
        syndrome's ``A``-entry output, kept alive here.  The scratch is
        sized for ``z * width``-lane tiles, the largest ``kernel.c``
        picks, so its tile rule lives there alone; the loop touches
        only the first few of its own, smaller tiles."""
        bufs = self._native_bufs.get(width)
        if bufs is None:
            size = (4 + self.plan.max_degree) * self.plan.z * width
            scratch = np.empty(max(size, 1), dtype=self._dtype)
            weights = np.empty(max(width, 1), dtype=np.int64)
            bufs = (scratch, scratch.ctypes.data, weights, weights.ctypes.data)
            self._native_bufs[width] = bufs
        return bufs

    def _bind(self, p: np.ndarray, r: List[np.ndarray]) -> tuple:
        """State arguments of the C iteration, cached per state."""
        bound = self._bound
        if bound is not None and bound[0] is p and bound[1] is r[0]:
            return bound[2]
        if p.dtype != self._dtype or not p.flags.c_contiguous:
            raise DecodingError(
                f"P state must be a C-contiguous "
                f"{np.dtype(self._dtype).name} array from prepare()"
            )
        width = self._p_width(p)
        args = (
            self.plan.z, width, p.ctypes.data,
            self._r_buffer(r, width).ctypes.data,
            self._native_buffers(width)[1],
        ) + self._consts
        self._bound = (p, r[0], args)
        return args

    def _p_width(self, p: np.ndarray) -> int:
        """Frames held by an ``(n, A)`` P state handed to the C loop."""
        if p.ndim != 2 or p.shape[0] != self.code.n:
            raise DecodingError(
                f"P state shape {p.shape} != ({self.code.n}, B)"
            )
        return int(p.shape[1])

    def syndrome_weights(self, p: np.ndarray, frames=None) -> np.ndarray:
        """Unsatisfied-check count per frame of an ``(n, A)`` P state.

        ``frames`` optionally restricts the result to a subset of frames
        (an index array).  The compiled kernel counts every check's
        parity in one call; the numpy path takes one gather and one XOR
        reduction per layer.
        """
        if self._native is None:
            weights = self._syndrome_numpy(p)
            return weights if frames is None else weights[frames]
        bound = self._bound
        if bound is not None and bound[0] is p:
            p_addr = bound[2][2]   # the state just iterated
        else:
            p = np.ascontiguousarray(p, dtype=self._dtype)
            p_addr = p.ctypes.data
        width = self._p_width(p)
        _, scratch_addr, weights, weights_addr = self._native_buffers(width)
        self._syndrome_fn(*self._tables, self.plan.z, width, p_addr,
                          scratch_addr, weights_addr)
        return weights[:width].copy() if frames is None else weights[frames]

    def _syndrome_numpy(self, p: np.ndarray) -> np.ndarray:
        bits = p < 0   # hard decisions
        weights = np.zeros(p.shape[1], dtype=np.int64)
        for lp in self.plan.layers:
            weights += np.logical_xor.reduce(bits[lp.var_idx], axis=0).sum(
                axis=0)
        return weights

    # ------------------------------------------------------------------
    # state-layout accessors
    # ------------------------------------------------------------------
    def batch_of(self, p: np.ndarray) -> int:
        """Number of frames held by P state ``p``."""
        return int(p.shape[1])

    def load_slots(
        self, p: np.ndarray, r: List[np.ndarray], slots, llrs_2d: np.ndarray
    ) -> None:
        """Overwrite lanes ``slots`` with fresh frames, one per row of
        ``llrs_2d``: one write of their P columns, one of their entries
        in R's fresh-lane row.  The next iteration reads the lanes'
        stale R messages as zero."""
        p[:, slots] = self._channel(llrs_2d).T
        self._r_buffer(r, p.shape[1])[-1, slots] = 0

    def frames_out(self, p: np.ndarray, sel) -> Tuple[np.ndarray, np.ndarray]:
        """Hard-decision bits and a-posteriori LLRs, both ``(K, n)``, of
        the frames ``sel`` (indices or a boolean mask) of P state ``p``.

        One gather of their P columns into a fresh frame-major block,
        which the caller may hold beyond the lanes' lifetime; the bits
        are its signs (dequantizing keeps every sign).
        """
        llrs = p.T[sel]
        if self.fixed:
            llrs = self.fmt.dequantize(llrs)
        return hard_decision(llrs), llrs

    def compact(
        self, p: np.ndarray, r: List[np.ndarray], keep: np.ndarray
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Drop retired frames from the working state (boolean mask).

        ``compress`` copies in C order, so the surviving state stays
        frame-minor and contiguous for the remaining iterations; R is
        re-laid into one fresh buffer.
        """
        buf = self._r_buffer(r, p.shape[1])
        return p.compress(keep, axis=1), self._r_views(buf.compress(keep, axis=1))

    def resize(
        self, p: np.ndarray, r: List[np.ndarray], width: int,
        capacity: int = 0,
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Contiguous copy of the state at batch width ``width``.

        The first ``min(width, current)`` frames carry over, fresh-lane
        entries included.  The copy goes into one of two re-layout
        buffers per array, alternately, as ``(n, width)`` views of their
        leading values.  A buffer is allocated, zeroed, when it is first
        used or too small, for ``max(width, capacity)`` lanes: an engine
        passes its slot count, and its width changes allocate nothing
        after the first two.  Lanes beyond the old width hold whatever
        the buffer last held there (in float, a fresh-lane row of another
        width reads as NaN messages).  Those lanes are free or about to
        be loaded, and lanes never exchange values, so no result sees
        them.
        """
        old = p.shape[1]
        src = self._r_buffer(r, old)
        pick = self._relayout_pick ^ 1
        if p.base is self._relayout[pick][0]:
            pick ^= 1   # p lives there: never copy a state onto itself
        self._relayout_pick = pick
        new_p, new_r, buf = self._relayout_state(pick, width, capacity)
        keep = min(width, old)
        new_p[:, :keep] = p[:, :keep]
        buf[:, :keep] = src[:, :keep]
        self._r_checked = (new_r[0], width, buf)
        return new_p, new_r

    def _relayout_state(self, pick: int, width: int, capacity: int) -> tuple:
        """``(P, R views, R buffer)`` at ``width`` in re-layout buffer
        pair ``pick``; the views of each width are made once."""
        flat_p, views, flat_r = self._relayout[pick]
        state = views.get(width)
        if state is None:
            n, rows = self.code.n, self._r_rows
            if flat_p.size < n * width:
                lanes = max(width, capacity)
                flat_p = np.zeros(n * lanes, dtype=self._dtype)
                flat_r = np.zeros(rows * lanes, dtype=self._dtype)
                views = {}
                self._relayout[pick] = (flat_p, views, flat_r)
            buf = flat_r[: rows * width].reshape(rows, width)
            state = (flat_p[: n * width].reshape(n, width),
                     self._r_views(buf), buf)
            views[width] = state
        return state

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

            done = (weights == 0) | (it == self.max_iterations - 1)
            if done.any():
                retired = active[done]
                out_bits[retired], out_llrs[retired] = self.frames_out(p, done)
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
        """One layer's check-node update on frame-minor state.

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
