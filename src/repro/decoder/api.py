"""High-level one-call decode API.

``decode(code, llrs)`` covers the common case — the paper's layered
scaled min-sum with 10 iterations and early termination — while the
decoder classes remain available for repeated-use and advanced
configuration.  ``decode_many(code, llrs_2d)`` is the batched
counterpart: layered min-sum frames go through the vectorized batch
kernel (:mod:`repro.serve.batch`), other algorithms fall back to a
per-frame loop, and both paths share one algorithm dispatch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.codes.qc import QCLDPCCode
from repro.decoder.flooding import FloodingDecoder
from repro.decoder.layered import DEFAULT_MAX_ITERATIONS, LayeredMinSumDecoder
from repro.decoder.layered_spa import LayeredSumProductDecoder
from repro.decoder.result import BatchDecodeResult, DecodeResult
from repro.errors import DecodingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder

_ALGORITHMS = (
    "layered-min-sum",
    "layered-sum-product",
    "flooding-min-sum",
    "flooding-sum-product",
)


def _make_decoder(
    code: QCLDPCCode,
    algorithm: str,
    max_iterations: int,
    fixed: bool,
    recorder: "Optional[TraceRecorder]" = None,
):
    """Validate ``algorithm``/``fixed`` and build the per-frame decoder.

    The single dispatch point shared by :func:`decode` and
    :func:`decode_many`.  The trace recorder reaches the layered
    min-sum path only (the instrumented kernel); other algorithms
    accept but ignore it.
    """
    if algorithm not in _ALGORITHMS:
        raise DecodingError(
            f"unknown algorithm {algorithm!r}; choose from {_ALGORITHMS}"
        )
    if fixed and algorithm != "layered-min-sum":
        raise DecodingError("fixed-point mode is only available for layered-min-sum")
    if algorithm == "layered-min-sum":
        return LayeredMinSumDecoder(
            code, max_iterations=max_iterations, fixed=fixed, recorder=recorder
        )
    if algorithm == "layered-sum-product":
        return LayeredSumProductDecoder(code, max_iterations=max_iterations)
    check_rule = "min-sum" if algorithm == "flooding-min-sum" else "sum-product"
    return FloodingDecoder(code, max_iterations=max_iterations, check_rule=check_rule)


def decode(
    code: QCLDPCCode,
    channel_llrs: np.ndarray,
    algorithm: str = "layered-min-sum",
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    fixed: bool = False,
    recorder: "Optional[TraceRecorder]" = None,
) -> DecodeResult:
    """Decode one frame with a named algorithm.

    Parameters
    ----------
    code:
        The QC-LDPC code.
    channel_llrs:
        Length-n channel LLRs (positive = bit 0 more likely).
    algorithm:
        ``"layered-min-sum"`` (the paper's Algorithm 1, default),
        ``"layered-sum-product"``, ``"flooding-min-sum"``, or
        ``"flooding-sum-product"``.
    max_iterations:
        Full-iteration budget.
    fixed:
        Bit-accurate 8-bit arithmetic (layered only).
    recorder:
        Optional :class:`~repro.obs.trace.TraceRecorder` receiving
        per-iteration/per-layer wall-time spans (layered min-sum only;
        results are identical with or without it).
    """
    return _make_decoder(
        code, algorithm, max_iterations, fixed, recorder
    ).decode(channel_llrs)


def decode_many(
    code: QCLDPCCode,
    channel_llrs: np.ndarray,
    algorithm: str = "layered-min-sum",
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    fixed: bool = False,
    recorder: "Optional[TraceRecorder]" = None,
    schedule: str = "row",
) -> BatchDecodeResult:
    """Decode a ``(B, n)`` LLR matrix; rows are independent frames.

    The default algorithm runs through the vectorized batch kernel
    (bit-exact with :func:`decode` frame by frame, converged frames
    retired early); the other algorithms decode row by row and are
    repackaged into the same :class:`BatchDecodeResult`.  ``recorder``
    reaches the layered batch kernel's ``batch.iteration`` /
    ``batch.layer`` spans.  ``schedule`` selects the message-passing
    schedule for the layered min-sum path: ``"row"`` (the paper's
    layered Algorithm 1, default) or ``"column"`` — the column-layered
    (vertical shuffled) variant from :mod:`repro.serve.column`, on the
    same frame-minor kernel state.
    """
    if schedule not in ("row", "column"):
        raise DecodingError(
            f"schedule must be 'row' or 'column', got {schedule!r}"
        )
    if schedule == "column" and algorithm != "layered-min-sum":
        raise DecodingError(
            "schedule='column' is only available for layered-min-sum"
        )
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != code.n:
        raise DecodingError(f"LLR matrix shape {llrs.shape} != (B, {code.n})")
    # Validate algorithm/fixed exactly as decode() does, for every path.
    decoder = _make_decoder(code, algorithm, max_iterations, fixed, recorder)

    if algorithm == "layered-min-sum":
        # Imported here: repro.serve imports repro.decoder at load time.
        if schedule == "column":
            from repro.serve.column import ColumnBatchLayeredMinSumDecoder

            batch_cls = ColumnBatchLayeredMinSumDecoder
        else:
            from repro.serve.batch import BatchLayeredMinSumDecoder

            batch_cls = BatchLayeredMinSumDecoder
        return batch_cls(
            code, max_iterations=max_iterations, fixed=fixed, recorder=recorder
        ).decode(llrs)

    results = [decoder.decode(row) for row in llrs]
    return BatchDecodeResult(
        bits=np.stack([r.bits for r in results])
        if results
        else np.zeros((0, code.n), dtype=np.uint8),
        converged=np.array([r.converged for r in results], dtype=bool),
        iterations=np.array([r.iterations for r in results], dtype=np.int64),
        llrs=np.stack([r.llrs for r in results])
        if results
        else np.zeros((0, code.n), dtype=np.float64),
        syndrome_weights=np.array(
            [r.syndrome_weight for r in results], dtype=np.int64
        ),
        iteration_syndromes=[list(r.iteration_syndromes) for r in results],
        max_iterations=max_iterations,
    )
