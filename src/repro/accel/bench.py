"""Accel benchmark harness: one traffic set through every decode path.

Shared by ``python -m repro accel-bench`` and
``benchmarks/bench_accel.py`` so the CLI, the pytest benchmark, and the
committed ``BENCH_accel.json`` artifact all measure exactly the same
thing: the paper's (2304, rate-1/2) case-study code at Eb/N0 = 2.5 dB
pushed through four software datapaths —

* ``per-frame``     — :class:`~repro.decoder.layered.LayeredMinSumDecoder`,
  one ``decode()`` per frame (the scalar baseline);
* ``batch``         — :class:`~repro.serve.batch.BatchLayeredMinSumDecoder`
  on static batches (frame-minor state, minimal-pass layer kernel);
* ``engine``        — the bare
  :class:`~repro.serve.engine.ContinuousBatchingEngine` (retired slots
  refilled mid-flight; no queue, no worker thread), so the gap between
  ``batch`` and ``thread-pool`` splits into engine cost and pool cost;
* ``thread-pool``   — :class:`~repro.serve.pool.DecodeService`: the
  engine behind a queue and a supervised worker thread.

Every path decodes the identical frames, and the harness checks the
bit-exactness contract as it goes: hard decisions, iteration counts,
and convergence flags must match the per-frame reference everywhere,
so a reported speedup can never come from a silently different answer.

``per_layer_ns`` normalizes wall time by decode work actually executed
(sum over frames of iterations run, times the code's layer count): it
is the average wall-clock cost of one layer update per frame, the
software analogue of the paper's per-layer clock-cycle accounting.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.channel import AwgnChannel
from repro.codes import wimax_code
from repro.codes.qc import QCLDPCCode
from repro.decoder.layered import LayeredMinSumDecoder
from repro.encoder import RuEncoder
from repro.utils.provenance import bench_meta

__all__ = [
    "DEFAULT_MODES", "count_mismatches", "generate_traffic", "run_accel_bench",
]

#: Benchmark rows, in report order.
DEFAULT_MODES = (
    "per-frame",
    "batch",
    "engine",
    "thread-pool",
)


def generate_traffic(
    code: QCLDPCCode,
    frames: int,
    ebno_db: float,
    seed: int,
    encoder: Any = None,
) -> np.ndarray:
    """Encoded random payloads through an AWGN channel: ``(frames, n)`` LLRs.

    Reproducible per ``seed``: one generator draws each payload and then
    that frame's noise.  ``encoder`` defaults to ``RuEncoder(code)``;
    the zoo passes the registry's encoder (``NrEncoder`` for NR codes).
    """
    rng = np.random.default_rng(seed)
    if encoder is None:
        encoder = RuEncoder(code)
    out = np.empty((frames, code.n), dtype=np.float64)
    for i in range(frames):
        message = rng.integers(0, 2, encoder.k).astype(np.uint8)
        codeword = encoder.encode(message)
        out[i] = AwgnChannel.from_ebno(ebno_db, code.rate, seed=rng).llrs(
            codeword
        )
    return out


def count_mismatches(reference: List, bits: np.ndarray, iters: np.ndarray,
                     conv: np.ndarray) -> int:
    """Frames whose (bits, iterations, converged) differ from the reference."""
    bad = 0
    for i, ref in enumerate(reference):
        if (
            not np.array_equal(ref.bits, bits[i])
            or int(ref.iterations) != int(iters[i])
            or bool(ref.converged) != bool(conv[i])
        ):
            bad += 1
    return bad


def _outcomes(done: List) -> tuple:
    """(bits, iterations, converged) arrays of completed jobs, in order."""
    bits = np.stack([d.result.bits for d in done])
    iters = np.array([d.result.iterations for d in done], dtype=np.int64)
    conv = np.array([d.result.converged for d in done])
    return bits, iters, conv


def run_accel_bench(
    code: Optional[QCLDPCCode] = None,
    frames: int = 128,
    batch: int = 64,
    ebno_db: float = 2.5,
    iterations: int = 10,
    fixed: bool = True,
    seed: int = 5,
    modes: tuple = DEFAULT_MODES,
) -> Dict[str, object]:
    """Measure frames/s and per-layer ns for every requested decode path.

    Returns a JSON-ready dict: one row per mode (``time_s``,
    ``frames_per_s``, ``per_layer_ns``, ``speedup_vs_per_frame``,
    ``speedup_vs_batch``, ``converged``, ``mismatches``) plus the run
    configuration.  ``mismatches`` counts frames whose decode outcome
    differs from the per-frame reference — always 0 unless the
    bit-exactness contract is broken.
    """
    if code is None:
        code = wimax_code("1/2", 2304)
    llrs_2d = generate_traffic(code, frames, ebno_db, seed)
    num_layers = code.num_layers

    # reference: the per-frame decoder (always runs; it anchors both the
    # speedup column and the exactness check)
    loop_decoder = LayeredMinSumDecoder(
        code, max_iterations=iterations, fixed=fixed
    )
    t0 = time.perf_counter()
    reference = [loop_decoder.decode(f) for f in llrs_2d]
    t_loop = time.perf_counter() - t0

    ref_iters = np.array([r.iterations for r in reference], dtype=np.int64)
    total_layer_updates = int(ref_iters.sum()) * num_layers

    def row(name: str, elapsed: float, bits, iters, conv) -> Dict[str, object]:
        return {
            "mode": name,
            "time_s": elapsed,
            "frames_per_s": frames / elapsed,
            "per_layer_ns": elapsed / total_layer_updates * 1e9,
            "converged": int(np.count_nonzero(conv)),
            "mismatches": count_mismatches(reference, bits, iters, conv),
        }

    rows: List[Dict[str, object]] = [
        row(
            "per-frame",
            t_loop,
            np.stack([r.bits for r in reference]),
            ref_iters,
            np.array([r.converged for r in reference]),
        )
    ]

    def run_static(decoder):
        results = []
        t0 = time.perf_counter()
        for start in range(0, frames, batch):
            results.append(decoder.decode(llrs_2d[start : start + batch]))
        elapsed = time.perf_counter() - t0
        bits = np.concatenate([r.bits for r in results])
        iters = np.concatenate([r.iterations for r in results])
        conv = np.concatenate([r.converged for r in results])
        return elapsed, bits, iters, conv

    if "batch" in modes:
        from repro.serve.batch import BatchLayeredMinSumDecoder

        decoder = BatchLayeredMinSumDecoder(
            code, max_iterations=iterations, fixed=fixed
        )
        rows.append(row("batch", *run_static(decoder)))

    if "engine" in modes:
        from repro.serve.engine import ContinuousBatchingEngine
        from repro.serve.jobs import DecodeJob

        engine = ContinuousBatchingEngine(
            code, batch_size=batch, max_iterations=iterations, fixed=fixed
        )
        jobs = [DecodeJob(llrs=f) for f in llrs_2d]
        t0 = time.perf_counter()
        done = engine.run(jobs)  # results come back in input order
        elapsed = time.perf_counter() - t0
        rows.append(row("engine", elapsed, *_outcomes(done)))

    if "thread-pool" in modes:
        from repro.serve.pool import DecodeService
        from repro.serve.shedding import NoShedPolicy

        # shedding off: the bench loads the queue far beyond the shed
        # threshold by design, and a lowered iteration budget would break
        # the bit-exactness cross-check against the per-frame reference
        service = DecodeService(
            code,
            batch_size=batch,
            max_iterations=iterations,
            fixed=fixed,
            queue_capacity=max(frames, 1),
            shed_policy=NoShedPolicy(),
        )
        try:
            t0 = time.perf_counter()
            futures = [service.submit(f, timeout=None) for f in llrs_2d]
            done = [f.result() for f in futures]
            elapsed = time.perf_counter() - t0
        finally:
            service.close(wait=True)
        rows.append(row("thread-pool", elapsed, *_outcomes(done)))

    t_batch = next(
        (r["time_s"] for r in rows if r["mode"] == "batch"), None
    )
    for r in rows:
        r["speedup_vs_per_frame"] = t_loop / r["time_s"]
        r["speedup_vs_batch"] = (
            t_batch / r["time_s"] if t_batch is not None else None
        )

    report = bench_meta("accel")
    report.update(
        {
            "code": code.name,
            "n": code.n,
            "z": code.z,
            "num_layers": num_layers,
            "ebno_db": ebno_db,
            "frames": frames,
            "batch": batch,
            "max_iterations": iterations,
            "arithmetic": "fixed" if fixed else "float",
            "seed": seed,
            "total_layer_updates": total_layer_updates,
            "numpy": np.__version__,
            "rows": rows,
        }
    )
    return report
