"""EXP-ACCEL — batch-kernel, engine and service decode throughput.

Not a paper table: the software-acceleration counterpart of the paper's
throughput scaling argument.  The hardware gains its throughput from a
z-way parallel datapath fed by precomputed message routing; the
software gains its own from memoized
:class:`~repro.accel.plan.CodePlan` routing tables, the fused
frame-minor batch kernel, the continuous-batching engine, and the
thread-backed decode service.  Four paths over the same
traffic on the paper's (2304, rate-1/2) case-study code at
Eb/N0 = 2.5 dB, 8-bit fixed arithmetic (the paper's datapath):

* ``per-frame``    — one ``decode()`` per frame (scalar baseline);
* ``batch``        — the batch kernel on static batches;
* ``engine``       — the bare continuous-batching engine (retired
  slots refilled mid-flight; no queue, no worker thread);
* ``thread-pool``  — ``DecodeService`` (queue plus worker thread).

Every row is cross-checked bit-exact against the per-frame reference
(``mismatches`` must be 0), so the speedups cannot come from a
different answer.  The acceptance bar is >= 4x frames/s for the batch
path over the per-frame loop (the fused layout measured 2.2x over the
batch-major kernel it replaced, which itself ran at 4.1x).
"""

from benchmarks.conftest import publish
from repro.accel.bench import run_accel_bench
from repro.utils.tables import render_table

FRAMES = 128
BATCH = 64
MAX_ITERATIONS = 10
EBNO_DB = 2.5


def test_accel_throughput(benchmark):
    report, = benchmark.pedantic(
        lambda: (
            run_accel_bench(
                frames=FRAMES,
                batch=BATCH,
                ebno_db=EBNO_DB,
                iterations=MAX_ITERATIONS,
                fixed=True,
                seed=5,
            ),
        ),
        rounds=1,
        iterations=1,
    )

    rows = [
        [
            r["mode"],
            f"{r['frames_per_s']:.1f}",
            f"{r['per_layer_ns']:.0f}",
            f"{r['speedup_vs_per_frame']:.2f}x",
            (
                f"{r['speedup_vs_batch']:.2f}x"
                if r["speedup_vs_batch"] is not None
                else "-"
            ),
            r["converged"],
            r["mismatches"],
        ]
        for r in report["rows"]
    ]
    text = render_table(
        ["mode", "frames/s", "per-layer ns", "vs per-frame", "vs batch",
         "converged", "mismatches"],
        rows,
        title=(
            f"Accel throughput ({report['code']}, Eb/N0 = {EBNO_DB} dB, "
            f"{FRAMES} frames, batch {BATCH}, "
            f"{MAX_ITERATIONS} iterations max, fixed)"
        ),
    )
    publish("EXP-ACCEL_throughput", text, benchmark)

    by_mode = {r["mode"]: r for r in report["rows"]}
    # the exactness contract: no mode may disagree with the per-frame
    # decoder on a single frame
    for r in report["rows"]:
        assert r["mismatches"] == 0, text
    # the batch kernel must dominate the scalar loop by more than the
    # batch-major kernel it replaced did (4.1x)
    assert by_mode["batch"]["speedup_vs_per_frame"] >= 4.0, text
