"""Fused batch kernel: bit-exactness against the per-frame decoder.

The batch kernel fuses the layer update into few passes: it lays the
decode state out frame-minor (P ``(n, B)``, per-layer R stacks),
replaces argmin-based two-min search with a running comparator chain,
and carries signs as per-check parities (applied with ``copysign`` in
float mode, folded into the per-check minima in fixed mode) — every one of
those transforms must be *exactly* value-preserving, because the serve
stack's correctness story is "batched output == per-frame output, bit
for bit".  This sweep drives the comparison across random QC code
shapes, WiMax rate classes, noise levels, batch sizes, and both
arithmetic modes, all seeded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.bench import run_accel_bench
from repro.channel import AwgnChannel
from repro.codes import random_qc_code, wimax_code
from repro.decoder import LayeredMinSumDecoder
from repro.encoder import RuEncoder
from repro.serve import (
    BatchLayeredMinSumDecoder,
    ContinuousBatchingEngine,
    DecodeJob,
)

pytestmark = pytest.mark.accel

WIMAX_CASES = (("1/2", 576), ("2/3A", 672), ("3/4A", 1152), ("5/6", 576))


def _random_traffic(code, batch, ebno_db, rng):
    encoder = RuEncoder(code)
    frames = []
    for _ in range(batch):
        message = rng.integers(0, 2, encoder.k).astype(np.uint8)
        codeword = encoder.encode(message)
        channel = AwgnChannel.from_ebno(ebno_db, code.rate, seed=rng)
        frames.append(channel.llrs(codeword))
    return np.stack(frames)


def _assert_fused_matches_per_frame(code, llrs_2d, fixed, max_iterations=10):
    reference = LayeredMinSumDecoder(
        code, max_iterations=max_iterations, fixed=fixed
    )
    fused = BatchLayeredMinSumDecoder(
        code, max_iterations=max_iterations, fixed=fixed
    ).decode(llrs_2d)
    for i, row in enumerate(llrs_2d):
        ref = reference.decode(row)
        np.testing.assert_array_equal(fused.bits[i], ref.bits)
        np.testing.assert_array_equal(fused.llrs[i], ref.llrs)
        assert fused.iterations[i] == ref.iterations
        assert bool(fused.converged[i]) == ref.converged
        assert fused.syndrome_weights[i] == ref.syndrome_weight
        assert fused.iteration_syndromes[i] == ref.iteration_syndromes


@pytest.mark.parametrize("sweep_seed", range(4))
@pytest.mark.parametrize("fixed", [False, True])
def test_random_qc_codes(sweep_seed, fixed):
    """Random QC codes with randomly drawn shapes and noise levels."""
    rng = np.random.default_rng([2026, 8, sweep_seed])
    z = int(rng.choice([4, 8, 12, 16, 24]))
    mb = int(rng.integers(3, 6))
    nb = mb * 2
    # row_degree must exceed the dual-diagonal parity degree (up to 3)
    # and leave at most kb=mb data edges per row -> [4, 5] is feasible
    code = random_qc_code(
        mb=mb, nb=nb, z=z, row_degree=int(rng.integers(4, 6)),
        seed=int(rng.integers(1 << 16)),
    )
    batch = int(rng.integers(1, 9))
    ebno = float(rng.uniform(0.5, 4.0))
    llrs_2d = _random_traffic(code, batch, ebno, rng)
    _assert_fused_matches_per_frame(code, llrs_2d, fixed)


@pytest.mark.parametrize("rate,length", WIMAX_CASES)
@pytest.mark.parametrize("fixed", [False, True])
def test_wimax_codes(rate, length, fixed):
    """Standard-derived codes across rate classes, mixed-SNR batches."""
    code = wimax_code(rate, length)
    rng = np.random.default_rng([hash(rate) & 0xFFFF, length, fixed])
    llrs_2d = _random_traffic(code, 5, float(rng.uniform(1.5, 3.0)), rng)
    _assert_fused_matches_per_frame(code, llrs_2d, fixed)


@pytest.mark.parametrize("fixed", [False, True])
def test_state_reuse_across_decodes(wimax_short, fixed):
    """Scratch buffers persist across decode() calls without bleed-through."""
    rng = np.random.default_rng(77)
    decoder = BatchLayeredMinSumDecoder(
        code=wimax_short, max_iterations=10, fixed=fixed
    )
    first_traffic = _random_traffic(wimax_short, 4, 2.0, rng)
    second_traffic = _random_traffic(wimax_short, 4, 2.5, rng)
    decoder.decode(first_traffic)  # warm the scratch buffers
    _assert_fused_matches_per_frame(wimax_short, second_traffic, fixed)
    again = decoder.decode(second_traffic)
    reference = decoder.decode(second_traffic)
    np.testing.assert_array_equal(again.bits, reference.bits)
    np.testing.assert_array_equal(again.llrs, reference.llrs)


@pytest.mark.parametrize("fixed", [False, True])
def test_retirement_keeps_state_contiguous(fixed):
    """Compaction after early retirement hands the remaining iterations
    C-contiguous frame-minor state, and decode() stays bit-exact."""
    code = wimax_code("1/2", 576)
    rng = np.random.default_rng(202)
    # clean and noisy frames retire at different iterations
    llrs_2d = np.concatenate([
        _random_traffic(code, 4, 4.0, rng),
        _random_traffic(code, 4, 1.0, rng),
    ])
    decoder = BatchLayeredMinSumDecoder(code, max_iterations=10, fixed=fixed)
    compacted = []
    compact = decoder.compact

    def spy(p, r, keep):
        p, r = compact(p, r, keep)
        compacted.append((p, r))
        return p, r

    decoder.compact = spy
    result = decoder.decode(llrs_2d)
    assert compacted, "no frame retired early"
    for p, r in compacted:
        assert p.flags.c_contiguous
        assert all(rl.flags.c_contiguous for rl in r)
    reference = LayeredMinSumDecoder(code, max_iterations=10, fixed=fixed)
    for i, row in enumerate(llrs_2d):
        ref = reference.decode(row)
        np.testing.assert_array_equal(result.bits[i], ref.bits)
        np.testing.assert_array_equal(result.llrs[i], ref.llrs)
        assert result.iterations[i] == ref.iterations
        assert result.iteration_syndromes[i] == ref.iteration_syndromes


@pytest.mark.parametrize("fixed", [False, True])
def test_engine_fused_kernel_matches_batch_kernel(wimax_short, fixed):
    """Slot reuse and width stepping in the engine leave the kernel's
    static-batch answer unchanged, bit for bit."""
    rng = np.random.default_rng(101)
    llrs_2d = _random_traffic(wimax_short, 12, 2.0, rng)
    batch = BatchLayeredMinSumDecoder(
        wimax_short, max_iterations=10, fixed=fixed
    ).decode(llrs_2d)
    engine = ContinuousBatchingEngine(
        wimax_short, batch_size=4, max_iterations=10, fixed=fixed,
    )
    done = engine.run([DecodeJob(llrs=f) for f in llrs_2d])
    for i, d in enumerate(done):
        np.testing.assert_array_equal(d.result.bits, batch.bits[i])
        np.testing.assert_array_equal(d.result.llrs, batch.llrs[i])
        assert d.result.iterations == batch.iterations[i]
        assert d.result.converged == bool(batch.converged[i])
        assert d.result.iteration_syndromes == batch.iteration_syndromes[i]


@pytest.mark.parametrize("fixed", [False, True])
def test_decode_leaves_input_untouched(wimax_short, fixed):
    """A one-frame batch's transposed LLRs are contiguous already; the
    kernel must still work on a copy, never on the caller's array."""
    rng = np.random.default_rng(5)
    llrs_2d = _random_traffic(wimax_short, 1, 2.0, rng)
    before = llrs_2d.copy()
    BatchLayeredMinSumDecoder(wimax_short, fixed=fixed).decode(llrs_2d)
    np.testing.assert_array_equal(llrs_2d, before)


def test_negative_zero_llrs_are_handled_exactly():
    """-0.0 inputs cannot flip copysign-carried signs vs the reference."""
    code = wimax_code("1/2", 576)
    rng = np.random.default_rng(55)
    llrs_2d = _random_traffic(code, 3, 2.0, rng)
    llrs_2d[0, :7] = -0.0
    llrs_2d[1, 100:110] = 0.0
    _assert_fused_matches_per_frame(code, llrs_2d, fixed=False)


def test_accel_bench_float_batch_and_engine_rows_are_bit_exact():
    # 8 frames through 3 engine slots: retired slots are refilled mid-run
    report = run_accel_bench(
        code=wimax_code("1/2", 576), frames=8, batch=3, iterations=5,
        fixed=False, seed=2, modes=("batch", "engine"),
    )
    assert report["arithmetic"] == "float"
    rows = report["rows"]
    assert [r["mode"] for r in rows] == ["per-frame", "batch", "engine"]
    assert all(r["mismatches"] == 0 for r in rows)
    assert len({r["converged"] for r in rows}) == 1
