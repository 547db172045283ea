"""Column-layered schedule: bit-exactness and randomized differentials.

Three claims, each load-bearing for ``schedule="column"``:

1. The batch column kernel (:class:`ColumnBatchLayeredMinSumDecoder`)
   is fully bit-exact — bits, LLRs, iteration counts, convergence
   flags, syndrome traces — with its per-frame reference
   (:class:`ColumnLayeredMinSumDecoder`), in both arithmetic modes.
2. On converged frames the column schedule decodes the same codeword
   as the row-layered schedule and the flooding baseline: a different
   update *order* must never be a different *answer*.
3. The serving surfaces (``decode_many(schedule=)``, the engine and
   :class:`DecodeService` with ``schedule="column"``) reproduce the
   kernel's bytes exactly.

The differential sweep draws its (code, SNR, arithmetic) triples from
the registry zoo plus random QC codes — seeded, so every failure
replays — and covers more than 200 distinct cases across the
parametrization.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import AwgnChannel
from repro.codes import random_qc_code
from repro.codes.registry import default_registry
from repro.decoder import (
    ColumnLayeredMinSumDecoder,
    FloodingDecoder,
    LayeredMinSumDecoder,
    decode_many,
)
from repro.encoder import RuEncoder
from repro.errors import DecodingError
from repro.serve import (
    BatchLayeredMinSumDecoder,
    ColumnBatchLayeredMinSumDecoder,
    ContinuousBatchingEngine,
    DecodeService,
)

pytestmark = pytest.mark.zoo

MAX_ITER = 10

#: Registry ids small enough to sweep densely (the 2304-bit flagships
#: are covered by the goldens and the serve tests).
SWEEP_IDS = (
    "wimax-r12-576",
    "wimax-r12-1152",
    "wifi-r12-648",
    "wifi-r23-648",
    "wifi-r34-648",
    "wifi-r12-1296",
    "nr-bg2-z16",
    "nr-bg1-z16",
)


def _traffic(code, frames, ebno_db, rng, encoder=None):
    encoder = encoder or RuEncoder(code)
    out = np.empty((frames, code.n), dtype=np.float64)
    for i in range(frames):
        message = rng.integers(0, 2, encoder.k).astype(np.uint8)
        codeword = encoder.encode(message)
        out[i] = AwgnChannel.from_ebno(ebno_db, code.rate, seed=rng).llrs(
            codeword
        )
    return out


def _zoo_case(rng, registry):
    """One randomized (code, encoder, ebno) case from the registry."""
    code_id = str(rng.choice(SWEEP_IDS))
    ebno_db = float(rng.uniform(2.5, 5.0))
    return registry.get(code_id), registry.encoder(code_id), ebno_db


# ----------------------------------------------------------------------
# claim 1: per-frame column reference == batch column kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sweep_seed", range(6))
@pytest.mark.parametrize("fixed", [False, True])
def test_column_batch_bit_exact_with_per_frame(sweep_seed, fixed):
    registry = default_registry()
    rng = np.random.default_rng([20260808, sweep_seed])
    code, encoder, ebno_db = _zoo_case(rng, registry)
    llrs_2d = _traffic(code, int(rng.integers(2, 5)), ebno_db, rng, encoder)

    reference = ColumnLayeredMinSumDecoder(
        code, max_iterations=MAX_ITER, fixed=fixed
    )
    batch = ColumnBatchLayeredMinSumDecoder(
        code, max_iterations=MAX_ITER, fixed=fixed
    ).decode(llrs_2d)
    for i, row in enumerate(llrs_2d):
        ref = reference.decode(row)
        np.testing.assert_array_equal(batch.bits[i], ref.bits)
        np.testing.assert_array_equal(batch.llrs[i], ref.llrs)
        assert batch.iterations[i] == ref.iterations
        assert bool(batch.converged[i]) == ref.converged
        assert batch.syndrome_weights[i] == ref.syndrome_weight
        assert batch.iteration_syndromes[i] == ref.iteration_syndromes


@pytest.mark.parametrize("fixed", [False, True])
def test_column_batch_bit_exact_on_random_qc(fixed):
    """Random QC codes (random z) outside the registry also agree."""
    for sweep_seed in range(3):
        rng = np.random.default_rng([20260809, sweep_seed])
        z = int(rng.choice([4, 8, 12, 16, 24]))
        mb = int(rng.integers(3, 6))
        code = random_qc_code(
            mb=mb, nb=mb * 2, z=z, row_degree=int(rng.integers(4, 6)),
            seed=int(rng.integers(1 << 16)),
        )
        llrs_2d = _traffic(code, 3, float(rng.uniform(1.5, 4.0)), rng)
        reference = ColumnLayeredMinSumDecoder(
            code, max_iterations=MAX_ITER, fixed=fixed
        )
        batch = ColumnBatchLayeredMinSumDecoder(
            code, max_iterations=MAX_ITER, fixed=fixed
        ).decode(llrs_2d)
        for i, row in enumerate(llrs_2d):
            ref = reference.decode(row)
            np.testing.assert_array_equal(batch.bits[i], ref.bits)
            assert batch.iterations[i] == ref.iterations
            assert bool(batch.converged[i]) == ref.converged


# ----------------------------------------------------------------------
# claim 2: the randomized differential sweep (>= 200 cases)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sweep_seed", range(25))
@pytest.mark.parametrize("fixed", [False, True])
def test_column_vs_row_differential_sweep(sweep_seed, fixed):
    """Column and row schedules decode the same codeword when converged.

    25 seeds x 2 arithmetic modes x 4 draws = 200 randomized
    (code, SNR, mode) cases, 2 frames each.  The schedules may differ
    in iteration count (the column schedule propagates within an
    iteration differently), but a frame both schedules converge on
    must be the same codeword — here, with encoder-generated traffic
    at these SNRs, the transmitted one.
    """
    registry = default_registry()
    rng = np.random.default_rng([20260810, sweep_seed])
    for _ in range(4):
        code, encoder, ebno_db = _zoo_case(rng, registry)
        llrs_2d = _traffic(code, 2, ebno_db, rng, encoder)
        row = BatchLayeredMinSumDecoder(
            code, max_iterations=MAX_ITER, fixed=fixed
        ).decode(llrs_2d)
        col = ColumnBatchLayeredMinSumDecoder(
            code, max_iterations=MAX_ITER, fixed=fixed
        ).decode(llrs_2d)
        for i in range(llrs_2d.shape[0]):
            if row.converged[i]:
                assert code.is_codeword(row.bits[i])
            if col.converged[i]:
                assert code.is_codeword(col.bits[i])
            if row.converged[i] and col.converged[i]:
                np.testing.assert_array_equal(col.bits[i], row.bits[i])


@pytest.mark.parametrize("sweep_seed", range(4))
def test_column_vs_row_vs_flooding(sweep_seed):
    """All three schedules land on the same codeword when they converge."""
    registry = default_registry()
    rng = np.random.default_rng([20260811, sweep_seed])
    code, encoder, _ = _zoo_case(rng, registry)
    llrs_2d = _traffic(code, 2, 4.5, rng, encoder)
    row = LayeredMinSumDecoder(code, max_iterations=MAX_ITER)
    col = ColumnLayeredMinSumDecoder(code, max_iterations=MAX_ITER)
    flood = FloodingDecoder(code, max_iterations=30, check_rule="min-sum")
    for frame in llrs_2d:
        results = [d.decode(frame) for d in (row, col, flood)]
        converged = [r for r in results if r.converged]
        assert len(converged) >= 2  # 4.5 dB: at worst flooding lags
        for r in converged[1:]:
            np.testing.assert_array_equal(r.bits, converged[0].bits)


def test_column_converges_no_slower_on_average():
    """Within-iteration propagation: column never needs more sweeps in
    aggregate than row on the same converged traffic."""
    registry = default_registry()
    code = registry.get("wimax-r12-576")
    rng = np.random.default_rng(123)
    llrs_2d = _traffic(code, 16, 3.5, rng, registry.encoder("wimax-r12-576"))
    row = BatchLayeredMinSumDecoder(code, max_iterations=MAX_ITER).decode(
        llrs_2d
    )
    col = ColumnBatchLayeredMinSumDecoder(
        code, max_iterations=MAX_ITER
    ).decode(llrs_2d)
    both = np.asarray(row.converged) & np.asarray(col.converged)
    assert np.count_nonzero(both) >= 12
    assert (
        int(np.sum(np.asarray(col.iterations)[both]))
        <= int(np.sum(np.asarray(row.iterations)[both]))
    )


@pytest.mark.parametrize("code_id", default_registry().ids())
def test_row_and_column_kernels_share_the_per_layer_r_layout(code_id):
    """Both schedules hold R as one ``(degree, z, B)`` view per layer;
    edge ``e`` (numbered layer by layer) owns rows ``e * z ..`` of the
    one buffer."""
    code = default_registry().get(code_id)
    width = 3

    def layout(r):
        base = r[0].base.ctypes.data
        return [(v.shape, v.ctypes.data - base) for v in r]

    expected, edge = [], 0
    for layer in code.layers:
        expected.append(((layer.degree, code.z, width),
                         edge * code.z * width * 8))   # float64 state
        edge += layer.degree
    row = BatchLayeredMinSumDecoder(code).new_r_state(width)
    col = ColumnBatchLayeredMinSumDecoder(code).new_r_state(width)
    assert layout(row) == layout(col) == expected


# ----------------------------------------------------------------------
# claim 3: serving surfaces
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fixed", [False, True])
def test_decode_many_schedule_column(fixed):
    registry = default_registry()
    code = registry.get("wifi-r12-648")
    rng = np.random.default_rng(9)
    llrs_2d = _traffic(code, 5, 3.0, rng, registry.encoder("wifi-r12-648"))
    kernel = ColumnBatchLayeredMinSumDecoder(
        code, max_iterations=MAX_ITER, fixed=fixed
    ).decode(llrs_2d)
    many = decode_many(
        code, llrs_2d, max_iterations=MAX_ITER, fixed=fixed,
        schedule="column",
    )
    np.testing.assert_array_equal(many.bits, kernel.bits)
    assert many.iterations.tolist() == kernel.iterations.tolist()
    assert many.converged.tolist() == kernel.converged.tolist()


def test_decode_many_schedule_validation():
    registry = default_registry()
    code = registry.get("wimax-r12-576")
    llrs_2d = np.zeros((2, code.n))
    with pytest.raises(DecodingError):
        decode_many(code, llrs_2d, schedule="diagonal")
    with pytest.raises(TypeError):  # no kernel selector besides schedule
        decode_many(code, llrs_2d, schedule="column", kernel="fused")
    with pytest.raises(DecodingError):
        decode_many(
            code, llrs_2d, schedule="column", algorithm="flooding-min-sum"
        )


@pytest.mark.serve
def test_engine_column_kernel_matches_batch_decode():
    registry = default_registry()
    code = registry.get("wimax-r12-576")
    rng = np.random.default_rng(31)
    llrs_2d = _traffic(code, 8, 3.0, rng, registry.encoder("wimax-r12-576"))
    kernel = ColumnBatchLayeredMinSumDecoder(
        code, max_iterations=MAX_ITER
    ).decode(llrs_2d)
    engine = ContinuousBatchingEngine(
        code, batch_size=3, max_iterations=MAX_ITER, schedule="column"
    )
    done = engine.run(list(llrs_2d))
    for i, d in enumerate(done):
        np.testing.assert_array_equal(d.result.bits, kernel.bits[i])
        assert d.result.iterations == kernel.iterations[i]
        assert d.result.converged == bool(kernel.converged[i])


@pytest.mark.serve
def test_service_column_kernel_matches_batch_decode():
    registry = default_registry()
    code = registry.get("wifi-r23-648")
    rng = np.random.default_rng(32)
    llrs_2d = _traffic(code, 6, 4.0, rng, registry.encoder("wifi-r23-648"))
    kernel = ColumnBatchLayeredMinSumDecoder(
        code, max_iterations=MAX_ITER
    ).decode(llrs_2d)
    service = DecodeService(
        code, batch_size=3, max_iterations=MAX_ITER, schedule="column"
    )
    try:
        futures = [service.submit(f, timeout=None) for f in llrs_2d]
        done = [f.result() for f in futures]
    finally:
        service.close()
    for i, d in enumerate(done):
        np.testing.assert_array_equal(d.result.bits, kernel.bits[i])
        assert d.result.iterations == kernel.iterations[i]


def test_column_order_validation():
    registry = default_registry()
    code = registry.get("wimax-r12-576")
    nb = code.n // code.z
    with pytest.raises(DecodingError):
        ColumnLayeredMinSumDecoder(code, column_order=list(range(nb - 1)))
    with pytest.raises(DecodingError):
        ColumnLayeredMinSumDecoder(code, column_order=[0] * nb)


def test_custom_column_order_still_decodes():
    """A reversed sweep order is still a valid schedule."""
    registry = default_registry()
    code = registry.get("wimax-r12-576")
    rng = np.random.default_rng(44)
    llrs_2d = _traffic(code, 3, 4.0, rng, registry.encoder("wimax-r12-576"))
    nb = code.n // code.z
    dec = ColumnLayeredMinSumDecoder(
        code, max_iterations=MAX_ITER,
        column_order=list(reversed(range(nb))),
    )
    for frame in llrs_2d:
        result = dec.decode(frame)
        assert result.converged
        assert code.is_codeword(result.bits)
