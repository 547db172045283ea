"""Bit-exactness and edge cases of the vectorized batch kernel.

The load-bearing guarantee of :mod:`repro.serve` is that batching is a
pure performance transform: the batch kernel must reproduce the
per-frame :class:`LayeredMinSumDecoder` — hard bits, iteration counts,
parity status, final LLRs, per-iteration syndrome trails — frame for
frame, in float and fixed-point modes, across rate classes.
"""

import numpy as np
import pytest

from repro.channel import AwgnChannel
from repro.codes import wimax_code
from repro.decoder import LayeredMinSumDecoder, decode, decode_many
from repro.encoder import RuEncoder
from repro.errors import DecodingError
from repro.serve import BatchLayeredMinSumDecoder

pytestmark = pytest.mark.serve

#: rates 1/2, 2/3, 3/4 at the shortest WiMax length (fast decodes).
RATE_CLASSES = ("1/2", "2/3A", "3/4A")
FRAMES_PER_RATE = 18  # 3 rates x 18 = 54 >= 50 frames per arithmetic mode


def traffic(code, count, seed, ebno_range=(0.5, 3.5)):
    """Random frames with mixed SNRs so iteration counts vary."""
    rng = np.random.default_rng(seed)
    encoder = RuEncoder(code)
    frames = []
    for _ in range(count):
        message = rng.integers(0, 2, encoder.k).astype(np.uint8)
        codeword = encoder.encode(message)
        ebno = rng.uniform(*ebno_range)
        frames.append(
            AwgnChannel.from_ebno(ebno, code.rate, seed=rng).llrs(codeword)
        )
    return frames


class TestBitExactness:
    @pytest.mark.parametrize("rate", RATE_CLASSES)
    @pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
    def test_matches_per_frame_decoder(self, rate, fixed):
        code = wimax_code(rate, 576)
        frames = traffic(code, FRAMES_PER_RATE, seed=11)
        reference = [
            LayeredMinSumDecoder(code, fixed=fixed).decode(f) for f in frames
        ]
        batch = BatchLayeredMinSumDecoder(code, fixed=fixed).decode(
            np.stack(frames)
        )

        assert len(batch) == FRAMES_PER_RATE
        # mixed SNR must exercise both early retirement and budget exhaustion
        assert len({r.iterations for r in reference}) > 1
        for i, ref in enumerate(reference):
            np.testing.assert_array_equal(batch.bits[i], ref.bits)
            np.testing.assert_array_equal(batch.llrs[i], ref.llrs)
            assert int(batch.iterations[i]) == ref.iterations
            assert bool(batch.converged[i]) == ref.converged
            assert int(batch.syndrome_weights[i]) == ref.syndrome_weight
            assert batch.iteration_syndromes[i] == ref.iteration_syndromes

    def test_per_frame_export_round_trip(self, wimax_short):
        frames = traffic(wimax_short, 4, seed=2)
        batch = BatchLayeredMinSumDecoder(wimax_short).decode(np.stack(frames))
        for i, result in enumerate(batch.per_frame()):
            np.testing.assert_array_equal(result.bits, batch.bits[i])
            assert result.iterations == int(batch.iterations[i])
            assert result.message_bits(wimax_short.k).shape == (wimax_short.k,)

    def test_iterations_saved_accounting(self, wimax_short):
        frames = traffic(wimax_short, 6, seed=3, ebno_range=(4.0, 5.0))
        batch = BatchLayeredMinSumDecoder(wimax_short).decode(np.stack(frames))
        assert batch.num_converged == 6
        expected = sum(
            batch.max_iterations - int(it) for it in batch.iterations
        )
        assert batch.iterations_saved == expected > 0


class TestBatchEdgeCases:
    def test_empty_batch(self, wimax_short):
        batch = BatchLayeredMinSumDecoder(wimax_short).decode(
            np.zeros((0, wimax_short.n))
        )
        assert len(batch) == 0
        assert batch.num_converged == 0
        assert batch.iterations_saved == 0
        assert batch.per_frame() == []

    def test_single_frame_batch(self, wimax_short):
        (frame,) = traffic(wimax_short, 1, seed=4, ebno_range=(3.0, 3.0))
        ref = LayeredMinSumDecoder(wimax_short).decode(frame)
        batch = BatchLayeredMinSumDecoder(wimax_short).decode(frame[None, :])
        np.testing.assert_array_equal(batch.bits[0], ref.bits)
        assert int(batch.iterations[0]) == ref.iterations

    def test_wrong_shape_rejected(self, wimax_short):
        kernel = BatchLayeredMinSumDecoder(wimax_short)
        with pytest.raises(DecodingError):
            kernel.decode(np.zeros(wimax_short.n))  # 1-D
        with pytest.raises(DecodingError):
            kernel.decode(np.zeros((2, wimax_short.n + 1)))

    def test_invalid_parameters_rejected(self, wimax_short):
        with pytest.raises(DecodingError):
            BatchLayeredMinSumDecoder(wimax_short, max_iterations=0)
        with pytest.raises(DecodingError):
            BatchLayeredMinSumDecoder(wimax_short, scaling_factor=1.5)


class TestDecodeMany:
    def test_matches_single_frame_api(self, wimax_short):
        frames = traffic(wimax_short, 5, seed=6)
        many = decode_many(wimax_short, np.stack(frames))
        for i, frame in enumerate(frames):
            single = decode(wimax_short, frame)
            np.testing.assert_array_equal(many.bits[i], single.bits)
            assert int(many.iterations[i]) == single.iterations

    def test_non_layered_algorithm_loops(self, small_code):
        frames = traffic(small_code, 3, seed=7, ebno_range=(5.0, 6.0))
        many = decode_many(
            small_code,
            np.stack(frames),
            algorithm="flooding-min-sum",
            max_iterations=30,
        )
        assert many.converged.all()
        for i, frame in enumerate(frames):
            single = decode(
                small_code, frame, algorithm="flooding-min-sum", max_iterations=30
            )
            np.testing.assert_array_equal(many.bits[i], single.bits)

    def test_shared_validation_with_decode(self, wimax_short):
        llrs = np.zeros((2, wimax_short.n))
        with pytest.raises(DecodingError):
            decode_many(wimax_short, llrs, algorithm="turbo")
        with pytest.raises(DecodingError):
            decode_many(wimax_short, llrs, algorithm="flooding-min-sum", fixed=True)
        with pytest.raises(DecodingError):
            decode_many(wimax_short, np.zeros(wimax_short.n))

    def test_empty_matrix(self, wimax_short):
        many = decode_many(wimax_short, np.zeros((0, wimax_short.n)))
        assert len(many) == 0
