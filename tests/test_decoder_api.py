"""Tests for the one-call decode API."""

import numpy as np
import pytest

from repro.decoder import BatchDecodeResult, decode, decode_many
from repro.errors import DecodingError
from tests.conftest import noisy_frame


class TestDecodeApi:
    def test_default_is_layered(self, small_code):
        cw, llrs = noisy_frame(small_code, ebno_db=5.0, seed=0)
        result = decode(small_code, llrs)
        assert result.converged
        np.testing.assert_array_equal(result.bits, cw)

    @pytest.mark.parametrize(
        "algorithm",
        [
            "layered-min-sum",
            "layered-sum-product",
            "flooding-min-sum",
            "flooding-sum-product",
        ],
    )
    def test_all_algorithms_decode(self, small_code, algorithm):
        cw, llrs = noisy_frame(small_code, ebno_db=6.0, seed=1)
        result = decode(small_code, llrs, algorithm=algorithm, max_iterations=30)
        assert result.converged
        np.testing.assert_array_equal(result.bits, cw)

    def test_fixed_mode(self, small_code):
        cw, llrs = noisy_frame(small_code, ebno_db=6.0, seed=2)
        result = decode(small_code, llrs, fixed=True)
        np.testing.assert_array_equal(result.bits, cw)

    def test_fixed_flooding_rejected(self, small_code):
        _cw, llrs = noisy_frame(small_code, ebno_db=6.0, seed=3)
        with pytest.raises(DecodingError):
            decode(small_code, llrs, algorithm="flooding-min-sum", fixed=True)

    def test_unknown_algorithm_rejected(self, small_code):
        _cw, llrs = noisy_frame(small_code, ebno_db=6.0, seed=4)
        with pytest.raises(DecodingError):
            decode(small_code, llrs, algorithm="turbo")

    def test_iteration_budget_respected(self, small_code):
        _cw, llrs = noisy_frame(small_code, ebno_db=0.0, seed=5)
        result = decode(small_code, llrs, max_iterations=3)
        assert result.iterations <= 3


class TestDecodeManyApi:
    """decode_many shares decode's dispatch; kernel bit-exactness is
    covered in depth by tests/test_serve_batch.py."""

    def test_batched_default_matches_decode(self, small_code):
        frames = [noisy_frame(small_code, ebno_db=5.0, seed=s)[1] for s in (0, 1)]
        many = decode_many(small_code, np.stack(frames))
        assert isinstance(many, BatchDecodeResult)
        for i, llrs in enumerate(frames):
            single = decode(small_code, llrs)
            np.testing.assert_array_equal(many.bits[i], single.bits)
            assert int(many.iterations[i]) == single.iterations

    def test_same_validation_as_decode(self, small_code):
        llrs = np.zeros((1, small_code.n))
        with pytest.raises(DecodingError):
            decode_many(small_code, llrs, algorithm="turbo")
        with pytest.raises(DecodingError):
            decode_many(small_code, llrs, algorithm="flooding-min-sum", fixed=True)

    def test_fixed_mode_batch(self, small_code):
        cw, llrs = noisy_frame(small_code, ebno_db=6.0, seed=8)
        many = decode_many(small_code, llrs[None, :], fixed=True)
        np.testing.assert_array_equal(many.bits[0], cw)

    def test_fused_kernel_matches_batch_kernel(self, small_code):
        # the one (fused, frame-minor) batch kernel against the per-frame
        # decoder, LLRs included, in both arithmetic modes
        frames = [noisy_frame(small_code, ebno_db=5.0, seed=s)[1] for s in (2, 3)]
        llrs_2d = np.stack(frames)
        for fixed in (False, True):
            many = decode_many(small_code, llrs_2d, fixed=fixed)
            for i, llrs in enumerate(frames):
                single = decode(small_code, llrs, fixed=fixed)
                np.testing.assert_array_equal(many.bits[i], single.bits)
                np.testing.assert_array_equal(many.llrs[i], single.llrs)
                assert int(many.iterations[i]) == single.iterations

    def test_unknown_kernel_rejected(self, small_code):
        # one batch kernel: decode_many has no kernel selector left
        with pytest.raises(TypeError, match="kernel"):
            decode_many(small_code, np.zeros((1, small_code.n)), kernel="gpu")
