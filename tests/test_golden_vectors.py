"""Golden-vector regression: frozen decoded outputs for (2304, 1/2).

``tests/golden/wimax_2304_half.json`` freezes the sha256 of the hard
decisions plus the per-frame iteration counts for six seeded frames of
the paper's case-study code at 2.5 dB, in both arithmetic modes.  Any
change to the decoder arithmetic — quantization, scaling, layer order,
syndrome checks — shows up here as a digest mismatch, and every decode
surface (per-frame class, batch kernel as a batch and one frame at a
time, one-call API, decode service) must reproduce the same
bytes.

If an *intentional* algorithm change lands, regenerate the fixture with
the recipe in this file's ``_traffic`` helper and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.codes import wimax_code
from repro.decoder import LayeredMinSumDecoder, decode, decode_many
from repro.serve import BatchLayeredMinSumDecoder
from tests.conftest import noisy_frame

GOLDEN_PATH = Path(__file__).parent / "golden" / "wimax_2304_half.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def traffic(golden):
    code = wimax_code(golden["code"]["rate"], golden["code"]["length"])
    llrs = [
        noisy_frame(code, golden["ebno_db"], seed=golden["seed"] + i)[1]
        for i in range(golden["frames"])
    ]
    return code, llrs


def _digest(bits_2d: np.ndarray) -> str:
    return hashlib.sha256(
        np.asarray(bits_2d, dtype=np.uint8).tobytes()
    ).hexdigest()


@pytest.mark.parametrize("mode", ["float", "fixed"])
class TestGoldenVectors(object):
    def test_per_frame_decoder(self, golden, traffic, mode):
        code, llrs = traffic
        dec = LayeredMinSumDecoder(code, fixed=mode == "fixed")
        results = [dec.decode(f) for f in llrs]
        assert _digest(np.stack([r.bits for r in results])) == golden[mode][
            "bits_sha256"
        ]
        assert [r.iterations for r in results] == golden[mode]["iterations"]
        assert [r.converged for r in results] == golden[mode]["converged"]
        assert [r.syndrome_weight for r in results] == golden[mode][
            "syndrome_weights"
        ]

    def test_batch_kernel(self, golden, traffic, mode):
        code, llrs = traffic
        result = BatchLayeredMinSumDecoder(
            code, fixed=mode == "fixed"
        ).decode(np.stack(llrs))
        assert _digest(result.bits) == golden[mode]["bits_sha256"]
        assert result.iterations.tolist() == golden[mode]["iterations"]
        assert result.converged.tolist() == golden[mode]["converged"]

    @pytest.mark.accel
    def test_fused_kernel(self, golden, traffic, mode):
        # the fused frame-minor kernel at width 1 (the engine's
        # narrowest state), one frame per decode
        code, llrs = traffic
        decoder = BatchLayeredMinSumDecoder(code, fixed=mode == "fixed")
        results = [decoder.decode(f[None, :]) for f in llrs]
        bits = np.concatenate([r.bits for r in results])
        assert _digest(bits) == golden[mode]["bits_sha256"]
        assert [int(r.iterations[0]) for r in results] == (
            golden[mode]["iterations"]
        )
        assert [bool(r.converged[0]) for r in results] == (
            golden[mode]["converged"]
        )

    @pytest.mark.serve
    def test_service(self, golden, traffic, mode):
        from repro.serve.pool import DecodeService

        code, llrs = traffic
        service = DecodeService(
            code,
            batch_size=4,
            max_iterations=golden["max_iterations"],
            fixed=mode == "fixed",
        )
        try:
            futures = [service.submit(f, timeout=None) for f in llrs]
            done = [f.result() for f in futures]
        finally:
            service.close()
        assert _digest(
            np.stack([d.result.bits for d in done])
        ) == golden[mode]["bits_sha256"]
        assert [d.result.iterations for d in done] == golden[mode][
            "iterations"
        ]
        assert [d.result.converged for d in done] == golden[mode]["converged"]

    def test_one_call_api(self, golden, traffic, mode):
        code, llrs = traffic
        fixed = mode == "fixed"
        singles = [decode(code, f, fixed=fixed) for f in llrs]
        assert _digest(np.stack([r.bits for r in singles])) == golden[mode][
            "bits_sha256"
        ]
        many = decode_many(code, np.stack(llrs), fixed=fixed)
        assert _digest(many.bits) == golden[mode]["bits_sha256"]
        assert many.iterations.tolist() == golden[mode]["iterations"]


def test_fixture_is_well_formed(golden):
    assert golden["code"] == {"family": "wimax", "rate": "1/2",
                              "length": 2304}
    assert golden["surfaces"] == [
        "per-frame", "batch-kernel", "one-call", "fused-kernel",
        "service-process",
    ]
    for mode in ("float", "fixed"):
        block = golden[mode]
        assert len(block["bits_sha256"]) == 64
        assert len(block["iterations"]) == golden["frames"]
        assert all(
            1 <= it <= golden["max_iterations"]
            for it in block["iterations"]
        )
