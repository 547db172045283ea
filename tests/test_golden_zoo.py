"""Golden-vector regression for the registry zoo's new families.

Alongside ``wimax_2304_half.json`` (the paper's case-study code), three
more fixtures freeze decoded outputs for the families the registry
added: one 5G NR BG1 point, one NR BG2 point, and one 802.11n code,
each at a fixed Eb/N0 and seed, in both arithmetic modes.  Every
decode surface — per-frame decoder, batch kernel (as a batch and one
frame at a time), the one-call API, and a live :class:`DecodeService`
— must reproduce the
same bytes, so a change to the NR extension-row construction, the
802.11n tables, or any kernel shows up as a digest mismatch here
before it shows up as a silent behavior change in serving.

To regenerate after an *intentional* algorithm change: rebuild the
traffic with the recipe in ``_traffic`` below (registry encoder,
per-frame rng seeded ``seed + i``), decode with the per-frame decoder,
and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.channel import AwgnChannel
from repro.codes.registry import default_registry
from repro.decoder import LayeredMinSumDecoder, decode, decode_many
from repro.serve import BatchLayeredMinSumDecoder

pytestmark = pytest.mark.zoo

GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURES = ("nr_bg1_z16.json", "nr_bg2_z32.json", "wifi_648_half.json")


@pytest.fixture(scope="module", params=FIXTURES)
def golden(request):
    return json.loads((GOLDEN_DIR / request.param).read_text())


@pytest.fixture(scope="module")
def traffic(golden):
    registry = default_registry()
    code_id = golden["code"]["id"]
    code = registry.get(code_id)
    encoder = registry.encoder(code_id)
    llrs = []
    for i in range(golden["frames"]):
        gen = np.random.default_rng(golden["seed"] + i)
        message = gen.integers(0, 2, encoder.k).astype(np.uint8)
        codeword = encoder.encode(message)
        llrs.append(
            AwgnChannel.from_ebno(
                golden["ebno_db"], code.rate, seed=gen
            ).llrs(codeword)
        )
    return code, llrs


def _digest(bits_2d: np.ndarray) -> str:
    return hashlib.sha256(
        np.asarray(bits_2d, dtype=np.uint8).tobytes()
    ).hexdigest()


@pytest.mark.parametrize("mode", ["float", "fixed"])
class TestZooGoldenVectors(object):
    def test_per_frame_decoder(self, golden, traffic, mode):
        code, llrs = traffic
        dec = LayeredMinSumDecoder(
            code, max_iterations=golden["max_iterations"],
            fixed=mode == "fixed",
        )
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
            code, max_iterations=golden["max_iterations"],
            fixed=mode == "fixed",
        ).decode(np.stack(llrs))
        assert _digest(result.bits) == golden[mode]["bits_sha256"]
        assert result.iterations.tolist() == golden[mode]["iterations"]
        assert result.converged.tolist() == golden[mode]["converged"]

    @pytest.mark.accel
    def test_fused_kernel(self, golden, traffic, mode):
        # the fused frame-minor kernel at width 1 (the engine's
        # narrowest state), one frame per decode
        code, llrs = traffic
        decoder = BatchLayeredMinSumDecoder(
            code, max_iterations=golden["max_iterations"],
            fixed=mode == "fixed",
        )
        results = [decoder.decode(f[None, :]) for f in llrs]
        bits = np.concatenate([r.bits for r in results])
        assert _digest(bits) == golden[mode]["bits_sha256"]
        assert [int(r.iterations[0]) for r in results] == (
            golden[mode]["iterations"]
        )
        assert [bool(r.converged[0]) for r in results] == (
            golden[mode]["converged"]
        )

    def test_one_call_api(self, golden, traffic, mode):
        code, llrs = traffic
        fixed = mode == "fixed"
        singles = [
            decode(code, f, max_iterations=golden["max_iterations"],
                   fixed=fixed)
            for f in llrs
        ]
        assert _digest(np.stack([r.bits for r in singles])) == golden[mode][
            "bits_sha256"
        ]
        many = decode_many(
            code, np.stack(llrs), max_iterations=golden["max_iterations"],
            fixed=fixed,
        )
        assert _digest(many.bits) == golden[mode]["bits_sha256"]
        assert many.iterations.tolist() == golden[mode]["iterations"]

    @pytest.mark.serve
    def test_service(self, golden, traffic, mode):
        from repro.serve.pool import DecodeService

        code, llrs = traffic
        service = DecodeService(
            code, batch_size=3, max_iterations=golden["max_iterations"],
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


def test_fixtures_are_well_formed():
    registry = default_registry()
    for name in FIXTURES:
        doc = json.loads((GOLDEN_DIR / name).read_text())
        assert doc["code"]["id"] in registry
        assert doc["surfaces"] == [
            "per-frame", "batch-kernel", "one-call", "fused-kernel",
            "service-thread",
        ]
        for mode in ("float", "fixed"):
            block = doc[mode]
            assert len(block["bits_sha256"]) == 64
            assert len(block["iterations"]) == doc["frames"]
            assert all(
                1 <= it <= doc["max_iterations"]
                for it in block["iterations"]
            )
