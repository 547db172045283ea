"""The frame trailer: an IEEE CRC-32 pinned by known answers.

Every frame ends in ``zlib.crc32`` of its header plus body.  These
checks pin the polynomial (the standard check value, read back off a
frame built by ``encode_request``), the exact bytes of one REQUEST and
one RESULT, and that no single flipped bit anywhere in a frame gets
past the trailer.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.errors import FrameCorruptionError
from repro.net.protocol import decode_frame, encode_request, encode_result
from repro.obs.trace import TraceContext

pytestmark = pytest.mark.net


def payload_of(wire: bytes) -> bytes:
    """Strip the u32 length prefix off an encoded frame."""
    (length,) = struct.unpack(">I", wire[:4])
    assert len(wire) == 4 + length
    return wire[4:]


class TestVectors:
    def test_canonical_check_vector(self):
        # the trailer of a real REQUEST is zlib.crc32 over header+body,
        # and zlib.crc32 is the IEEE CRC-32: its standard check value
        payload = payload_of(
            encode_request(1, "t", "c", 0, llrs=np.linspace(-2, 2, 24))
        )
        (trailer,) = struct.unpack(">I", payload[-4:])
        assert trailer == zlib.crc32(payload[:-4])
        assert zlib.crc32(b"123456789") == 0xCBF43926

    def test_known_vectors(self):
        # golden bytes: any change to the layout, the field order or
        # the checksum breaks these
        request = encode_request(
            0x0102030405060708, "t", "cd", 5,
            llrs_i8=np.array([1, -2, 3, -4], dtype=np.int8), scale=0.5,
            idempotency_key="k",
            trace=TraceContext(0x1122334455667788, 0x99),
        )
        assert request == bytes.fromhex(
            "00000037"                              # u32 length
            "524e" "03" "01" "0102030405060708"     # RN, v3, REQUEST, job
            "1122334455667788" "0000000000000099"   # trace id, parent span
            "05" "0001" "74" "0002" "6364"          # priority, tenant, code
            "0001" "6b"                             # idempotency key
            "3f000000" "00000004" "01fe03fc"        # scale, count, int8s
            "6ac27d62"                              # CRC-32 trailer
        )
        result = encode_result(
            9, True, 4, np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1], np.uint8)
        )
        assert result == bytes.fromhex(
            "00000029"                              # u32 length
            "524e" "03" "02" "0000000000000009"     # RN, v3, RESULT, job
            "0000000000000000" "0000000000000000"   # no trace context
            "01" "0004" "0000000a" "b2c0"           # converged, iters, bits
            "96ac1061"                              # CRC-32 trailer
        )


class TestProperties:
    def test_single_bit_flip_always_detected(self):
        # every bit of the payload, header and trailer included
        payload = bytearray(payload_of(encode_request(
            7, "t", "c", 0, llrs=np.linspace(-4, 4, 24),
            idempotency_key="k", trace=TraceContext(5, 6),
        )))
        for pos in range(len(payload)):
            for bit in range(8):
                payload[pos] ^= 1 << bit
                with pytest.raises(FrameCorruptionError):
                    decode_frame(bytes(payload))
                payload[pos] ^= 1 << bit
        decode_frame(bytes(payload))  # restored payload still parses
