"""The one wire format: CRC-32 trailers, always-present fields, HELLO
as a version check, and the declared-count-vs-payload guards.

Every frame must round-trip bit-exactly, and any single flipped wire
byte, header bytes included, must surface as
:class:`~repro.errors.FrameCorruptionError` — never as silently wrong
LLRs or bits.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.errors import FrameCorruptionError, NetProtocolError
from repro.net.protocol import (
    MSG_HELLO,
    VERSION,
    Hello,
    Request,
    Result,
    decode_frame,
    encode_hello,
    encode_ping,
    encode_pong,
    encode_request,
    encode_result,
    pack_llrs,
    unpack_llrs,
)

pytestmark = pytest.mark.net


def payload_of(wire: bytes) -> bytes:
    """Strip the u32 length prefix off an encoded frame."""
    (length,) = struct.unpack(">I", wire[:4])
    assert len(wire) == 4 + length
    return wire[4:]


def with_crc(payload: bytes) -> bytes:
    """Re-seal an edited header+body with a valid CRC-32 trailer."""
    return payload + struct.pack(">I", zlib.crc32(payload))


class TestV2Roundtrip:
    def test_request_roundtrip_with_key(self):
        rng = np.random.default_rng(0)
        llrs = rng.normal(size=96)
        wire = encode_request(
            11, "paid", "wimax", 2, llrs=llrs, idempotency_key="conn0-7",
        )
        req = decode_frame(payload_of(wire))
        assert isinstance(req, Request)
        assert req.idempotency_key == "conn0-7"
        assert req.job_id == 11 and req.tenant == "paid"
        assert req.trace is None
        i8, scale = pack_llrs(llrs)
        np.testing.assert_array_equal(req.llrs_i8, i8)
        np.testing.assert_allclose(req.llrs(), unpack_llrs(i8, scale))

    def test_request_empty_key_allowed(self):
        wire = encode_request(1, "t", "c", 0, llrs=np.zeros(8))
        assert decode_frame(payload_of(wire)).idempotency_key == ""

    def test_result_roundtrip(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0], dtype=np.uint8)
        wire = encode_result(5, True, 9, bits)
        res = decode_frame(payload_of(wire))
        assert isinstance(res, Result)
        assert res.converged and res.iterations == 9
        np.testing.assert_array_equal(res.bits, bits)

    def test_control_frames_carry_crc(self):
        # PING/PONG/HELLO payloads end with a 4-byte trailer beyond the
        # 12-byte header
        for wire in (encode_ping(3), encode_pong(3), encode_hello(3)):
            assert len(payload_of(wire)) == 12 + 4
            decode_frame(payload_of(wire))  # CRC verifies


class TestCorruptionDetection:
    def test_every_flipped_byte_detected(self):
        wire = encode_request(
            7, "t", "c", 0, llrs=np.linspace(-4, 4, 48), idempotency_key="k",
        )
        payload = bytearray(payload_of(wire))
        # the trailer covers the header too: magic, version and type
        # flips are corruption as well
        for pos in range(len(payload)):
            payload[pos] ^= 0x40
            with pytest.raises(FrameCorruptionError):
                decode_frame(bytes(payload))
            payload[pos] ^= 0x40
        decode_frame(bytes(payload))  # restored payload still parses

    def test_crc_trailer_flip_detected(self):
        wire = encode_ping(1)
        payload = bytearray(payload_of(wire))
        payload[-1] ^= 0x01
        with pytest.raises(FrameCorruptionError, match="CRC-32 mismatch"):
            decode_frame(bytes(payload))

    def test_truncated_v2_frame_detected(self):
        payload = payload_of(encode_result(1, True, 3, np.ones(16)))
        with pytest.raises(FrameCorruptionError):
            decode_frame(payload[:-3])

    def test_v2_frame_shorter_than_trailer(self):
        header = struct.pack(">2sBBQ", b"RN", VERSION, 4, 0)
        with pytest.raises(FrameCorruptionError, match="too short"):
            decode_frame(header + b"\x00\x00")


class TestCountGuards:
    def test_request_count_mismatch(self):
        wire = encode_request(1, "t", "c", 0, llrs=np.ones(32))
        body = bytearray(payload_of(wire)[:-4])
        # the u32 LLR count sits right before the 32 int8 samples; the
        # lying frame is re-sealed so the count guard, not the CRC,
        # has to catch it
        count_off = len(body) - 32 - 4
        body[count_off : count_off + 4] = struct.pack(">I", 33)
        with pytest.raises(NetProtocolError, match="declares 33 LLR samples"):
            decode_frame(with_crc(bytes(body)))

    def test_result_count_mismatch(self):
        wire = encode_result(1, True, 3, np.ones(24))
        body = bytearray(payload_of(wire)[:-4])
        # bit_count is the u32 after the 12-byte header, the 16-byte
        # trace context, converged u8 and iterations u16
        body[31:35] = struct.pack(">I", 80)  # says 10 packed bytes
        with pytest.raises(NetProtocolError, match="declares 80 bits"):
            decode_frame(with_crc(bytes(body)))


class TestHello:
    def test_hello_travels_at_version(self):
        # HELLO is a version check: the header carries VERSION and the
        # body is empty
        payload = payload_of(encode_hello(4))
        assert payload[2] == VERSION and payload[3] == MSG_HELLO
        assert decode_frame(payload) == Hello(job_id=4)

    def test_version_constants(self):
        import repro.net.protocol as protocol

        assert VERSION == 3
        for gone in ("V1", "V2", "SUPPORTED_VERSIONS", "CLIENT_FLAGS"):
            assert not hasattr(protocol, gone)

    def test_unsupported_version_refused(self):
        # a well-sealed frame of another version is a typed refusal,
        # not a downgrade; an unsealed one is corruption that still
        # names the version
        for version in (1, 2, 4):
            header = struct.pack(">2sBBQ", b"RN", version, MSG_HELLO, 0)
            with pytest.raises(NetProtocolError,
                               match="unsupported protocol version"):
                decode_frame(with_crc(header))
            with pytest.raises(FrameCorruptionError,
                               match="unsupported protocol version"):
                decode_frame(header + b"\x00\x00\x00\x00")
