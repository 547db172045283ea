"""Wire-format unit tests: framing, quantization, typed error transport.

The protocol's load-bearing guarantee is that the *canonical* LLR
vector (int8 payload times scale) is what both ends agree on — so a
round trip through ``encode_request``/``decode_frame`` must reproduce
it exactly, and re-packing a canonical vector must be the identity.
"""

import asyncio
import struct

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    NetProtocolError,
    QueueFullError,
    QuotaExceededError,
    RemoteDecodeError,
    ServeError,
)
from repro.net.protocol import (
    MAGIC,
    MSG_REQUEST,
    VERSION,
    ErrorFrame,
    Ping,
    Pong,
    Request,
    Result,
    decode_frame,
    encode_error,
    encode_ping,
    encode_pong,
    encode_request,
    encode_result,
    error_to_exception,
    pack_llrs,
    read_frame,
    read_raw,
    unpack_llrs,
)

pytestmark = pytest.mark.net


def body(frame: bytes) -> bytes:
    """Strip the u32 length prefix."""
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    return frame[4:]


class TestLlrQuantization:
    def test_roundtrip_is_canonical(self, rng):
        llrs = rng.normal(0, 4, 576)
        i8, scale = pack_llrs(llrs)
        canonical = unpack_llrs(i8, scale)
        # packing the canonical vector again is the identity
        i8_2, scale_2 = pack_llrs(canonical)
        assert scale_2 == pytest.approx(scale)
        np.testing.assert_array_equal(i8, i8_2)
        np.testing.assert_allclose(unpack_llrs(i8_2, scale_2), canonical)

    def test_scale_maps_peak_to_127(self, rng):
        llrs = rng.normal(0, 4, 100)
        i8, scale = pack_llrs(llrs)
        assert np.abs(i8).max() == 127
        assert scale == pytest.approx(np.abs(llrs).max() / 127.0)

    def test_all_zero_frame(self):
        i8, scale = pack_llrs(np.zeros(64))
        assert scale == 1.0
        assert not i8.any()
        np.testing.assert_array_equal(unpack_llrs(i8, scale), np.zeros(64))

    def test_non_finite_refused(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(NetProtocolError, match="non-finite"):
                pack_llrs(np.array([1.0, bad, -2.0]))

    def test_subnormal_frame_packs_as_zero(self):
        # no normal-magnitude value: the zero frame's scale, no overflow
        i8, scale = pack_llrs(np.array([5e-324, -1e-310, 0.0]))
        assert scale == 1.0
        assert not i8.any()

    def test_signs_survive(self, rng):
        llrs = rng.normal(0, 2, 576)
        llrs[np.abs(llrs) < 0.1] = 0.5  # keep magnitudes quantizable
        canonical = unpack_llrs(*pack_llrs(llrs))
        np.testing.assert_array_equal(np.sign(canonical), np.sign(llrs))


class TestFrameRoundtrips:
    def test_request(self, rng):
        llrs = unpack_llrs(*pack_llrs(rng.normal(0, 3, 576)))
        frame = encode_request(7, "gold", "1/2", 2, llrs=llrs)
        decoded = decode_frame(body(frame))
        assert isinstance(decoded, Request)
        assert decoded.job_id == 7
        assert decoded.tenant == "gold"
        assert decoded.code_id == "1/2"
        assert decoded.priority == 2
        np.testing.assert_allclose(decoded.llrs(), llrs, rtol=0, atol=1e-6)

    def test_result(self, rng):
        bits = rng.integers(0, 2, 576).astype(np.uint8)
        decoded = decode_frame(body(encode_result(9, True, 4, bits)))
        assert isinstance(decoded, Result)
        assert decoded.job_id == 9
        assert decoded.converged is True
        assert decoded.iterations == 4
        np.testing.assert_array_equal(decoded.bits, bits)

    def test_error(self):
        frame = encode_error(3, QueueFullError("queue is full"))
        decoded = decode_frame(body(frame))
        assert isinstance(decoded, ErrorFrame)
        assert decoded.job_id == 3
        assert decoded.kind == "QueueFullError"
        with pytest.raises(QueueFullError, match="queue is full"):
            raise decoded.to_exception()

    def test_ping_pong(self):
        ping = decode_frame(body(encode_ping(5)))
        pong = decode_frame(body(encode_pong(5)))
        assert isinstance(ping, Ping) and ping.job_id == 5
        assert isinstance(pong, Pong) and pong.job_id == 5


class TestMalformedFrames:
    def test_bad_magic(self):
        payload = bytearray(body(encode_ping(1)))
        payload[0:2] = b"XX"
        with pytest.raises(NetProtocolError, match="magic"):
            decode_frame(bytes(payload))

    def test_bad_version(self):
        payload = bytearray(body(encode_ping(1)))
        payload[2] = VERSION + 1
        with pytest.raises(NetProtocolError, match="version"):
            decode_frame(bytes(payload))

    def test_unknown_message_type(self):
        payload = bytearray(body(encode_ping(1)))
        payload[3] = 99
        with pytest.raises(NetProtocolError, match="message type"):
            decode_frame(bytes(payload))

    def test_truncated_header(self):
        with pytest.raises(NetProtocolError):
            decode_frame(MAGIC + bytes([VERSION]))

    def test_truncated_request_body(self, rng):
        payload = body(encode_request(1, "t", "", 0,
                                      llrs=rng.normal(0, 2, 24)))
        with pytest.raises(NetProtocolError):
            decode_frame(payload[:-5])


class TestStreamReading:
    def _reader(self, data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def test_clean_eof_returns_none(self):
        async def run():
            return await read_raw(self._reader(b""), 1 << 20)

        assert asyncio.run(run()) is None

    def test_mid_frame_eof_raises(self):
        async def run():
            # a length prefix promising more bytes than arrive
            return await read_raw(self._reader(b"\x00\x00\x00\x10abc"), 1 << 20)

        with pytest.raises(NetProtocolError):
            asyncio.run(run())

    def test_oversized_frame_rejected(self):
        async def run():
            data = struct.pack(">I", 4096) + b"x" * 4096
            return await read_raw(self._reader(data), max_bytes=64)

        with pytest.raises(NetProtocolError, match="exceeds"):
            asyncio.run(run())

    def test_read_frame_decodes(self):
        async def run():
            return await read_frame(self._reader(encode_pong(11)), 1 << 20)

        frame = asyncio.run(run())
        assert isinstance(frame, Pong) and frame.job_id == 11

    def test_two_frames_back_to_back(self):
        async def run():
            reader = self._reader(encode_ping(1) + encode_pong(2))
            first = await read_frame(reader, 1 << 20)
            second = await read_frame(reader, 1 << 20)
            third = await read_frame(reader, 1 << 20)
            return first, second, third

        first, second, third = asyncio.run(run())
        assert isinstance(first, Ping) and isinstance(second, Pong)
        assert third is None


class TestErrorMapping:
    @pytest.mark.parametrize("exc_type", [
        QueueFullError, QuotaExceededError, DeadlineExceededError, ServeError,
    ])
    def test_known_kinds_reraise_same_type(self, exc_type):
        exc = error_to_exception(exc_type.__name__, "boom")
        assert type(exc) is exc_type
        assert "boom" in str(exc)

    def test_unknown_kind_becomes_remote_error(self):
        exc = error_to_exception("SomethingWeird", "huh")
        assert isinstance(exc, RemoteDecodeError)
        assert exc.kind == "SomethingWeird"
        assert "huh" in str(exc)

    def test_header_says_request(self):
        payload = body(encode_request(1, "t", "", 0, llrs=np.ones(8)))
        assert payload[3] == MSG_REQUEST
