"""FrameReader edge cases: arbitrary chunking, caps, lost sync, EOF.

The sans-io :class:`~repro.net.protocol.FrameReader` must assemble
frames from *any* byte chunking the wire produces — including one byte
at a time — enforce the frame-size cap exactly at the boundary, detect
a stream that lost frame sync (garbage magic mid-stream), and turn an
EOF inside a frame into a typed protocol error.
"""

import struct

import numpy as np
import pytest

from repro.errors import NetProtocolError
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameReader,
    Ping,
    Request,
    decode_frame,
    encode_ping,
    encode_request,
)

pytestmark = pytest.mark.net


def request_frame(job_id=1, count=32):
    rng = np.random.default_rng(job_id)
    return encode_request(
        job_id, "tenant", "code", 0, llrs=rng.normal(size=count),
    )


class TestChunking:
    def test_whole_frame_in_one_feed(self):
        reader = FrameReader()
        frames = reader.feed(request_frame())
        assert len(frames) == 1
        assert isinstance(decode_frame(frames[0]), Request)
        assert reader.buffered == 0

    def test_one_byte_at_a_time(self):
        wire = request_frame(job_id=7) + encode_ping(9)
        reader = FrameReader()
        collected = []
        for i in range(len(wire)):
            collected.extend(reader.feed(wire[i : i + 1]))
        assert len(collected) == 2
        req = decode_frame(collected[0])
        assert isinstance(req, Request) and req.job_id == 7
        ping = decode_frame(collected[1])
        assert isinstance(ping, Ping) and ping.job_id == 9
        assert reader.buffered == 0
        reader.feed_eof()  # clean boundary: no error

    def test_many_frames_in_one_chunk(self):
        wire = b"".join(request_frame(job_id=i) for i in range(1, 6))
        frames = FrameReader().feed(wire)
        assert [decode_frame(f).job_id for f in frames] == [1, 2, 3, 4, 5]

    def test_v2_frames_reassemble_identically(self):
        wire = request_frame(job_id=3)
        reader = FrameReader()
        out = []
        for i in range(0, len(wire), 3):
            out.extend(reader.feed(wire[i : i + 3]))
        assert len(out) == 1
        assert decode_frame(out[0]).job_id == 3  # CRC intact end to end


class TestSizeCap:
    def test_exactly_at_cap_accepted(self):
        payload = b"RN" + bytes(DEFAULT_MAX_FRAME_BYTES - 2)
        wire = struct.pack(">I", len(payload)) + payload
        reader = FrameReader()
        frames = reader.feed(wire)
        assert len(frames) == 1
        assert len(frames[0]) == DEFAULT_MAX_FRAME_BYTES

    def test_one_over_cap_rejected(self):
        length = DEFAULT_MAX_FRAME_BYTES + 1
        reader = FrameReader()
        with pytest.raises(NetProtocolError, match="exceeds"):
            # the length prefix alone is enough to refuse — no need to
            # buffer a megabyte of attacker-controlled bytes
            reader.feed(struct.pack(">I", length))

    def test_one_under_cap_accepted(self):
        payload = b"RN" + bytes(DEFAULT_MAX_FRAME_BYTES - 3)
        wire = struct.pack(">I", len(payload)) + payload
        frames = FrameReader().feed(wire)
        assert len(frames[0]) == DEFAULT_MAX_FRAME_BYTES - 1

    def test_custom_cap(self):
        reader = FrameReader(max_bytes=64)
        with pytest.raises(NetProtocolError, match="64-byte limit"):
            reader.feed(struct.pack(">I", 65))


class TestLostSync:
    def test_garbage_magic_mid_stream(self):
        reader = FrameReader()
        good = request_frame()
        assert len(reader.feed(good)) == 1
        # now bytes that parse as a plausible length but not a frame
        bad = struct.pack(">I", 40) + b"XX" + bytes(38)
        with pytest.raises(NetProtocolError, match="lost frame sync"):
            reader.feed(bad)

    def test_garbage_magic_detected_before_length_fills(self):
        # only 6 bytes fed: length says 1000 more are coming, but the
        # magic is already visibly wrong — fail now, not 1000 bytes later
        reader = FrameReader()
        with pytest.raises(NetProtocolError, match="bad magic"):
            reader.feed(struct.pack(">I", 1000) + b"ZZ")


class TestEof:
    def test_eof_inside_length_prefix(self):
        reader = FrameReader()
        reader.feed(b"\x00\x00")
        with pytest.raises(NetProtocolError, match="inside a length prefix"):
            reader.feed_eof()

    def test_eof_inside_header(self):
        wire = request_frame()
        reader = FrameReader()
        reader.feed(wire[:9])  # 4-byte prefix + 5 header bytes
        with pytest.raises(NetProtocolError, match="inside a frame"):
            reader.feed_eof()

    def test_eof_on_boundary_is_clean(self):
        reader = FrameReader()
        reader.feed(request_frame())
        reader.feed_eof()  # no bytes buffered: no error

    def test_feed_after_eof_rejected(self):
        reader = FrameReader()
        reader.feed_eof()
        with pytest.raises(NetProtocolError, match="after feed_eof"):
            reader.feed(b"x")
