"""Property-based fuzzing of the wire format (hypothesis).

Whatever bytes arrive — random streams, valid frames in any chunking,
or valid REQUEST/RESULT/ERROR/HELLO frames with bytes mutated — the
codec may only return a frame or raise a typed
:class:`~repro.errors.NetProtocolError` (including
:class:`~repro.errors.FrameCorruptionError`).  It never buffers past
the frame-size cap, never waits on a stream that has ended, and never
lets a single flipped bit through the CRC-32 trailer.
"""

import asyncio
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import FrameCorruptionError, NetProtocolError
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    ErrorFrame,
    FrameReader,
    Hello,
    Request,
    Result,
    decode_frame,
    encode_error,
    encode_hello,
    encode_request,
    encode_result,
    read_frame,
)
from repro.obs.trace import TraceContext

pytestmark = pytest.mark.net

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

u64 = st.integers(0, (1 << 64) - 1)
traces = st.one_of(st.none(), st.builds(TraceContext, u64, u64))
texts = st.text(max_size=12)


@st.composite
def requests(draw):
    i8 = np.array(
        draw(st.lists(st.integers(-127, 127), max_size=64)), dtype=np.int8
    )
    scale = draw(st.floats(min_value=0.125, max_value=1024.0, width=32))
    return encode_request(
        draw(u64), draw(texts), draw(texts), draw(st.integers(0, 255)),
        llrs_i8=i8, scale=scale, idempotency_key=draw(texts),
        trace=draw(traces),
    )


@st.composite
def results(draw):
    bits = np.array(
        draw(st.lists(st.integers(0, 1), max_size=80)), dtype=np.uint8
    )
    return encode_result(
        draw(u64), draw(st.booleans()), draw(st.integers(0, 0xFFFF)), bits,
        trace=draw(traces),
    )


@st.composite
def errors(draw):
    exc = draw(st.sampled_from([ValueError, NetProtocolError]))(draw(texts))
    return encode_error(draw(u64), exc, trace=draw(traces))


valid_frames = st.one_of(
    requests(), results(), errors(), st.builds(encode_hello, u64)
)


def payload_of(wire: bytes) -> bytes:
    return wire[4:]


def decode_or_typed_error(payload: bytes):
    """decode_frame, with every failure required to be typed."""
    try:
        return decode_frame(payload)
    except NetProtocolError as exc:  # FrameCorruptionError included
        return exc


class TestRandomBytes:
    @_SETTINGS
    @given(st.binary(max_size=256))
    def test_decode_frame_is_total(self, data):
        decode_or_typed_error(data)

    @_SETTINGS
    @given(st.binary(max_size=512), st.integers(1, 64))
    def test_frame_reader_is_total_and_bounded(self, data, chunk):
        reader = FrameReader()
        try:
            for i in range(0, len(data), chunk):
                for payload in reader.feed(data[i : i + chunk]):
                    decode_or_typed_error(payload)
                assert reader.buffered <= 4 + DEFAULT_MAX_FRAME_BYTES
            reader.feed_eof()
        except NetProtocolError:
            pass

    @_SETTINGS
    @given(st.binary(max_size=512))
    def test_ended_stream_never_stalls(self, data):
        async def drain():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            try:
                while await read_frame(reader) is not None:
                    pass
            except NetProtocolError:
                pass

        async def bounded():
            await asyncio.wait_for(drain(), 5.0)

        asyncio.run(bounded())


class TestChunking:
    @_SETTINGS
    @given(st.lists(valid_frames, min_size=1, max_size=4), st.data())
    def test_any_chunking_reassembles_identically(self, frames, data):
        stream = b"".join(frames)
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(stream)), max_size=8
        )))
        reader = FrameReader()
        out = []
        for start, end in zip([0] + cuts, cuts + [len(stream)]):
            out.extend(reader.feed(stream[start:end]))
        reader.feed_eof()  # every frame completed: a clean boundary
        assert out == [payload_of(f) for f in frames]
        for payload in out:
            assert isinstance(
                decode_frame(payload), (Request, Result, ErrorFrame, Hello)
            )


class TestMutations:
    @_SETTINGS
    @given(valid_frames, st.data())
    def test_single_bit_flip_is_corruption(self, wire, data):
        payload = bytearray(payload_of(wire))
        pos = data.draw(st.integers(0, len(payload) - 1))
        payload[pos] ^= 1 << data.draw(st.integers(0, 7))
        with pytest.raises(FrameCorruptionError):
            decode_frame(bytes(payload))

    @_SETTINGS
    @given(valid_frames, st.data())
    def test_single_byte_change_is_corruption(self, wire, data):
        # a CRC-32 catches every burst of 32 bits or fewer
        payload = bytearray(payload_of(wire))
        pos = data.draw(st.integers(0, len(payload) - 1))
        payload[pos] ^= data.draw(st.integers(1, 255))
        with pytest.raises(FrameCorruptionError):
            decode_frame(bytes(payload))

    @_SETTINGS
    @given(valid_frames, st.data())
    def test_multi_byte_mutation_is_typed_and_bounded(self, wire, data):
        payload = bytearray(payload_of(wire))
        edits = data.draw(st.lists(
            st.tuples(st.integers(0, len(payload) - 1), st.integers(0, 255)),
            min_size=2, max_size=8,
        ))
        for pos, value in edits:
            payload[pos] = value
        tracemalloc.start()
        try:
            decode_or_typed_error(bytes(payload))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < DEFAULT_MAX_FRAME_BYTES

    @_SETTINGS
    @given(valid_frames, st.integers(0, 0xFFFFFFFF))
    def test_lying_length_prefix_is_typed_and_bounded(self, wire, length):
        # a mangled prefix either fails fast (over the cap) or leaves
        # the reader waiting within the cap for bytes, until EOF
        reader = FrameReader()
        try:
            for payload in reader.feed(struct.pack(">I", length) + wire[4:]):
                decode_or_typed_error(payload)
            assert reader.buffered <= 4 + DEFAULT_MAX_FRAME_BYTES
            reader.feed_eof()
        except NetProtocolError:
            pass
