"""Framed wire protocol of the decode gateway.

One frame = a 4-byte big-endian length prefix, then a payload of a
fixed 12-byte header (magic ``RN``, version, message type, job id), a
type-specific body, and a 4-byte CRC-32 trailer:

========  ====  =======================================================
type      id    body
========  ====  =======================================================
REQUEST   1     u64 trace id | u64 parent span id | u8 priority |
                u16-len tenant | u16-len code id |
                u16-len idempotency key | f32 scale | u32 count |
                ``count`` int8 LLR samples
RESULT    2     u64 trace id | u64 parent span id | u8 converged |
                u16 iterations | u32 bit count |
                packed bits (``numpy.packbits``, big-endian within byte)
ERROR     3     u64 trace id | u64 parent span id |
                u16-len error kind | u32-len message
PING      4     (empty)
PONG      5     (empty)
HELLO     6     (empty)
========  ====  =======================================================

Strings are UTF-8.  LLRs travel as **packed int8**: the sender computes
``scale = max(|llr|) / 127`` and quantizes ``round(llr / scale)``; the
receiver reconstructs ``i8 * scale``.  The dequantized vector is the
*canonical* frame both sides agree on — the soak harness feeds exactly
it to :func:`repro.decoder.decode_many` when checking the gateway path
for payload mismatches, so quantization can never masquerade as a
transport bug.

**Frame integrity.**  The trailer is the IEEE CRC-32 (``zlib.crc32``)
of header plus body, big-endian.  :func:`decode_frame` verifies it
before trusting a single header or body byte and raises
:class:`~repro.errors.FrameCorruptionError` (a ``NetProtocolError``) on
mismatch: truncation and bit corruption are *detected*, never decoded.
A CRC-32 catches every burst of 32 bits or fewer.

**Always-present fields.**  There is one format, so nothing is
negotiated.  The 16-byte trace context
(:class:`~repro.obs.trace.TraceContext`: u64 trace id, u64 parent span
id) opens every REQUEST/RESULT/ERROR body; ``(0, 0)`` means "this hop
carries no context" and decodes as ``None``.  The REQUEST idempotency
key marks retries of one logical job so the gateway can deduplicate
them; the empty key means "none".

**HELLO** is a version check: a client opens every connection with a
HELLO and the gateway answers with one.  Both travel at
:data:`VERSION`; a frame of any other version is refused with a typed
:class:`~repro.errors.NetProtocolError`, never downgraded.

Malformed input raises :class:`~repro.errors.NetProtocolError` (a
member of the typed ``ServeError`` family); error frames round-trip the
server-side exception *class name* so the client re-raises the same
typed error (:data:`ERROR_TYPES`), falling back to
:class:`~repro.errors.RemoteDecodeError` for unknown kinds.
"""

from __future__ import annotations

import asyncio
import math
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple, Type, Union

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    FrameCorruptionError,
    GatewayClosedError,
    NetProtocolError,
    QueueFullError,
    QuotaExceededError,
    RemoteDecodeError,
    ServeError,
    ServeTimeoutError,
    ServiceClosedError,
    ShardDeadError,
    UnknownCodeError,
)
from repro.obs.trace import NULL_TRACE, TraceContext

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "ERROR_TYPES",
    "MAGIC",
    "NULL_TRACE",
    "MSG_ERROR",
    "MSG_HELLO",
    "MSG_PING",
    "MSG_PONG",
    "MSG_REQUEST",
    "MSG_RESULT",
    "VERSION",
    "ErrorFrame",
    "FrameReader",
    "Hello",
    "Ping",
    "Pong",
    "Request",
    "Result",
    "TraceContext",
    "decode_frame",
    "encode_error",
    "encode_hello",
    "encode_ping",
    "encode_pong",
    "encode_request",
    "encode_result",
    "error_to_exception",
    "pack_llrs",
    "read_frame",
    "read_raw",
    "unpack_llrs",
    "write_frame",
]

MAGIC = b"RN"

#: The one wire version.  3 because the trailer changed from CRC32C to
#: CRC-32; frames of any other version are refused.
VERSION = 3

MSG_REQUEST = 1
MSG_RESULT = 2
MSG_ERROR = 3
MSG_PING = 4
MSG_PONG = 5
MSG_HELLO = 6

#: Frames larger than this are refused outright (a 1 MiB frame holds a
#: ~1M-sample LLR vector — far beyond any supported code length).
DEFAULT_MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">2sBBQ")  # magic, version, msg type, job id
_CRC = struct.Struct(">I")
_TRACE = struct.Struct(">QQ")  # trace id, parent span id
_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_F32_U32 = struct.Struct(">fI")
_RES_HEAD = struct.Struct(">BHI")

#: Error kinds a gateway may ship that re-raise as their local type.
ERROR_TYPES: "dict[str, Type[ServeError]]" = {
    cls.__name__: cls
    for cls in (
        DeadlineExceededError,
        FrameCorruptionError,
        GatewayClosedError,
        NetProtocolError,
        QueueFullError,
        QuotaExceededError,
        ServeError,
        ServeTimeoutError,
        ServiceClosedError,
        ShardDeadError,
        UnknownCodeError,
    )
}


# ----------------------------------------------------------------------
# frame dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request(object):
    """One decode request: who is asking, for which code, with what."""

    job_id: int
    tenant: str
    code_id: str
    priority: int
    llrs_i8: np.ndarray
    scale: float
    idempotency_key: str = ""
    trace: Optional[TraceContext] = None

    def llrs(self) -> np.ndarray:
        """The canonical dequantized LLR vector both sides agree on."""
        return unpack_llrs(self.llrs_i8, self.scale)


@dataclass(frozen=True)
class Result(object):
    """One decoded frame streaming back to the client."""

    job_id: int
    converged: bool
    iterations: int
    bits: np.ndarray
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class ErrorFrame(object):
    """A typed failure for one job (``job_id == 0``: the connection)."""

    job_id: int
    kind: str
    message: str
    trace: Optional[TraceContext] = None

    def to_exception(self) -> ServeError:
        """The local typed exception this frame re-raises as."""
        return error_to_exception(self.kind, self.message)


@dataclass(frozen=True)
class Ping(object):
    """Liveness probe."""

    job_id: int


@dataclass(frozen=True)
class Pong(object):
    """Liveness probe response (echoes the ping's job id)."""

    job_id: int


@dataclass(frozen=True)
class Hello(object):
    """Version check (sent by clients, echoed by gateways)."""

    job_id: int = 0


Frame = Union[Request, Result, ErrorFrame, Ping, Pong, Hello]


def error_to_exception(kind: str, message: str) -> ServeError:
    """Map a wire error kind back onto the typed ``ServeError`` family."""
    cls = ERROR_TYPES.get(kind)
    if cls is RemoteDecodeError or cls is None:
        return RemoteDecodeError(kind, message)
    return cls(message)


# ----------------------------------------------------------------------
# LLR packing
# ----------------------------------------------------------------------
def pack_llrs(llrs: np.ndarray) -> Tuple[np.ndarray, float]:
    """Quantize a float LLR vector to wire int8 + scale.

    ``scale`` is chosen so the largest magnitude maps to ±127; a vector
    without a normal-magnitude value (all zeros, say) uses scale 1.0.
    Returns ``(int8 array, scale)``.  A non-finite value is a typed
    error: it has no int8 image.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 1:
        raise NetProtocolError(f"LLR vector must be 1-D, got shape {llrs.shape}")
    peak = float(np.abs(llrs).max()) if llrs.size else 0.0
    if not math.isfinite(peak):
        raise NetProtocolError("LLR vector holds a non-finite value")
    # with a normal peak, |llrs / scale| rounds to at most 127: no clip
    scale = peak / 127.0 if peak >= _FLOAT_TINY else 1.0
    quantized = llrs / scale
    np.rint(quantized, out=quantized)
    return quantized.astype(np.int8), scale


_FLOAT_TINY = float(np.finfo(np.float64).tiny)


def unpack_llrs(i8: np.ndarray, scale: float) -> np.ndarray:
    """Reconstruct the canonical float LLR vector from wire form."""
    return np.asarray(i8, dtype=np.float64) * float(scale)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _frame(msg_type: int, job_id: int, *body: bytes) -> bytes:
    """Length prefix, header, body parts and the CRC-32 trailer."""
    payload = b"".join(
        (_HEADER.pack(MAGIC, VERSION, msg_type, job_id), *body)
    )
    return b"".join((
        _U32.pack(len(payload) + _CRC.size), payload,
        _CRC.pack(zlib.crc32(payload)),
    ))


def _trace_field(trace: Optional[TraceContext]) -> bytes:
    """The 16-byte trace context opening a body (zeros when None)."""
    if trace is None:
        trace = NULL_TRACE
    return _TRACE.pack(trace.trace_id, trace.span_id)


def encode_request(
    job_id: int,
    tenant: str,
    code_id: str,
    priority: int,
    llrs: Optional[np.ndarray] = None,
    llrs_i8: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
    idempotency_key: str = "",
    trace: Optional[TraceContext] = None,
) -> bytes:
    """Encode a REQUEST frame.

    Pass either float ``llrs`` (packed here) or a pre-packed
    ``(llrs_i8, scale)`` pair — callers that need the exact wire payload
    for a later reference decode pack once and pass the pair.  An
    ``idempotency_key`` marks retries of one logical job so the
    gateway's dedup window can replay instead of re-decoding.
    ``trace`` fills the trace context field (zeros when None).
    """
    if llrs_i8 is None:
        if llrs is None:
            raise NetProtocolError("encode_request needs llrs or llrs_i8")
        llrs_i8, scale = pack_llrs(llrs)
    if scale is None:
        raise NetProtocolError("llrs_i8 requires an explicit scale")
    if not 0 <= priority <= 255:
        raise NetProtocolError(f"priority must fit a u8, got {priority}")
    tenant_b = tenant.encode("utf-8")
    code_b = code_id.encode("utf-8")
    idem_b = idempotency_key.encode("utf-8")
    if len(tenant_b) > 0xFFFF or len(code_b) > 0xFFFF or len(idem_b) > 0xFFFF:
        raise NetProtocolError(
            "tenant/code id/idempotency key too long for a u16 length"
        )
    i8 = np.ascontiguousarray(llrs_i8, dtype=np.int8)
    return _frame(
        MSG_REQUEST, job_id, _trace_field(trace),
        _U8.pack(priority), _U16.pack(len(tenant_b)), tenant_b,
        _U16.pack(len(code_b)), code_b,
        _U16.pack(len(idem_b)), idem_b,
        _F32_U32.pack(float(scale), i8.size), i8.data,
    )


def encode_result(
    job_id: int, converged: bool, iterations: int, bits: np.ndarray,
    trace: Optional[TraceContext] = None,
) -> bytes:
    """Encode a RESULT frame (bits are packed 8-per-byte)."""
    bits = np.asarray(bits).astype(np.uint8).ravel()
    return _frame(
        MSG_RESULT, job_id, _trace_field(trace),
        _RES_HEAD.pack(1 if converged else 0, iterations, bits.size),
        np.packbits(bits).data,
    )


def encode_error(
    job_id: int, exc: BaseException, trace: Optional[TraceContext] = None,
) -> bytes:
    """Encode an ERROR frame from an exception (kind = class name)."""
    kind_b = type(exc).__name__.encode("utf-8")[:0xFFFF]
    msg_b = str(exc).encode("utf-8")[: 1 << 16]
    return _frame(
        MSG_ERROR, job_id, _trace_field(trace),
        _U16.pack(len(kind_b)), kind_b, _U32.pack(len(msg_b)), msg_b,
    )


def encode_ping(job_id: int = 0) -> bytes:
    """Encode a PING frame."""
    return _frame(MSG_PING, job_id)


def encode_pong(job_id: int = 0) -> bytes:
    """Encode a PONG frame."""
    return _frame(MSG_PONG, job_id)


def encode_hello(job_id: int = 0) -> bytes:
    """Encode a HELLO frame (the version check opening a connection)."""
    return _frame(MSG_HELLO, job_id)


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
class _Cursor(object):
    """Bounds-checked reader over ``data[pos:end]`` (no copies)."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, pos: int, end: int) -> None:
        self.data = data
        self.pos = pos
        self.end = end

    @property
    def remaining(self) -> int:
        return self.end - self.pos

    def _advance(self, count: int) -> int:
        start = self.pos
        if start + count > self.end:
            raise NetProtocolError(
                f"truncated frame body: wanted {count} bytes at offset "
                f"{start}, have {self.end - start}"
            )
        self.pos = start + count
        return start

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack_from(self.data, self._advance(fmt.size))

    def text(self, length_fmt: struct.Struct) -> str:
        """A length-prefixed UTF-8 string."""
        (count,) = self.unpack(length_fmt)
        start = self._advance(count)
        return self.data[start : start + count].decode("utf-8", "replace")

    def array(self, count: int, dtype: type) -> np.ndarray:
        """The next ``count`` bytes as a read-only array view."""
        return np.frombuffer(
            self.data, dtype=dtype, count=count, offset=self._advance(count)
        )


_EMPTY_BODY = {MSG_PING: Ping, MSG_PONG: Pong, MSG_HELLO: Hello}


def _header_fault(magic: bytes, version: int, msg_type: int) -> str:
    """Why a header is invalid, or "" when it is fine."""
    if magic != MAGIC:
        return f"bad magic {magic!r} (want {MAGIC!r})"
    if version != VERSION:
        return f"unsupported protocol version {version} (speak {VERSION})"
    if not MSG_REQUEST <= msg_type <= MSG_HELLO:
        return f"unknown message type {msg_type}"
    return ""


def decode_frame(payload: bytes) -> Frame:
    """Parse one frame payload (header + body + trailer, length prefix
    stripped).

    The CRC-32 trailer is verified before any header or body byte is
    trusted, so every corruption the checksum catches — a flipped
    magic, version or type bit included — raises
    :class:`~repro.errors.FrameCorruptionError`; its message also names
    the header fault when there is one.  A frame that checks out but
    has a foreign magic, version or type raises
    :class:`~repro.errors.NetProtocolError`.  REQUEST/RESULT declared
    element counts must agree exactly with the payload length —
    disagreement is a typed protocol error, not a struct-unpack
    accident.  A ``(0, 0)`` trace context decodes as ``None``.
    """
    if len(payload) < _HEADER.size:
        raise NetProtocolError(
            f"frame shorter than the {_HEADER.size}-byte header: "
            f"{len(payload)} bytes"
        )
    if len(payload) < _HEADER.size + _CRC.size:
        raise FrameCorruptionError(
            f"frame too short to carry its CRC-32 trailer: "
            f"{len(payload)} bytes"
        )
    magic, version, msg_type, job_id = _HEADER.unpack_from(payload)
    fault = _header_fault(magic, version, msg_type)
    body_end = len(payload) - _CRC.size
    (stated,) = _CRC.unpack_from(payload, body_end)
    actual = zlib.crc32(memoryview(payload)[:body_end])
    if stated != actual:
        raise FrameCorruptionError(
            f"CRC-32 mismatch on {len(payload)}-byte frame: trailer says "
            f"0x{stated:08x}, payload hashes to 0x{actual:08x}"
            + (f" ({fault})" if fault else "")
        )
    if fault:
        raise NetProtocolError(fault)
    empty = _EMPTY_BODY.get(msg_type)
    if empty is not None:
        return empty(job_id=job_id)
    cur = _Cursor(payload, _HEADER.size, body_end)
    trace_id, parent_span = cur.unpack(_TRACE)
    trace_ctx = (
        TraceContext(trace_id, parent_span)
        if trace_id or parent_span else None
    )
    if msg_type == MSG_REQUEST:
        (priority,) = cur.unpack(_U8)
        tenant = cur.text(_U16)
        code_id = cur.text(_U16)
        idem = cur.text(_U16)
        scale, count = cur.unpack(_F32_U32)
        if count != cur.remaining:
            raise NetProtocolError(
                f"REQUEST declares {count} LLR samples but the payload "
                f"carries {cur.remaining} bytes"
            )
        return Request(
            job_id=job_id, tenant=tenant, code_id=code_id,
            priority=priority, llrs_i8=cur.array(count, np.int8),
            scale=scale,
            idempotency_key=idem, trace=trace_ctx,
        )
    if msg_type == MSG_RESULT:
        converged, iterations, bit_count = cur.unpack(_RES_HEAD)
        expected = (bit_count + 7) // 8
        if expected != cur.remaining:
            raise NetProtocolError(
                f"RESULT declares {bit_count} bits ({expected} packed "
                f"bytes) but the payload carries {cur.remaining} bytes"
            )
        bits = np.unpackbits(cur.array(expected, np.uint8))[:bit_count]
        return Result(
            job_id=job_id, converged=bool(converged),
            iterations=iterations, bits=bits, trace=trace_ctx,
        )
    # MSG_ERROR: the header check admitted no other type
    kind = cur.text(_U16)
    return ErrorFrame(
        job_id=job_id, kind=kind, message=cur.text(_U32), trace=trace_ctx,
    )


# ----------------------------------------------------------------------
# incremental frame assembly (sans-io)
# ----------------------------------------------------------------------
class FrameReader(object):
    """Incremental frame assembler over an arbitrary byte stream.

    Push bytes in with :meth:`feed` as they arrive — in any chunking,
    down to one byte at a time — and get back complete frame payloads
    (length prefix stripped, ready for :func:`decode_frame`).  The
    reader enforces the frame-size cap and checks the magic as soon as
    the first header bytes of each frame are buffered, so a stream that
    has lost sync (garbage where a header should be) fails immediately
    instead of waiting for a bogus length count to fill.

    This is the sans-io core shared by byte-level tests and the chaos
    proxy's frame-aware fault injection; the asyncio paths
    (:func:`read_raw`) keep their ``readexactly`` implementation.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self.max_bytes = max_bytes
        self._buf = bytearray()
        self._eof = False

    @property
    def buffered(self) -> int:
        """Bytes fed but not yet returned as part of a complete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[bytes]:
        """Buffer ``data``; return every frame payload it completes."""
        if self._eof:
            raise NetProtocolError("feed() after feed_eof()")
        self._buf.extend(data)
        frames: List[bytes] = []
        while True:
            if len(self._buf) < 4:
                break
            (length,) = struct.unpack_from(">I", self._buf)
            if length > self.max_bytes:
                raise NetProtocolError(
                    f"frame of {length} bytes exceeds the "
                    f"{self.max_bytes}-byte limit"
                )
            if length >= 2 and len(self._buf) >= 6:
                magic = bytes(self._buf[4:6])
                if magic != MAGIC:
                    raise NetProtocolError(
                        f"bad magic {magic!r} mid-stream (want {MAGIC!r}); "
                        f"the stream has lost frame sync"
                    )
            if len(self._buf) < 4 + length:
                break
            frames.append(bytes(self._buf[4 : 4 + length]))
            del self._buf[: 4 + length]
        return frames

    def feed_eof(self) -> None:
        """Signal end of stream; raises if it lands inside a frame."""
        self._eof = True
        if self._buf:
            where = (
                "inside a length prefix" if len(self._buf) < 4
                else "inside a frame"
            )
            raise NetProtocolError(
                f"connection closed {where} with {len(self._buf)} "
                f"buffered bytes"
            )


# ----------------------------------------------------------------------
# stream I/O
# ----------------------------------------------------------------------
async def read_raw(
    reader: "asyncio.StreamReader",
    max_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Optional[bytes]:
    """Read one frame payload off a stream; None on clean EOF.

    EOF in the middle of a frame and an oversized length prefix raise
    :class:`NetProtocolError`.  The returned payload excludes the
    4-byte length prefix and is ready for :func:`decode_frame` (which
    verifies the CRC-32 trailer).
    """
    try:
        prefix = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF on a frame boundary
        raise NetProtocolError(
            f"connection closed mid-prefix ({len(exc.partial)}/4 bytes)"
        ) from None
    (length,) = struct.unpack(">I", prefix)
    if length > max_bytes:
        raise NetProtocolError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise NetProtocolError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from None


async def read_frame(
    reader: "asyncio.StreamReader",
    max_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Optional[Frame]:
    """Read and parse one frame; None on clean EOF between frames."""
    payload = await read_raw(reader, max_bytes)
    if payload is None:
        return None
    return decode_frame(payload)


def write_frame(writer: "asyncio.StreamWriter", frame_bytes: bytes) -> None:
    """Queue one already-encoded frame on a stream writer."""
    writer.write(frame_bytes)
