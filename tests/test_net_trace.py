"""End-to-end distributed request tracing over the wire.

Protocol level: the 16-byte trace context must round-trip on
REQUEST/RESULT/ERROR frames, be all zeros when there is nothing to
propagate, and corrupt under CRC — a flipped trace byte is a
:class:`~repro.errors.FrameCorruptionError`, never a mis-parse.

System level: one decode through a real gateway must produce a single
distributed trace — ``client.request`` → ``gateway.request`` (parented
on the client's wire span) → pool/worker spans — all sharing one trace
id, with the latency waterfall stamped on the gateway root span.
"""

import asyncio
import struct

import numpy as np
import pytest

from repro.accel.bench import generate_traffic
from repro.errors import FrameCorruptionError
from repro.net import (
    AdmissionController,
    AsyncDecodeClient,
    DecodeGateway,
    ResilientDecodeClient,
    TenantPolicy,
)
from repro.net.protocol import (
    ErrorFrame,
    Hello,
    Request,
    Result,
    decode_frame,
    encode_error,
    encode_hello,
    encode_request,
    encode_result,
    pack_llrs,
    read_frame,
)
from repro.obs.trace import NULL_TRACE, TraceContext, TraceRecorder
from repro.serve.pool import DecodeService

pytestmark = [pytest.mark.net, pytest.mark.obs, pytest.mark.timeout(120)]

MAX_ITER = 10

CTX = TraceContext(trace_id=0xDEADBEEF01234567, span_id=0x42)


def payload_of(wire: bytes) -> bytes:
    (length,) = struct.unpack(">I", wire[:4])
    assert len(wire) == 4 + length
    return wire[4:]


@pytest.fixture(scope="module")
def code():
    from repro.codes import wimax_code

    return wimax_code("1/2", 576)


@pytest.fixture(scope="module")
def traffic(code):
    return list(generate_traffic(code, 4, 4.0, seed=7))


@pytest.fixture()
def service(code):
    svc = DecodeService(
        code, batch_size=4, max_iterations=MAX_ITER,
        queue_capacity=64,
    )
    yield svc
    svc.close()


def open_admission():
    return AdmissionController(
        {}, max_iterations=MAX_ITER,
        default_policy=TenantPolicy(rate=1e9, burst=1e9),
    )


class TestTraceField:
    def test_request_roundtrip(self):
        rng = np.random.default_rng(3)
        llrs = rng.normal(size=64).astype(np.float64)
        wire = encode_request(9, "gold", "c1", 0, llrs=llrs, trace=CTX)
        req = decode_frame(payload_of(wire))
        assert isinstance(req, Request)
        assert req.trace == CTX
        assert req.tenant == "gold" and req.code_id == "c1"

    def test_result_and_error_roundtrip(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
        res = decode_frame(payload_of(encode_result(4, True, 5, bits,
                                                    trace=CTX)))
        assert isinstance(res, Result) and res.trace == CTX
        np.testing.assert_array_equal(res.bits, bits)
        err = decode_frame(
            payload_of(encode_error(4, ValueError("boom"), trace=CTX))
        )
        assert isinstance(err, ErrorFrame) and err.trace == CTX

    def test_null_trace_decodes_as_none(self):
        bits = np.ones(8, dtype=np.uint8)
        res = decode_frame(
            payload_of(encode_result(1, True, 2, bits, trace=NULL_TRACE))
        )
        assert res.trace is None

    def test_untraced_connection_is_byte_stable(self):
        # no context -> the field is there, all zeros: byte-identical
        # to an explicit NULL_TRACE, and decodes as None
        llrs = np.linspace(-4, 4, 48)
        plain = encode_request(2, "t", "c", 0, llrs=llrs)
        nulled = encode_request(2, "t", "c", 0, llrs=llrs, trace=NULL_TRACE)
        assert plain == nulled
        assert plain[4 + 12 : 4 + 12 + 16] == bytes(16)
        req = decode_frame(payload_of(plain))
        assert isinstance(req, Request) and req.trace is None

    def test_corrupted_trace_byte_fails_crc_not_misparse(self):
        llrs = np.linspace(-3, 3, 32)
        wire = bytearray(
            encode_request(7, "t", "c", 0, llrs=llrs, trace=CTX)
        )
        # the trace field sits right after the 4B length + 12B header
        for offset in range(16):
            flipped = bytearray(wire)
            flipped[4 + 12 + offset] ^= 0x40
            with pytest.raises(FrameCorruptionError):
                decode_frame(bytes(flipped[4:]))


class TestNegotiationFallbacks:
    def test_untraced_client_stays_untraced(self, service, traffic):
        async def run():
            rec = TraceRecorder()
            async with DecodeGateway(
                service, open_admission(), recorder=rec
            ) as gw:
                host, port = gw.address
                async with await AsyncDecodeClient.connect(host, port) as c:
                    result = await c.decode(traffic[0], timeout=60)
            return result, rec

        result, rec = asyncio.run(run())
        assert result.converged
        assert result.trace_id == 0
        # the gateway still records its own spans, but none carries a
        # remote trace id — nothing was propagated
        for span in rec.by_name("gateway.request"):
            assert not span.label_dict.get("trace")

    def test_raw_untraced_request_gets_null_trace_reply(self, service,
                                                        traffic, code):
        from repro.decoder import decode_many

        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                host, port = gw.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(encode_hello())
                    await writer.drain()
                    hello = await read_frame(reader, 1 << 22)
                    assert isinstance(hello, Hello)
                    i8, scale = pack_llrs(traffic[0])
                    writer.write(
                        encode_request(1, "t", "", 0, llrs_i8=i8, scale=scale)
                    )
                    await writer.drain()
                    return await read_frame(reader, 1 << 22), i8, scale
                finally:
                    writer.close()

        result, i8, scale = asyncio.run(run())
        assert isinstance(result, Result)
        assert result.trace is None
        from repro.net.protocol import unpack_llrs

        reference = decode_many(
            code, unpack_llrs(i8, scale)[None, :], max_iterations=MAX_ITER
        )
        np.testing.assert_array_equal(result.bits, reference.bits[0])

    def test_recorder_disabled_gateway_is_side_effect_free(self, service,
                                                           traffic):
        async def run():
            rec = TraceRecorder()
            async with DecodeGateway(service, open_admission()) as gw:
                host, port = gw.address
                client = await AsyncDecodeClient.connect(
                    host, port, recorder=rec
                )
                async with client as c:
                    result = await c.decode(traffic[0], timeout=60)
            return result, rec

        result, rec = asyncio.run(run())
        assert result.converged
        assert result.trace_id  # client still opened its own trace
        spans = rec.by_name("client.request")
        assert len(spans) == 1
        assert spans[0].label_dict["trace"] == result.trace_id


class TestDistributedChain:
    def test_single_request_yields_one_trace(self, code, traffic):
        rec = TraceRecorder()
        service = DecodeService(
            code, batch_size=4, max_iterations=MAX_ITER,
            queue_capacity=64, recorder=rec,
        )
        try:
            async def run():
                async with DecodeGateway(
                    service, open_admission(), recorder=rec
                ) as gw:
                    host, port = gw.address
                    async with await AsyncDecodeClient.connect(
                        host, port, tenant="gold", recorder=rec
                    ) as c:
                        return await c.decode(traffic[0], timeout=60)

            result = asyncio.run(run())
        finally:
            service.close()
        assert result.converged and result.trace_id

        by_trace = {}
        for span in rec.records():
            trace = span.label_dict.get("trace")
            if trace:
                by_trace.setdefault(int(trace), []).append(span)
        chain = by_trace[result.trace_id]
        names = {s.name for s in chain}
        assert {"client.request", "gateway.request", "pool.queue_wait",
                "job.decode"} <= names
        assert "gateway.submit" in names and "gateway.respond" in names

        client = next(s for s in chain if s.name == "client.request")
        gateway = next(s for s in chain if s.name == "gateway.request")
        # the gateway adopted the remote context: its root span parents
        # directly under the client's wire span
        assert gateway.parent_id == client.span_id
        # waterfall segments stamped on the gateway root
        labels = gateway.label_dict
        for key in ("admission_s", "queue_wait_s", "decode_s",
                    "respond_s", "total_s"):
            assert key in labels, f"missing {key}"
        assert labels["tenant"] == "gold"
        assert labels["outcome"] == "ok"

    def test_resilient_client_attempts_are_siblings(self, service,
                                                    traffic):
        rec = TraceRecorder()

        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                client = ResilientDecodeClient(
                    [gw.address], tenant="gold", recorder=rec,
                )
                try:
                    return await client.decode(traffic[0])
                finally:
                    await client.close()

        result = asyncio.run(run())
        assert result.converged

        jobs = rec.by_name("client.job")
        attempts = rec.by_name("client.attempt")
        requests = rec.by_name("client.request")
        assert len(jobs) == 1 and len(attempts) == 1 and len(requests) == 1
        job, attempt, request = jobs[0], attempts[0], requests[0]
        trace = job.label_dict["trace"]
        assert attempt.label_dict["trace"] == trace
        assert request.label_dict["trace"] == trace
        # hierarchy: job -> attempt -> wire request
        assert attempt.parent_id == job.span_id
        assert request.parent_id == attempt.span_id
        # the idempotency key tags the attempt for sibling correlation
        assert attempt.label_dict["key"]
        assert attempt.label_dict["ok"] is True
        assert attempt.label_dict["hedge"] is False
