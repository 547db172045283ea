"""Gateway wire resilience over real TCP sockets.

HELLO as a version check (a foreign version is a typed refusal, never
a downgrade), the idempotency dedup window (a retried job never decodes
twice), connection-scoped errors for malformed or corrupt frames, and
heartbeat dead-peer detection.
"""

import asyncio
import struct
import time
import zlib

import numpy as np
import pytest

from repro.accel.bench import generate_traffic
from repro.codes import wimax_code
from repro.decoder import decode_many
from repro.net import (
    AdmissionController,
    AsyncDecodeClient,
    DecodeGateway,
    TenantPolicy,
    pack_llrs,
    unpack_llrs,
)
from repro.net.dedup import DedupWindow
from repro.errors import NetProtocolError, ServeTimeoutError
from repro.net.protocol import (
    MSG_HELLO,
    ErrorFrame,
    encode_hello,
    encode_request,
    read_frame,
)
from repro.serve.pool import DecodeService

pytestmark = [pytest.mark.net, pytest.mark.timeout(120)]

MAX_ITER = 10


@pytest.fixture(scope="module")
def code():
    return wimax_code("1/2", 576)


@pytest.fixture(scope="module")
def traffic(code):
    frames = generate_traffic(code, 6, 4.0, seed=5)
    return [unpack_llrs(*pack_llrs(f)) for f in frames]


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


def counter_total(gateway, name):
    return int(gateway.metrics.registry.get(name).total())


def sealed(payload: bytes) -> bytes:
    """Length prefix + payload + a valid CRC-32 trailer."""
    payload += struct.pack(">I", zlib.crc32(payload))
    return struct.pack(">I", len(payload)) + payload


async def exchange(gateway, wire: bytes):
    """Send raw bytes; return the first reply frame and what follows."""
    host, port = gateway.address
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(wire)
        await writer.drain()
        reply = await asyncio.wait_for(read_frame(reader, 1 << 20), 10)
        eof = await asyncio.wait_for(reader.read(), 10)
        return reply, eof
    finally:
        writer.close()


async def connect_to_fake(answer: bytes, hello_timeout: float):
    """Connect a client to a fake gateway that answers HELLO with
    ``answer`` (nothing at all when empty); return the error raised
    and how long connecting took."""
    writers = []

    async def handle(reader, writer):
        writers.append(writer)
        await reader.read(1 << 16)
        writer.write(answer)
        await writer.drain()
        await asyncio.sleep(2 * hello_timeout)

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    try:
        t0 = time.monotonic()
        try:
            await AsyncDecodeClient.connect(
                host, port, hello_timeout=hello_timeout
            )
        except Exception as exc:
            return exc, time.monotonic() - t0
        raise AssertionError("connect succeeded against a fake gateway")
    finally:
        server.close()
        for writer in writers:   # the fake's side of each connection
            writer.close()
            await writer.wait_closed()
        await server.wait_closed()


class TestNegotiation:
    def test_client_passes_version_check(self, service, traffic, code):
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                host, port = gw.address
                async with await AsyncDecodeClient.connect(host, port) as c:
                    result = await c.decode(traffic[0], timeout=60)
                return result, counter_total(gw, "net_hello_total")

        result, hellos = asyncio.run(run())
        reference = decode_many(
            code, traffic[0][None, :], max_iterations=MAX_ITER
        )
        np.testing.assert_array_equal(result.bits, reference.bits[0])
        assert hellos == 1

    def test_foreign_version_hello_gets_error_and_close(self, service):
        # a well-formed HELLO of another version is refused with a
        # typed connection-scoped ERROR and a close, never a downgrade
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                outcomes = []
                for version in (2, 4):
                    hello = struct.pack(">2sBBQ", b"RN", version, MSG_HELLO, 0)
                    outcomes.append(await exchange(gw, sealed(hello)))
                return outcomes

        for reply, eof in asyncio.run(run()):
            assert isinstance(reply, ErrorFrame)
            assert reply.job_id == 0
            assert reply.kind == "NetProtocolError"
            assert "unsupported protocol version" in reply.message
            assert eof == b""

    def test_wrong_hello_answer_fails_connect(self):
        # a peer answering HELLO with another version is a typed error
        hello = struct.pack(">2sBBQ", b"RN", 2, MSG_HELLO, 0)
        exc, _ = asyncio.run(connect_to_fake(sealed(hello), 5.0))
        assert isinstance(exc, NetProtocolError)
        assert "unsupported protocol version 2" in str(exc)

    def test_silent_peer_times_out_connect(self):
        exc, elapsed = asyncio.run(connect_to_fake(b"", 0.2))
        assert isinstance(exc, ServeTimeoutError)
        assert elapsed < 2.0


class TestDedup:
    def test_retried_key_replays_without_redecoding(self, service, traffic):
        async def run():
            dedup = DedupWindow(ttl_s=30.0)
            async with DecodeGateway(
                service, open_admission(), dedup=dedup
            ) as gw:
                host, port = gw.address
                async with await AsyncDecodeClient.connect(host, port) as c:
                    first = await c.decode(
                        traffic[0], timeout=60, idempotency_key="job-A"
                    )
                    again = await c.decode(
                        traffic[0], timeout=60, idempotency_key="job-A"
                    )
                hits = counter_total(gw, "net_dedup_hits_total")
                return first, again, hits, dedup.to_dict()

        first, again, hits, window = asyncio.run(run())
        np.testing.assert_array_equal(first.bits, again.bits)
        assert first.iterations == again.iterations
        assert first.converged == again.converged
        # the replay answered under the retry's own (fresh) job id
        assert again.job_id != first.job_id
        assert hits == 1
        assert window["hits"] >= 1

    def test_concurrent_same_key_decodes_once(self, service, traffic):
        # both requests in flight before either result: the second
        # joins the first's future (or replays its cached result)
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                host, port = gw.address
                async with await AsyncDecodeClient.connect(host, port) as c:
                    pair = await asyncio.gather(
                        c.decode(traffic[1], timeout=60, idempotency_key="k"),
                        c.decode(traffic[1], timeout=60, idempotency_key="k"),
                    )
                return pair, counter_total(gw, "net_dedup_hits_total")

        (a, b), hits = asyncio.run(run())
        np.testing.assert_array_equal(a.bits, b.bits)
        assert a.iterations == b.iterations
        assert hits == 1

    def test_distinct_keys_are_distinct_jobs(self, service, traffic):
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                host, port = gw.address
                async with await AsyncDecodeClient.connect(host, port) as c:
                    await c.decode(traffic[0], timeout=60, idempotency_key="x")
                    await c.decode(traffic[0], timeout=60, idempotency_key="y")
                return counter_total(gw, "net_dedup_hits_total")

        assert asyncio.run(run()) == 0

class TestMalformedFrames:
    def test_count_mismatch_gets_connection_error(self, service):
        # REQUEST declaring 64 LLR samples but carrying 32 bytes: the
        # gateway answers a job-0 (connection-scoped) ERROR and closes
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                body = bytearray(encode_request(
                    1, "t", "c", 0,
                    llrs_i8=np.zeros(32, np.int8), scale=1.0,
                )[4:-4])
                count_off = len(body) - 32 - 4
                body[count_off : count_off + 4] = struct.pack(">I", 64)
                # re-sealed: the count guard, not the CRC, must catch it
                return await exchange(gw, sealed(bytes(body)))

        reply, eof = asyncio.run(run())
        assert isinstance(reply, ErrorFrame)
        assert reply.job_id == 0
        assert reply.kind == "NetProtocolError"
        assert "declares 64 LLR samples" in reply.message
        assert eof == b""

    def test_crc_corrupt_frame_gets_connection_error(self, service):
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                host, port = gw.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    wire = bytearray(encode_request(
                        1, "t", "c", 0, llrs=np.ones(32),
                    ))
                    wire[-10] ^= 0x20  # flip one LLR byte; CRC now lies
                    writer.write(bytes(wire))
                    await writer.drain()
                    reply = await read_frame(reader, 1 << 20)
                    eof = await reader.read()
                    return (
                        reply, eof,
                        counter_total(gw, "net_crc_corrupt_total"),
                    )
                finally:
                    writer.close()

        reply, eof, corrupt = asyncio.run(run())
        assert isinstance(reply, ErrorFrame)
        assert reply.job_id == 0
        assert reply.kind == "FrameCorruptionError"
        assert eof == b""
        assert corrupt == 1


class TestHeartbeat:
    def test_unresponsive_peer_is_closed(self, service):
        # pass the version check, then never answer a single ping: the
        # gateway must hang up within interval * (misses + 1)
        async def run():
            async with DecodeGateway(
                service, open_admission(),
                heartbeat_interval_s=0.05, heartbeat_misses=2,
            ) as gw:
                host, port = gw.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(encode_hello())
                    await writer.drain()
                    await read_frame(reader, 1 << 20)  # HELLO reply
                    # swallow pings without answering until EOF
                    await asyncio.wait_for(
                        _read_to_eof(reader), timeout=5.0
                    )
                    return counter_total(gw, "net_dead_peer_total")
                finally:
                    writer.close()

        assert asyncio.run(run()) == 1

    def test_negotiated_client_answers_pings(self, service):
        # the stock async client answers PING with PONG from its read
        # loop, so it survives many heartbeat intervals untouched
        async def run():
            async with DecodeGateway(
                service, open_admission(),
                heartbeat_interval_s=0.05, heartbeat_misses=2,
            ) as gw:
                host, port = gw.address
                async with await AsyncDecodeClient.connect(host, port) as c:
                    await asyncio.sleep(0.6)
                    answered = c.pings_answered
                    alive = not c.closed
                return (
                    answered, alive,
                    counter_total(gw, "net_dead_peer_total"),
                )

        answered, alive, dead = asyncio.run(run())
        assert answered >= 3
        assert alive
        assert dead == 0


async def _read_to_eof(reader):
    while await reader.read(4096):
        pass
