"""Gateway + client integration tests over real TCP sockets.

Every test runs a real :class:`DecodeService` behind a real
:class:`DecodeGateway` on an OS-assigned port; clients speak the framed
protocol end to end.  The central claims: the network path is bit-exact
with :func:`decode_many`, failures arrive as the same typed
``ServeError`` members the gateway hit, results stream out of order,
and drain refuses new work while finishing old work.
"""

import asyncio
import gc
import socket
import sys

import numpy as np
import pytest

from repro.accel.bench import generate_traffic
from repro.codes import wimax_code
from repro.decoder import decode_many
from repro.errors import (
    GatewayClosedError,
    NetProtocolError,
    QueueFullError,
    QuotaExceededError,
    ServeTimeoutError,
)
from repro.net import (
    BRONZE,
    GOLD,
    AdmissionController,
    AsyncDecodeClient,
    DecodeClient,
    DecodeGateway,
    TenantPolicy,
    pack_llrs,
    unpack_llrs,
)
from repro.net.protocol import encode_hello, encode_request
from repro.serve.pool import DecodeService

pytestmark = [pytest.mark.net, pytest.mark.timeout(120)]

MAX_ITER = 10


@pytest.fixture(scope="module")
def code():
    return wimax_code("1/2", 576)


@pytest.fixture(scope="module")
def traffic(code):
    """Canonical (wire-quantized) LLR frames, so the reference decode
    sees exactly what the gateway decodes."""
    frames = generate_traffic(code, 12, 4.0, seed=3)
    return [unpack_llrs(*pack_llrs(f)) for f in frames]


@pytest.fixture()
def service(code):
    svc = DecodeService(
        code, batch_size=4, max_iterations=MAX_ITER,
        queue_capacity=64,
    )
    yield svc
    svc.close()


def hopeless_frame(code):
    """Random-sign tiny LLRs: never converges, runs the full budget."""
    rng = np.random.default_rng(7)
    return rng.choice([-0.01, 0.01], size=code.n)


def open_admission(**tenants):
    if not tenants:
        return AdmissionController(
            {}, max_iterations=MAX_ITER,
            default_policy=TenantPolicy(rate=1e9, burst=1e9),
        )
    return AdmissionController(tenants, max_iterations=MAX_ITER)


async def _until(predicate, timeout_s: float = 30.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def _gateway_tasks():
    """Pending tasks running a DecodeGateway coroutine."""
    return [
        task for task in asyncio.all_tasks()
        if task.get_coro().__qualname__.startswith("DecodeGateway.")
    ]


async def _send_until_stalled(sock, data: bytes, stall_s: float = 1.0):
    """Push ``data`` down a non-blocking socket until the peer stops
    taking bytes for ``stall_s``; returns how many bytes went out."""
    loop = asyncio.get_running_loop()
    sent, progress = 0, loop.time()
    while sent < len(data) and loop.time() - progress < stall_s:
        try:
            sent += sock.send(data[sent:sent + 65536])
            progress = loop.time()
        except BlockingIOError:
            await asyncio.sleep(0.01)
    return sent


class TestRoundtrip:
    def test_bits_match_decode_many(self, service, code, traffic):
        async def run():
            async with DecodeGateway(service, open_admission()) as gateway:
                host, port = gateway.address
                async with await AsyncDecodeClient.connect(host, port) as c:
                    return await asyncio.gather(
                        *[c.decode(f, timeout=60) for f in traffic]
                    )

        results = asyncio.run(run())
        reference = decode_many(
            code, np.stack(traffic), max_iterations=MAX_ITER
        )
        assert all(r.converged for r in results)
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result.bits, reference.bits[i])
            assert result.iterations == reference.iterations[i]

    def test_results_correlate_by_job_id_not_order(self, service, traffic):
        # fire all requests before awaiting any result: completion order
        # is the engine's, yet every future resolves to its own frame
        async def run():
            async with DecodeGateway(service, open_admission()) as gateway:
                host, port = gateway.address
                async with await AsyncDecodeClient.connect(host, port) as c:
                    futures = [
                        asyncio.ensure_future(c.decode(f, timeout=60))
                        for f in traffic
                    ]
                    await asyncio.sleep(0)  # let tasks register their jobs
                    assert c.pending == len(traffic)
                    return await asyncio.gather(*futures)

        results = asyncio.run(run())
        assert sorted(r.job_id for r in results) == list(
            range(1, len(traffic) + 1)
        )

    def test_ping(self, service):
        async def run():
            async with DecodeGateway(service, open_admission()) as gateway:
                host, port = gateway.address
                async with await AsyncDecodeClient.connect(host, port) as c:
                    return await c.ping()

        assert 0 <= asyncio.run(run()) < 5.0

    def test_blocking_client(self, service, code, traffic):
        async def serve(started, stop):
            async with DecodeGateway(service, open_admission()) as gateway:
                started.set_result(gateway.address)
                await stop

        def client_work(host, port):
            with DecodeClient(host, port, tenant="anyone") as client:
                rtt = client.ping()
                results = [client.decode(f, timeout=60) for f in traffic[:4]]
            return rtt, results

        async def run():
            loop = asyncio.get_running_loop()
            started = loop.create_future()
            stop = loop.create_future()
            server = asyncio.ensure_future(serve(started, stop))
            host, port = await started
            rtt, results = await loop.run_in_executor(
                None, client_work, host, port
            )
            stop.set_result(None)
            await server
            return rtt, results

        rtt, results = asyncio.run(run())
        reference = decode_many(
            code, np.stack(traffic[:4]), max_iterations=MAX_ITER
        )
        assert rtt >= 0
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result.bits, reference.bits[i])


class TestTypedErrors:
    def test_quota_exhaustion_reraises_quota_error(self, service, traffic):
        admission = open_admission(
            poor=TenantPolicy(rate=0.0, burst=2.0, priority=BRONZE)
        )

        async def run():
            async with DecodeGateway(service, admission) as gateway:
                host, port = gateway.address
                async with await AsyncDecodeClient.connect(
                    host, port, tenant="poor"
                ) as c:
                    ok = 0
                    rejected = 0
                    for frame in traffic[:5]:
                        try:
                            await c.decode(frame, timeout=60)
                            ok += 1
                        except QuotaExceededError:
                            rejected += 1
                    return ok, rejected

        ok, rejected = asyncio.run(run())
        assert (ok, rejected) == (2, 3)

    def test_unknown_tenant_refused(self, service, traffic):
        admission = open_admission(
            known=TenantPolicy(rate=100, burst=100)
        )

        async def run():
            async with DecodeGateway(service, admission) as gateway:
                host, port = gateway.address
                async with await AsyncDecodeClient.connect(
                    host, port, tenant="stranger"
                ) as c:
                    with pytest.raises(QuotaExceededError):
                        await c.decode(traffic[0], timeout=60)

        asyncio.run(run())

    def test_client_timeout_is_serve_timeout(self, service, traffic):
        async def run():
            async with DecodeGateway(service, open_admission()) as gateway:
                host, port = gateway.address
                async with await AsyncDecodeClient.connect(host, port) as c:
                    with pytest.raises(ServeTimeoutError):
                        await c.decode(traffic[0], timeout=0.0)

        asyncio.run(run())

    def test_garbage_bytes_get_protocol_error_and_close(self, service):
        async def run():
            async with DecodeGateway(service, open_admission()) as gateway:
                host, port = gateway.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"\x00\x00\x00\x05HELLO")
                await writer.drain()
                from repro.net.protocol import ErrorFrame, read_frame

                frame = await read_frame(reader)
                assert isinstance(frame, ErrorFrame)
                assert frame.kind == "NetProtocolError"
                assert frame.job_id == 0  # connection-scoped
                assert await reader.read() == b""  # gateway closed it
                writer.close()

        asyncio.run(run())

    def test_connection_error_poisons_pending(self, service, traffic):
        # job-id-0 error ends the connection; the pending decode must
        # fail with a typed error rather than hang
        async def run():
            async with DecodeGateway(service, open_admission()) as gateway:
                host, port = gateway.address
                client = await AsyncDecodeClient.connect(host, port)
                try:
                    task = asyncio.ensure_future(
                        client.decode(traffic[0], timeout=60)
                    )
                    await asyncio.sleep(0)  # let the request leave
                    # now violate the protocol on the same connection
                    client._writer.write(b"\x00\x00\x00\x02XX")
                    with pytest.raises(
                        (NetProtocolError, GatewayClosedError)
                    ):
                        await task
                finally:
                    await client.close()

        asyncio.run(run())


class TestDrain:
    def test_close_refuses_new_requests(self, service, traffic):
        async def run():
            gateway = DecodeGateway(service, open_admission())
            host, port = await gateway.start()
            client = await AsyncDecodeClient.connect(host, port)
            try:
                first = await client.decode(traffic[0], timeout=60)
                assert first.converged
                await gateway.close(drain=True)
                with pytest.raises(GatewayClosedError):
                    await client.decode(traffic[1], timeout=60)
            finally:
                await client.close()

        asyncio.run(run())

    def test_close_streams_a_request_still_decoding(self, code, traffic):
        # the worker starts only after close() began waiting, so the
        # result is produced mid-drain and must still reach the client
        svc = DecodeService(code, batch_size=4, max_iterations=MAX_ITER,
                            queue_capacity=64, autostart=False)

        async def run():
            gateway = DecodeGateway(svc, open_admission())
            host, port = await gateway.start()
            client = await AsyncDecodeClient.connect(host, port,
                                                     tenant="acme")
            try:
                pending = asyncio.ensure_future(
                    client.decode(traffic[0], timeout=60)
                )
                await _until(
                    lambda: gateway.metrics.requests.value(tenant="acme")
                )
                closing = asyncio.ensure_future(gateway.close(drain=True))
                await asyncio.sleep(0.05)
                assert gateway.draining and not closing.done()
                svc.start()
                result = await pending
                await closing
                return result, _gateway_tasks()
            finally:
                await client.close()

        try:
            result, leftover = asyncio.run(run())
        finally:
            svc.close()
        reference = decode_many(code, traffic[0][None, :],
                                max_iterations=MAX_ITER)
        np.testing.assert_array_equal(result.bits, reference.bits[0])
        assert leftover == []

    def test_close_without_drain_drops_the_request(self, code, traffic):
        svc = DecodeService(code, batch_size=4, max_iterations=MAX_ITER,
                            queue_capacity=64, autostart=False)

        async def run():
            gateway = DecodeGateway(svc, open_admission())
            host, port = await gateway.start()
            client = await AsyncDecodeClient.connect(host, port,
                                                     tenant="acme")
            try:
                pending = asyncio.ensure_future(
                    client.decode(traffic[0], timeout=60)
                )
                await _until(
                    lambda: gateway.metrics.requests.value(tenant="acme")
                )
                await gateway.close(drain=False)
                leftover = _gateway_tasks()
                with pytest.raises(GatewayClosedError):
                    await pending
                # the dropped job still decodes; its late completion
                # must find the connection gone without raising
                svc.start()
                await _until(lambda: not gateway._inflight)
                return leftover, gateway.metrics
            finally:
                await client.close()

        try:
            leftover, metrics = asyncio.run(run())
        finally:
            svc.close()
        assert leftover == []
        assert metrics.results.value(tenant="acme") == 0

    def test_close_is_idempotent(self, service):
        async def run():
            gateway = DecodeGateway(service, open_admission())
            await gateway.start()
            await gateway.close()
            await gateway.close()
            assert gateway.draining

        asyncio.run(run())


class TestRequestPath:
    def test_served_requests_leave_no_cyclic_garbage(self, service,
                                                     traffic):
        # a done-callback holding its own future would keep every
        # finished job alive until the cyclic GC ran
        served = 64

        async def run():
            async with DecodeGateway(service, open_admission()) as gateway:
                host, port = gateway.address
                async with await AsyncDecodeClient.connect(host, port) as c:
                    await c.decode(traffic[0])  # warm every lazy path
                    gc.collect()
                    gc.disable()
                    try:
                        for i in range(served):
                            await c.decode(traffic[i % len(traffic)])
                        return gc.collect()
                    finally:
                        gc.enable()

        assert asyncio.run(run()) < served

    def test_racing_completions_answer_every_request_once(self, code,
                                                          traffic):
        # three shard workers on two cores complete jobs concurrently
        # with the loop taking the completion list; a lost update there
        # leaves a request unanswered (its client times out)
        svc = DecodeService({"a": code, "b": code, "c": code},
                            batch_size=4, max_iterations=MAX_ITER,
                            queue_capacity=256)
        n = 600

        async def run():
            async with DecodeGateway(svc, open_admission()) as gateway:
                host, port = gateway.address
                clients = [await AsyncDecodeClient.connect(host, port)
                           for _ in range(3)]
                try:
                    results = await asyncio.gather(*(
                        clients[i % 3].decode(
                            traffic[i % len(traffic)], code_id="abc"[i % 3],
                            timeout=30,
                        ) for i in range(n)
                    ))
                finally:
                    for client in clients:
                        await client.close()
                return results, gateway._inflight

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results, inflight = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)
            svc.close()
        reference = decode_many(code, np.stack(traffic),
                                max_iterations=MAX_ITER)
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result.bits,
                                          reference.bits[i % len(traffic)])
        assert inflight == 0

    def test_a_client_that_never_reads_stops_being_read(self, service,
                                                        traffic):
        # small kernel buffers on both ends, so the gateway's own write
        # buffer is what fills once the client stops reading
        i8, scale = pack_llrs(traffic[0])
        requests = b"".join(
            encode_request(job, "stuck", "", GOLD, llrs_i8=i8, scale=scale)
            for job in range(1, 3001)
        )

        async def run():
            async with DecodeGateway(service, open_admission()) as gateway:
                host, port = gateway.address
                for sock in gateway._server.sockets:
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                stuck = socket.socket()
                stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                stuck.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                stuck.connect((host, port))
                stuck.setblocking(False)
                try:
                    stuck.send(encode_hello())
                    sent = await _send_until_stalled(stuck, requests)
                    read = gateway.metrics.requests.value(tenant="stuck")
                    await asyncio.sleep(0.3)
                    still = gateway.metrics.requests.value(tenant="stuck")
                    written = gateway.metrics.bytes_out.value()
                    async with await AsyncDecodeClient.connect(
                        host, port, tenant="other"
                    ) as other:
                        result = await other.decode(traffic[1], timeout=60)
                finally:
                    stuck.close()
            return sent, read, still, written, result

        sent, read, still, written, result = asyncio.run(run())
        assert sent < len(requests)  # the gateway stopped reading
        assert still == read < 3000
        assert written > 64 * 1024  # past the transport's high-water mark
        assert result.converged

class TestMetrics:
    def test_request_and_byte_accounting(self, service, traffic):
        async def run():
            async with DecodeGateway(service, open_admission()) as gateway:
                host, port = gateway.address
                async with await AsyncDecodeClient.connect(
                    host, port, tenant="acme"
                ) as c:
                    for frame in traffic[:3]:
                        await c.decode(frame, timeout=60)
            return gateway.metrics

        metrics = asyncio.run(run())
        assert metrics.requests.value(tenant="acme") == 3
        assert metrics.results.value(tenant="acme") == 3
        assert metrics.registry.get("net_bytes_in_total").total() > 0
        assert metrics.registry.get("net_bytes_out_total").total() > 0
        assert metrics.registry.get("net_connections").value() == 0

    def test_rejection_reasons_labelled(self, service, traffic):
        admission = open_admission(
            poor=TenantPolicy(rate=0.0, burst=1.0)
        )

        async def run():
            async with DecodeGateway(service, admission) as gateway:
                host, port = gateway.address
                async with await AsyncDecodeClient.connect(
                    host, port, tenant="poor"
                ) as c:
                    await c.decode(traffic[0], timeout=60)
                    for frame in traffic[1:3]:
                        with pytest.raises(QuotaExceededError):
                            await c.decode(frame, timeout=60)
            return gateway.metrics

        metrics = asyncio.run(run())
        assert metrics.rejected.value(tenant="poor", reason="quota") == 2


class TestSheddingBridge:
    def test_bronze_budget_caps_iterations(self, code):
        # an unconverged low-SNR frame runs to its iteration budget; the
        # bronze bias must cap it below the gold run on the same frame
        svc = DecodeService(
            code, batch_size=4, max_iterations=MAX_ITER,
        )
        admission = open_admission(
            gold=TenantPolicy(rate=100, burst=100, priority=GOLD),
            bronze=TenantPolicy(rate=100, burst=100, priority=BRONZE),
        )
        # random-sign near-zero LLRs: the hard decision is a random word
        # far from any codeword, so decoding runs the full budget
        hopeless = hopeless_frame(code)

        async def run():
            async with DecodeGateway(svc, admission) as gateway:
                host, port = gateway.address
                async with await AsyncDecodeClient.connect(
                    host, port, tenant="gold"
                ) as gold_client:
                    gold = await gold_client.decode(hopeless, timeout=60)
                async with await AsyncDecodeClient.connect(
                    host, port, tenant="bronze"
                ) as bronze_client:
                    # fill ~0 but bronze bias 0.35 stays under the first
                    # shed step, so budget survives at this fill...
                    bronze_idle = await bronze_client.decode(
                        hopeless, timeout=60
                    )
                return gold, bronze_idle

        try:
            gold, bronze_idle = asyncio.run(run())
        finally:
            svc.close()
        assert not gold.converged
        assert gold.iterations == MAX_ITER
        assert bronze_idle.iterations == MAX_ITER  # 0.35 < 0.75 step

    def test_bronze_shed_under_synthetic_fill(self, code, monkeypatch):
        svc = DecodeService(
            code, batch_size=4, max_iterations=MAX_ITER,
        )
        admission = open_admission(
            bronze=TenantPolicy(rate=100, burst=100, priority=BRONZE),
        )
        monkeypatch.setattr(
            type(svc), "queue_fill", lambda self, key=None: 0.5
        )
        hopeless = hopeless_frame(code)

        async def run():
            async with DecodeGateway(svc, admission) as gateway:
                host, port = gateway.address
                async with await AsyncDecodeClient.connect(
                    host, port, tenant="bronze"
                ) as c:
                    return await c.decode(hopeless, timeout=60)

        try:
            result = asyncio.run(run())
        finally:
            svc.close()
        # biased fill 0.85 -> 75% budget step
        assert result.iterations == int(MAX_ITER * 0.75)

    def test_a_request_refused_for_backpressure_is_not_shed(self, code,
                                                            traffic):
        # a full queue sheds every priority class, but the submit that
        # follows admission is refused: the request counts as rejected
        # for backpressure and never as shed
        svc = DecodeService(
            code, batch_size=2, max_iterations=MAX_ITER, queue_capacity=4,
            autostart=False,
        )
        for frame in traffic[:4]:
            svc.submit(frame)

        async def run():
            async with DecodeGateway(svc, open_admission()) as gateway:
                host, port = gateway.address
                async with await AsyncDecodeClient.connect(
                    host, port, tenant="acme"
                ) as c:
                    with pytest.raises(QueueFullError):
                        await c.decode(traffic[4], timeout=60)
                return gateway.metrics.registry

        try:
            registry = asyncio.run(run())
        finally:
            svc.close()
        assert registry.get("net_rejected_total").value(
            tenant="acme", reason="backpressure") == 1
        assert registry.get("net_shed_total").value(tenant="acme") == 0
