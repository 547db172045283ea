"""Gateway + client integration tests over real TCP sockets.

Every test runs a real :class:`DecodeService` behind a real
:class:`DecodeGateway` on an OS-assigned port; clients speak the framed
protocol end to end.  The central claims: the network path is bit-exact
with :func:`decode_many`, failures arrive as the same typed
``ServeError`` members the gateway hit, results stream out of order,
and drain refuses new work while finishing old work.
"""

import asyncio

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

    def test_close_is_idempotent(self, service):
        async def run():
            gateway = DecodeGateway(service, open_admission())
            await gateway.start()
            await gateway.close()
            await gateway.close()
            assert gateway.draining

        asyncio.run(run())


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
