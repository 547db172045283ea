"""Chaos transport unit + integration tests.

The fault injector must be three things at once: *deterministic* (same
seed and stream id → identical fault pattern, replayable from a JSON
config), *honest* (a zero-probability config is a bit-exact
passthrough), and *detectable* (any corruption it injects into a
stream surfaces as a CRC error, never as silently wrong bits).
"""

import asyncio
import time

import numpy as np
import pytest

from repro.accel.bench import generate_traffic
from repro.chaos import ChaosConfig, ChaosOps, ChaosProxy, ChaosWriter
from repro.codes import wimax_code
from repro.decoder import decode_many
from repro.errors import (
    FrameCorruptionError,
    GatewayClosedError,
    NetProtocolError,
    ServeTimeoutError,
)
from repro.net import (
    AdmissionController,
    AsyncDecodeClient,
    DecodeGateway,
    TenantPolicy,
    pack_llrs,
    unpack_llrs,
)
from repro.serve.pool import DecodeService

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(120)]

MAX_ITER = 10


@pytest.fixture(scope="module")
def code():
    return wimax_code("1/2", 576)


@pytest.fixture(scope="module")
def traffic(code):
    frames = generate_traffic(code, 8, 4.0, seed=11)
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


def apply_plan(plan):
    return b"".join(plan.parts)


class TestChaosOps:
    def test_same_seed_same_stream_identical_plans(self):
        cfg = ChaosConfig(
            seed=42, corrupt_p=0.01, truncate_p=0.1, reset_p=0.05,
            latency_p=0.3, partial_write_p=0.3,
        )
        rng = np.random.default_rng(0)
        chunks = [
            rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            for n in (1, 7, 100, 4096, 65536)
        ] * 4
        a, b = ChaosOps(cfg, stream_id=3), ChaosOps(cfg, stream_id=3)
        for chunk in chunks:
            pa, pb = a.plan(chunk), b.plan(chunk)
            assert pa.parts == pb.parts
            assert pa.delay_s == pb.delay_s
            assert pa.truncated == pb.truncated
            assert pa.reset == pb.reset
        assert a.to_dict() == b.to_dict()

    def test_different_streams_diverge(self):
        cfg = ChaosConfig(seed=42, corrupt_p=0.05, partial_write_p=0.5)
        chunk = bytes(range(256)) * 16
        a = [apply_plan(ChaosOps(cfg, 0).plan(chunk)) for _ in range(1)][0]
        b = [apply_plan(ChaosOps(cfg, 1).plan(chunk)) for _ in range(1)][0]
        assert a != b  # corruption landed differently

    def test_zero_config_is_passthrough(self):
        ops = ChaosOps(ChaosConfig(seed=9))
        rng = np.random.default_rng(1)
        for n in (1, 2, 100, 65536):
            chunk = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            plan = ops.plan(chunk)
            assert apply_plan(plan) == chunk
            assert plan.delay_s == 0.0
            assert not plan.truncated and not plan.reset
        stats = ops.to_dict()
        assert stats["corrupted_bytes"] == 0
        assert stats["truncations"] == stats["resets"] == 0
        assert stats["chunks"] == 4

    def test_corruption_always_changes_bytes(self):
        # the XOR mask is drawn from [1, 256): a corrupted byte can
        # never silently equal the original
        ops = ChaosOps(ChaosConfig(seed=3, corrupt_p=0.2))
        chunk = bytes(4096)
        flipped = 0
        for _ in range(10):
            out = apply_plan(ops.plan(chunk))
            assert len(out) == len(chunk)
            flipped += sum(1 for x in out if x != 0)
        assert flipped == ops.corrupted_bytes
        assert flipped > 0

    def test_truncation_shortens_never_empties(self):
        ops = ChaosOps(ChaosConfig(seed=5, truncate_p=1.0))
        chunk = bytes(100)
        plan = ops.plan(chunk)
        out = apply_plan(plan)
        assert plan.truncated
        assert 1 <= len(out) < len(chunk)

    def test_counters_roundtrip_config(self):
        cfg = ChaosConfig(seed=8, corrupt_p=0.25, latency_s=0.5)
        assert ChaosConfig.from_dict(cfg.to_dict()) == cfg
        # unknown keys (from a newer writer) are ignored, not fatal
        doc = dict(cfg.to_dict(), future_knob=1)
        assert ChaosConfig.from_dict(doc) == cfg


class TestChaosWriter:
    def test_passthrough_writer_delivers_bytes(self):
        async def run():
            received = bytearray()
            done = asyncio.Event()

            async def handle(reader, writer):
                while True:
                    chunk = await reader.read(4096)
                    if not chunk:
                        break
                    received.extend(chunk)
                done.set()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            chaotic = ChaosWriter(writer, ChaosOps(ChaosConfig()))
            payload = bytes(range(256)) * 8
            chaotic.write(payload)
            await chaotic.drain()
            chaotic.close()
            await chaotic.wait_closed()
            await asyncio.wait_for(done.wait(), 5.0)
            server.close()
            await server.wait_closed()
            return bytes(received)

        payload = bytes(range(256)) * 8
        assert asyncio.run(run()) == payload

    def test_reset_plan_raises_and_poisons(self):
        async def run():
            server = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            chaotic = ChaosWriter(
                writer, ChaosOps(ChaosConfig(seed=1, reset_p=1.0))
            )
            chaotic.write(b"doomed")
            with pytest.raises(ConnectionResetError):
                await chaotic.drain()
            with pytest.raises(ConnectionResetError):
                chaotic.write(b"after death")
            server.close()
            await server.wait_closed()

        asyncio.run(run())


class TestChaosProxy:
    def test_clean_proxy_is_bit_exact(self, service, code, traffic):
        # zero-fault proxy in the path: results identical to decode_many
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                host, port = gw.address
                async with ChaosProxy(host, port) as proxy:
                    phost, pport = proxy.address
                    client = await AsyncDecodeClient.connect(phost, pport)
                    async with client as c:
                        results = await asyncio.gather(
                            *[c.decode(f, timeout=60) for f in traffic]
                        )
                    return results, proxy.injected()

        results, injected = asyncio.run(run())
        reference = decode_many(
            code, np.stack(traffic), max_iterations=MAX_ITER
        )
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result.bits, reference.bits[i])
        assert injected["corrupted_bytes"] == 0
        assert injected["connections"] == 1
        assert injected["bytes"] > 0

    def test_corruption_surfaces_as_crc_never_bad_bits(
        self, service, code, traffic
    ):
        # an aggressively corrupting proxy: every decode either matches
        # the reference bit-for-bit or fails with a typed error — no
        # third outcome, which is the whole point of the CRC trailer
        async def run():
            cfg = ChaosConfig(seed=21, corrupt_p=0.002)
            outcomes = []
            async with DecodeGateway(service, open_admission()) as gw:
                host, port = gw.address
                async with ChaosProxy(host, port, cfg) as proxy:
                    phost, pport = proxy.address
                    for frame in traffic:
                        try:
                            client = await AsyncDecodeClient.connect(
                                phost, pport, hello_timeout=5.0,
                            )
                            async with client:
                                # short timeout: a corrupted length
                                # prefix stalls the stream (the gateway
                                # waits for bytes that never come) and
                                # only a client deadline breaks the wait
                                result = await client.decode(
                                    frame, timeout=5
                                )
                            outcomes.append(("ok", result.bits))
                        except (
                            NetProtocolError,
                            FrameCorruptionError,
                            GatewayClosedError,
                            ServeTimeoutError,
                            ConnectionError,
                            OSError,
                        ) as exc:
                            outcomes.append(("error", type(exc).__name__))
                    return outcomes, proxy.injected()

        outcomes, injected = asyncio.run(run())
        assert injected["corrupted_bytes"] > 0  # chaos actually fired
        reference = decode_many(
            code, np.stack(traffic), max_iterations=MAX_ITER
        )
        errors = 0
        for i, (kind, value) in enumerate(outcomes):
            if kind == "ok":
                np.testing.assert_array_equal(value, reference.bits[i])
            else:
                errors += 1
        assert errors > 0  # with corrupt_p=0.002 some frames must die

    def test_partition_refuses_then_heals(self, service, traffic):
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                host, port = gw.address
                async with ChaosProxy(host, port) as proxy:
                    phost, pport = proxy.address
                    client = await AsyncDecodeClient.connect(phost, pport)
                    await client.decode(traffic[0], timeout=60)

                    proxy.partition()
                    assert proxy.partitioned
                    # the live connection dies...
                    with pytest.raises(
                        (NetProtocolError, GatewayClosedError,
                         ConnectionError, OSError)
                    ):
                        await client.decode(traffic[0], timeout=5)
                    await client.close()
                    # ...and new ones are refused: TCP may connect, but
                    # the HELLO check fails with a typed error in time
                    hello_timeout = 2.0
                    t0 = time.monotonic()
                    with pytest.raises((NetProtocolError, ServeTimeoutError)):
                        await AsyncDecodeClient.connect(
                            phost, pport, hello_timeout=hello_timeout
                        )
                    assert time.monotonic() - t0 < hello_timeout + 1.0

                    proxy.heal()
                    healed = await AsyncDecodeClient.connect(phost, pport)
                    async with healed as c:
                        result = await c.decode(traffic[0], timeout=60)
                    return result, proxy.injected()

        result, injected = asyncio.run(run())
        assert result.bits.size > 0
        assert injected["refused"] >= 1

    def test_kill_connections_is_one_shot(self, service, traffic):
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                host, port = gw.address
                async with ChaosProxy(host, port) as proxy:
                    phost, pport = proxy.address
                    client = await AsyncDecodeClient.connect(phost, pport)
                    await client.decode(traffic[0], timeout=60)
                    await proxy.kill_connections()
                    with pytest.raises(
                        (NetProtocolError, GatewayClosedError,
                         ConnectionError, OSError)
                    ):
                        await client.decode(traffic[0], timeout=5)
                    await client.close()
                    # no partition: a fresh connection works immediately
                    fresh = await AsyncDecodeClient.connect(phost, pport)
                    async with fresh as c:
                        return await c.decode(traffic[0], timeout=60)

        assert asyncio.run(run()).bits.size > 0
