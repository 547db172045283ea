"""The gateway hosts the code zoo: id routing, typed unknown-code
errors on both sides of the wire, and the channel-adaptive HARQ sim.

The serving contract under test: a registry id is a routing key that
works identically in-process (``DecodeService.submit(code_key=...)``)
and across TCP (the protocol's ``code_id`` field) — and an id nobody
registered fails *typed* at the earliest touchpoint on each path:
``submit()`` raises :class:`UnknownCodeError` before any frame is
queued, and the gateway ships the same class name in an ERROR frame so
the remote caller re-raises :class:`UnknownCodeError`, not a generic
remote error.

The HARQ test is the acceptance bar for the zoo tentpole: one client
session switches codes mid-stream (three registry codes, three block
lengths) as the simulated SNR sweeps, with zero payload mismatches
against the local ``decode_many`` reference.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.codes.registry import default_registry
from repro.errors import RemoteDecodeError, UnknownCodeError
from repro.net import (
    AdmissionController,
    AsyncDecodeClient,
    DecodeGateway,
    HarqConfig,
    HarqRung,
    TenantPolicy,
    decode_frame,
    encode_error,
    run_harq_session,
)
from repro.net.protocol import ERROR_TYPES
from repro.serve.pool import DecodeService

pytestmark = [pytest.mark.net, pytest.mark.zoo, pytest.mark.timeout(120)]

MAX_ITER = 10
ZOO_IDS = ["wimax-r12-576", "wifi-r12-648", "wifi-r23-648", "wimax-r56-2304"]


def open_admission():
    return AdmissionController(
        {}, max_iterations=MAX_ITER,
        default_policy=TenantPolicy(rate=1e9, burst=1e9),
    )


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture()
def zoo_service():
    svc = DecodeService.from_registry(
        ZOO_IDS, batch_size=4, max_iterations=MAX_ITER,
        queue_capacity=64,
    )
    yield svc
    svc.close()


def _frame_for(registry, code_id, seed=0, ebno_db=4.0):
    code = registry.get(code_id)
    encoder = registry.encoder(code_id)
    gen = np.random.default_rng(seed)
    message = gen.integers(0, 2, encoder.k).astype(np.uint8)
    codeword = encoder.encode(message)
    from repro.channel import AwgnChannel

    return code, AwgnChannel.from_ebno(ebno_db, code.rate, seed=gen).llrs(
        codeword
    )


# ----------------------------------------------------------------------
# serve side: registry-id routing and typed submit-time failure
# ----------------------------------------------------------------------
@pytest.mark.serve
class TestServiceZoo:
    def test_from_registry_routes_by_id(self, registry, zoo_service):
        assert zoo_service.registry_ids == tuple(ZOO_IDS)
        for code_id in ZOO_IDS:
            code, llrs = _frame_for(registry, code_id, seed=3)
            done = zoo_service.submit(
                llrs, code_key=code_id, timeout=None
            ).result()
            assert done.result.converged
            assert code.is_codeword(done.result.bits)

    def test_shared_length_needs_code_key(self, registry, zoo_service):
        # wifi-r12-648 and wifi-r23-648 share n=648: length routing is
        # ambiguous, but the registry id stays an exact key
        _, llrs = _frame_for(registry, "wifi-r23-648", seed=5)
        done = zoo_service.submit(
            llrs, code_key="wifi-r23-648", timeout=None
        ).result()
        assert done.result.converged

    def test_unknown_code_key_raises_at_submit(self, registry, zoo_service):
        _, llrs = _frame_for(registry, "wimax-r12-576", seed=1)
        with pytest.raises(UnknownCodeError) as excinfo:
            zoo_service.submit(llrs, code_key="no-such-code")
        assert "no-such-code" in str(excinfo.value)

    def test_unknown_code_key_raises_in_queue_fill(self, zoo_service):
        with pytest.raises(UnknownCodeError):
            zoo_service.queue_fill("no-such-code")

    def test_from_registry_rejects_unknown_id_up_front(self):
        with pytest.raises(UnknownCodeError):
            DecodeService.from_registry(["wimax-r12-576", "no-such-code"])


# ----------------------------------------------------------------------
# wire side: the typed error crosses the protocol
# ----------------------------------------------------------------------
def test_error_frame_round_trips_unknown_code_kind():
    wire = encode_error(7, UnknownCodeError("unknown code_key 'x'"))
    frame = decode_frame(wire[4:])  # strip the u32 length prefix
    assert frame.kind == "UnknownCodeError"
    assert ERROR_TYPES[frame.kind] is UnknownCodeError


def test_error_types_covers_unknown_code():
    assert ERROR_TYPES["UnknownCodeError"] is UnknownCodeError
    # unknown kinds still degrade to the generic remote error
    assert issubclass(RemoteDecodeError, Exception)


class TestGatewayZoo:
    def test_remote_decode_by_code_id(self, registry, zoo_service):
        async def run():
            async with DecodeGateway(zoo_service, open_admission()) as gw:
                host, port = gw.address
                async with await AsyncDecodeClient.connect(host, port) as c:
                    out = {}
                    for code_id in ZOO_IDS:
                        _, llrs = _frame_for(registry, code_id, seed=8)
                        out[code_id] = await c.decode(
                            llrs, code_id=code_id, timeout=60
                        )
                    return out

        results = asyncio.run(run())
        for code_id, result in results.items():
            assert result.converged
            assert registry.get(code_id).is_codeword(result.bits)

    def test_unknown_code_id_raises_typed_remotely(self, registry,
                                                   zoo_service):
        async def run():
            async with DecodeGateway(zoo_service, open_admission()) as gw:
                host, port = gw.address
                async with await AsyncDecodeClient.connect(host, port) as c:
                    _, llrs = _frame_for(registry, "wimax-r12-576", seed=2)
                    with pytest.raises(UnknownCodeError) as excinfo:
                        await c.decode(
                            llrs, code_id="no-such-code", timeout=60
                        )
                    assert "no-such-code" in str(excinfo.value)
                    # the connection survives the typed rejection
                    good = await c.decode(
                        llrs, code_id="wimax-r12-576", timeout=60
                    )
                    assert good.converged

        asyncio.run(run())


# ----------------------------------------------------------------------
# the channel-adaptive HARQ session (tentpole acceptance)
# ----------------------------------------------------------------------
class TestHarqSession:
    def _gateway(self, service):
        loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(target=loop.run_forever,
                                             daemon=True)
        self._loop_thread.start()
        gateway = DecodeGateway(service, open_admission())
        host, port = asyncio.run_coroutine_threadsafe(
            gateway.start(), loop
        ).result(30)
        return loop, gateway, host, port

    def _teardown(self, loop, gateway):
        asyncio.run_coroutine_threadsafe(gateway.close(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        self._loop_thread.join(timeout=30)
        loop.close()

    def test_mid_stream_rate_switch_zero_mismatches(self):
        ladder = (
            HarqRung("wimax-r12-576", min_snr_db=-1e9),
            HarqRung("wifi-r23-648", min_snr_db=3.2),
            HarqRung("wimax-r56-2304", min_snr_db=4.6),
        )
        service = DecodeService.from_registry(
            [r.code_id for r in ladder], batch_size=8,
            max_iterations=MAX_ITER, queue_capacity=64,
        )
        try:
            loop, gateway, host, port = self._gateway(service)
            try:
                report = run_harq_session(
                    host, port,
                    HarqConfig(ladder=ladder, frames=36, seed=7),
                )
            finally:
                self._teardown(loop, gateway)
        finally:
            service.close()

        assert report.frames == 36
        assert report.mismatches == 0
        assert report.switches >= 2
        assert len(report.codes_used) == 3  # all three rungs, one stream
        assert sum(s.frames for s in report.per_code.values()) == 36
        doc = report.to_dict()
        assert doc["mismatches"] == 0
        assert set(doc["per_code"]) == {r.code_id for r in ladder}

    def test_config_validation(self):
        with pytest.raises(Exception):
            HarqConfig(ladder=(HarqRung("wimax-r12-576", -1e9),))
        with pytest.raises(Exception):
            HarqConfig(frames=1)
        with pytest.raises(Exception):
            HarqConfig(snr_min_db=5.0, snr_max_db=2.0)
        with pytest.raises(Exception):
            HarqConfig(ladder=(
                HarqRung("wimax-r12-576", min_snr_db=100.0),
                HarqRung("wifi-r23-648", min_snr_db=200.0),
            ))

    def test_sweep_visits_every_rung_threshold(self):
        config = HarqConfig(frames=24, seed=5)
        rng = np.random.default_rng(config.seed)
        snrs = [config.snr_at(i, rng) for i in range(config.frames)]
        assert min(snrs) >= config.snr_min_db
        assert max(snrs) <= config.snr_max_db
        for rung in config.ladder[1:]:
            assert max(snrs) >= rung.min_snr_db


class TestHarqSwitchLogging:
    _gateway = TestHarqSession._gateway
    _teardown = TestHarqSession._teardown

    def test_rung_switches_land_in_event_log_with_labels(self):
        from repro.obs.log import EventLog

        ladder = (
            HarqRung("wimax-r12-576", min_snr_db=-1e9),
            HarqRung("wifi-r23-648", min_snr_db=3.2),
            HarqRung("wimax-r56-2304", min_snr_db=4.6),
        )
        service = DecodeService.from_registry(
            [r.code_id for r in ladder], batch_size=8,
            max_iterations=MAX_ITER, queue_capacity=64,
        )
        log = EventLog()
        try:
            loop, gateway, host, port = self._gateway(service)
            try:
                report = run_harq_session(
                    host, port,
                    HarqConfig(ladder=ladder, frames=36, seed=7,
                               tenant="gold"),
                    log=log,
                )
            finally:
                self._teardown(loop, gateway)
        finally:
            service.close()

        switches = log.records(event="harq.switch")
        assert len(switches) == report.switches
        for record in switches:
            # tenant + code_id labels make `repro logs --tenant/--code-id`
            # isolate one stream's adaptation history
            assert record.fields["tenant"] == "gold"
            assert record.fields["code_id"] in {r.code_id for r in ladder}
            assert record.fields["from_code"] != record.fields["code_id"]
            assert "snr_db" in record.fields and "frame" in record.fields
