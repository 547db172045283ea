"""Circuit-breaker probes and attempts that end without a verdict.

A half-open breaker lets one probe through and waits for its verdict.
When the probe's attempt is cancelled instead (a hedge won, or the job
was cancelled), nothing records a verdict; the probe must still be
given back, or the endpoint is shut out for good.  A cancelled job must
also cancel its attempts, not leave them running.
"""

import asyncio

import numpy as np
import pytest

from repro.accel.bench import generate_traffic
from repro.codes import wimax_code
from repro.net import (
    AdmissionController,
    DecodeGateway,
    ResilientDecodeClient,
    TenantPolicy,
)
from repro.net.protocol import pack_llrs, unpack_llrs
from repro.net.resilience import CircuitBreaker, RetryPolicy
from repro.serve.pool import DecodeService
from tests.test_net_autoscaler import FakeClock

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(60)]


class TestBreakerRelease:
    def test_abandoned_probe_is_probed_again_after_the_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(2, reset_timeout_s=2.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 2.0
        assert breaker.allow()  # the half-open probe ...
        breaker.release()  # ... ends with no verdict
        clock.now = 3.0
        assert not breaker.allow()  # re-opened for another timeout
        for t in (4.0, 100.0, 1e6):
            clock.now = t
            assert breaker.allow()
            breaker.release()
        assert breaker.to_dict() == {"state": "open", "failures": 2}

    def test_release_without_a_probe_changes_nothing(self):
        clock = FakeClock()
        breaker = CircuitBreaker(2, reset_timeout_s=2.0, clock=clock)
        breaker.record_failure()
        breaker.release()
        assert breaker.allow()
        assert breaker.to_dict() == {"state": "closed", "failures": 1}


class _FakeGateway(object):
    """A TCP peer that hangs up at once (``refuse``) or never answers."""

    def __init__(self) -> None:
        self.refuse = True
        self.silent_connections = 0
        self.open_connections = 0
        self._server = None

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        return self._server.sockets[0].getsockname()[:2]

    async def _handle(self, reader, writer):
        if not self.refuse:
            self.silent_connections += 1
            self.open_connections += 1
            while await reader.read(4096):
                pass
            self.open_connections -= 1
        writer.close()

    async def close(self):
        self._server.close()
        await self._server.wait_closed()


def test_hedged_client_probes_a_half_open_primary_again():
    code = wimax_code("1/2", 576)
    frame = unpack_llrs(*pack_llrs(generate_traffic(code, 1, 4.0, seed=3)[0]))
    service = DecodeService(code, batch_size=4, max_iterations=10)
    admission = AdmissionController(
        {}, max_iterations=10,
        default_policy=TenantPolicy(rate=1e9, burst=1e9),
    )
    reset_s = 0.2

    async def run():
        sick = _FakeGateway()
        sick_address = await sick.start()
        async with DecodeGateway(service, admission) as healthy:
            client = ResilientDecodeClient(
                [sick_address, healthy.address], tenant="gold",
                retry=RetryPolicy(max_attempts=4, base_delay_s=0.01),
                hedge_delay_s=0.1, breaker_failures=1,
                breaker_reset_s=reset_s,
            )
            try:
                # the sick endpoint hangs up: its breaker opens
                assert (await client.decode(frame)).converged
                sick.refuse = False
                # from now on it never answers, so every probe sent to it
                # loses to the hedge on the healthy endpoint
                for _ in range(10):
                    await asyncio.sleep(reset_s * 1.25)
                    assert (await client.decode(frame)).converged
                    if sick.silent_connections >= 2:
                        break
            finally:
                await client.close()
                await sick.close()
        return sick.silent_connections

    try:
        probes = asyncio.run(run())
    finally:
        service.close()
    # the first probe lost to the hedge; the endpoint was probed again
    assert probes >= 2


def test_cancelled_job_cancels_its_waiting_primary():
    async def run():
        first, second = _FakeGateway(), _FakeGateway()
        first.refuse = second.refuse = False
        endpoints = [await first.start(), await second.start()]
        client = ResilientDecodeClient(endpoints, hedge_delay_s=5.0)
        frame = np.zeros(576)
        try:
            job = asyncio.ensure_future(client.decode(frame))
            await asyncio.sleep(0.2)  # primary hangs in its HELLO
            assert first.open_connections == 1
            job.cancel()
            await asyncio.gather(job, return_exceptions=True)
            await asyncio.sleep(0.2)
            return first.open_connections
        finally:
            await client.close()
            await first.close()
            await second.close()

    # the primary's connection went with the cancelled job
    assert asyncio.run(run()) == 0
