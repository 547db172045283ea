"""``repro top``: the status endpoint and its console rendering.

The contract under test is exactness — the per-tenant RED rollups in
the status document are derived server-side from the same counters
Prometheus scrapes, so ``repro top --once --json`` must agree with the
registry to the last increment.
"""

import asyncio
import json

import pytest

from repro.accel.bench import generate_traffic
from repro.net import (
    AdmissionController,
    AsyncDecodeClient,
    DecodeGateway,
    ObsEndpoint,
    TenantPolicy,
    build_status,
    fetch_status,
    render_top,
    run_top,
)
from repro.net.console import STATUS_SCHEMA
from repro.serve.pool import DecodeService

pytestmark = [pytest.mark.net, pytest.mark.obs, pytest.mark.timeout(120)]

MAX_ITER = 10


@pytest.fixture(scope="module")
def code():
    from repro.codes import wimax_code

    return wimax_code("1/2", 576)


@pytest.fixture(scope="module")
def traffic(code):
    return list(generate_traffic(code, 3, 4.0, seed=9))


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


async def _drive(gateway, traffic, tenant="gold"):
    host, port = gateway.address
    async with await AsyncDecodeClient.connect(
        host, port, tenant=tenant
    ) as client:
        for frame in traffic:
            await client.decode(frame, timeout=60)


class TestBuildStatus:
    def test_red_rollups_match_counters_exactly(self, service, traffic):
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                await _drive(gw, traffic, tenant="gold")
                return build_status(gw), gw.metrics.registry

        status, registry = asyncio.run(run())
        assert status["schema_version"] == STATUS_SCHEMA
        row = status["tenants"]["gold"]
        assert row["requests"] == len(traffic)
        assert row["results"] == len(traffic)
        assert row["errors"] == 0 and row["rejected"] == 0
        assert row["requests"] == int(
            registry.get("net_requests_total").total()
        )
        assert row["p50_s"] > 0 and row["p99_s"] >= row["p50_s"]
        # the document carries the registry snapshot + Prometheus text
        assert "net_requests_total" in status["metrics"]
        assert "net_requests_total" in status["prometheus"]
        assert status["slo"]["status"] in ("pass", "fail", "unknown")
        assert status["gateway"]["closed"] is False

    def test_shards_and_service_state_present(self, service, traffic):
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                await _drive(gw, traffic)
                return build_status(gw)

        status = asyncio.run(run())
        assert status["service"]["status"] in ("ok", "degraded")
        assert len(status["shards"]) == 1
        shard = next(iter(status["shards"].values()))
        assert shard["healthy"] is True
        assert shard["queue_capacity"] == 64


class TestEndpoint:
    def test_fetch_matches_build(self, service, traffic):
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                await _drive(gw, traffic, tenant="silver")
                async with ObsEndpoint(gw) as obs:
                    host, port = obs.address
                    local = build_status(gw)
                    fetched = await asyncio.to_thread(
                        fetch_status, host, port
                    )
                    return local, fetched

        local, fetched = asyncio.run(run())
        assert fetched["tenants"] == local["tenants"]
        assert fetched["schema_version"] == STATUS_SCHEMA
        assert fetched["tenants"]["silver"]["requests"] == len(traffic)

    def test_endpoint_survives_rude_clients(self, service):
        # connect-and-slam must not break the next well-behaved fetch
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                async with ObsEndpoint(gw) as obs:
                    host, port = obs.address
                    _, writer = await asyncio.open_connection(host, port)
                    writer.close()
                    return await asyncio.to_thread(fetch_status, host, port)

        status = asyncio.run(run())
        assert status["schema_version"] == STATUS_SCHEMA


class TestRendering:
    def test_render_top_contains_the_numbers(self, service, traffic):
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                await _drive(gw, traffic, tenant="gold")
                return build_status(gw)

        text = render_top(asyncio.run(run()))
        assert "tenants (RED)" in text
        assert "gold" in text
        assert "shards" in text
        assert "gateway SLOs" in text

    def test_run_top_once_json_is_the_raw_document(self, service, traffic):
        async def run():
            async with DecodeGateway(service, open_admission()) as gw:
                await _drive(gw, traffic, tenant="gold")
                async with ObsEndpoint(gw) as obs:
                    host, port = obs.address
                    lines = []
                    status = await asyncio.to_thread(
                        run_top, host, port, 0.0, True, True, None,
                        lines.append,
                    )
                    return status, lines

        status, lines = asyncio.run(run())
        parsed = json.loads("\n".join(lines))
        assert parsed == json.loads(json.dumps(status))
        assert parsed["tenants"]["gold"]["requests"] == len(traffic)
