"""DecodeClient lifecycle: idempotent close and fail-fast after death.

The blocking client runs a private event loop on a daemon thread.  The
contract under test: ``close()`` (and ``__exit__``) can run any number
of times, in any order, without hanging — and once the client is closed
or its loop thread has died, every blocking call raises a typed
:class:`~repro.errors.ClientClosedError` immediately instead of
queueing a coroutine for a loop that will never run it.
"""

import asyncio
import threading
import warnings

import numpy as np
import pytest

from repro.accel.bench import generate_traffic
from repro.codes import wimax_code
from repro.errors import ClientClosedError
from repro.net import (
    AdmissionController,
    DecodeClient,
    DecodeGateway,
    TenantPolicy,
)
from repro.serve.pool import DecodeService

pytestmark = [pytest.mark.net, pytest.mark.timeout(120)]

MAX_ITER = 10


@pytest.fixture(scope="module")
def code():
    return wimax_code("1/2", 576)


@pytest.fixture()
def gateway(code):
    """A real gateway on a background thread, so the blocking
    DecodeClient can be exercised from the test thread directly."""
    service = DecodeService(
        code, batch_size=4, max_iterations=MAX_ITER,
        queue_capacity=64,
    )
    admission = AdmissionController(
        {}, max_iterations=MAX_ITER,
        default_policy=TenantPolicy(rate=1e9, burst=1e9),
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    gw = DecodeGateway(service, admission)
    asyncio.run_coroutine_threadsafe(gw.start(), loop).result(10.0)
    try:
        yield gw.address
    finally:
        asyncio.run_coroutine_threadsafe(gw.close(), loop).result(10.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        loop.close()
        service.close()


class TestIdempotentClose:
    def test_close_twice(self, gateway):
        host, port = gateway
        client = DecodeClient(host, port)
        client.close()
        client.close()  # second close: no error, no hang

    def test_context_manager_then_explicit_close(self, gateway):
        host, port = gateway
        with DecodeClient(host, port) as client:
            assert client.ping() >= 0.0
        client.close()  # __exit__ already closed; still fine

    def test_close_releases_the_loop_thread(self, gateway):
        host, port = gateway
        before = threading.active_count()
        client = DecodeClient(host, port)
        assert threading.active_count() == before + 1
        client.close()
        assert not client._thread.is_alive()
        assert threading.active_count() == before


class TestFailFast:
    def test_decode_after_close_raises_typed_error(self, gateway, code):
        host, port = gateway
        client = DecodeClient(host, port)
        frame = generate_traffic(code, 1, 4.0, seed=1)[0]
        client.close()
        with pytest.raises(ClientClosedError, match="closed"):
            client.decode(frame)

    def test_ping_after_close_raises_typed_error(self, gateway):
        host, port = gateway
        client = DecodeClient(host, port)
        client.close()
        with pytest.raises(ClientClosedError):
            client.ping()

    def test_dead_loop_thread_fails_fast(self, gateway, code):
        # kill the loop out from under the client (as an unhandled
        # thread crash would): calls must fail immediately with the
        # typed error, not block forever on a dead executor
        host, port = gateway
        client = DecodeClient(host, port)
        frame = generate_traffic(code, 1, 4.0, seed=2)[0]
        client._loop.call_soon_threadsafe(client._loop.stop)
        client._thread.join(timeout=10.0)
        assert not client._thread.is_alive()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no never-awaited warning
            with pytest.raises(ClientClosedError, match="thread died"):
                client.decode(frame)
        client.close()  # cleanup after death: still no error, no hang

    def test_close_after_dead_thread_does_not_hang(self, gateway):
        host, port = gateway
        client = DecodeClient(host, port)
        client._loop.call_soon_threadsafe(client._loop.stop)
        client._thread.join(timeout=10.0)
        client.close()  # must skip the asyncio-side close
        with pytest.raises(ClientClosedError):
            client.ping()


class TestStillWorksBeforeClose:
    def test_decode_roundtrip_then_close(self, gateway, code):
        host, port = gateway
        frame = generate_traffic(code, 1, 4.0, seed=3)[0]
        with DecodeClient(host, port) as client:
            result = client.decode(np.asarray(frame), timeout=60)
            assert result.bits.size == code.n  # full codeword comes back
