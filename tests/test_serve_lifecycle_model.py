"""Model-based test of the decode service lifecycle (thread backend).

Hypothesis drives one :class:`DecodeService` through random
interleavings of ``submit`` (one frame, or a burst larger than an
engine's free slots), ``add_shard``, ``remove_shard`` (drained or not),
an injected worker crash and ``close``.  Whatever the order:

* every future ``submit`` returned resolves exactly once, either with
  the bits :func:`decode_many` gives for that frame or with a typed
  :class:`~repro.errors.ServeError`;
* ``queue_fill`` stays in [0, 1] after every step;
* once ``close()`` returns, no ``decode-worker-*`` thread of the
  service is alive, ``frames_out + frames_errored`` equals the number of
  returned futures, and no more frames were shed than returned.

``NoShedPolicy`` keeps every frame at the full iteration budget, so a
result is comparable with the reference decode bit for bit.
"""

import threading
import time
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.accel.bench import generate_traffic
from repro.codes import wimax_code
from repro.decoder import decode_many
from repro.errors import (
    ServeError,
    ServeTimeoutError,
    ServiceClosedError,
    ShardDeadError,
)
from repro.serve.pool import DecodeService
from repro.serve.shedding import NoShedPolicy

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]

MAX_ITER = 10
MAX_REPLICAS = 3
CODE = wimax_code("1/2", 576)
FRAMES = generate_traffic(CODE, 6, 4.0, seed=11)
REFERENCE = decode_many(CODE, np.stack(FRAMES), max_iterations=MAX_ITER)


def _worker_threads() -> set:
    return {
        t for t in threading.enumerate()
        if t.name.startswith("decode-worker-") and t.is_alive()
    }


class ServiceLifecycleMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.before = _worker_threads()
        self.service = DecodeService(
            CODE, batch_size=4, max_iterations=MAX_ITER, queue_capacity=8,
            shed_policy=NoShedPolicy(), max_strikes=2,
            restart_backoff_s=0.005, restart_backoff_cap_s=0.02,
        )
        self.closed = False
        self.futures: List[Tuple[int, object, List[int]]] = []

    @rule(frame=st.integers(0, len(FRAMES) - 1))
    def submit(self, frame: int) -> None:
        self._submit(frame)

    @rule(frames=st.lists(st.integers(0, len(FRAMES) - 1), min_size=5,
                          max_size=12))
    def submit_burst(self, frames: List[int]) -> None:
        """More frames back to back than an engine has slots (4), so a
        worker takes a batch of them from its queue in one hand-off
        and leaves the rest queued behind a rung doorbell."""
        for frame in frames:
            self._submit(frame)

    def _submit(self, frame: int) -> None:
        if self.closed:
            with pytest.raises(ServiceClosedError):
                self.service.submit(FRAMES[frame])
            return
        try:
            future = self.service.submit(FRAMES[frame])
        except ServeError:
            return  # queue full or no live replica: refused, typed
        calls: List[int] = []
        future.add_done_callback(lambda _f: calls.append(1))
        self.futures.append((frame, future, calls))

    @precondition(lambda self: self.service.group_size(CODE.name)
                  < MAX_REPLICAS)
    @rule()
    def add_shard(self) -> None:
        if self.closed:
            with pytest.raises(ServiceClosedError):
                self.service.add_shard()
            return
        self.service.add_shard()

    @rule(drain=st.booleans())
    def remove_shard(self, drain: bool) -> None:
        try:
            self.service.remove_shard(drain=drain, timeout=30.0)
        except ServeTimeoutError:
            raise
        except ServeError:
            pass  # the last live replica of the group stays

    @precondition(lambda self: not self.closed)
    @rule()
    def inject_worker_crash(self) -> None:
        try:
            key = self.service.inject_worker_crash()
        except ServeError:
            return  # no healthy replica left to crash
        # wait for the supervisor to take the crash (restart or strike
        # out), so repeated crashes can strike a replica out
        before = self.service.health().shards[key].restarts
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            shard = self.service.health().shards[key]
            if shard.restarts > before or not shard.healthy:
                return
            time.sleep(0.001)
        raise AssertionError(f"crash of {key!r} was never handled")

    @rule()
    def close(self) -> None:
        self.service.close(wait=True)
        self.closed = True
        self.check_closed_service()

    @invariant()
    def queue_fill_is_a_fraction(self) -> None:
        assert 0.0 <= self.service.queue_fill() <= 1.0

    def check_closed_service(self) -> None:
        assert _worker_threads() <= self.before
        for frame, future, calls in self.futures:
            assert future.done()
            exc = future.exception()
            if exc is None:
                bits = future.result().result.bits
                assert np.array_equal(bits, REFERENCE.bits[frame])
            else:
                assert isinstance(exc, ServeError), repr(exc)
            assert len(calls) == 1
        snap = self.service.metrics.snapshot()
        assert snap.frames_out + snap.frames_errored == len(self.futures)
        assert snap.frames_shed <= len(self.futures)

    def teardown(self) -> None:
        if not self.closed:
            self.close()


TestServiceLifecycle = ServiceLifecycleMachine.TestCase
TestServiceLifecycle.settings = settings(
    max_examples=100,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_a_group_whose_last_dead_replica_was_removed_refuses_typed():
    # the machine's first find: two crashes strike the only replica out,
    # removing it empties the group, and routing raised IndexError
    service = DecodeService(
        CODE, batch_size=4, max_strikes=2, restart_backoff_s=0.005,
        restart_backoff_cap_s=0.02,
    )
    try:
        (key,) = service.shard_keys
        for _ in range(2):
            service.inject_worker_crash(key)
            deadline = time.monotonic() + 10.0
            strikes = service.health().shards[key].strikes
            while (service.health().shards[key].strikes == strikes
                   and time.monotonic() < deadline):
                time.sleep(0.001)
        assert not service.health().shards[key].healthy
        service.remove_shard(drain=False)
        with pytest.raises(ShardDeadError):
            service.submit(FRAMES[0])
    finally:
        service.close()
