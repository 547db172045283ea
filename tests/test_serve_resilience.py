"""Self-healing decode service: crashes, retries, deadlines, shedding.

Every test here is about the service's failure contract: a future
returned by ``submit`` ALWAYS resolves — with a result or a typed
error — no matter what dies underneath it.  The wall-clock limits from
``pytest-timeout`` (or the conftest fallback shim) turn any regression
into a failed test instead of a hung suite.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ServeTimeoutError,
    ServiceClosedError,
    ShardDeadError,
    TransientDecodeError,
)
from repro.serve import (
    ContinuousBatchingEngine,
    DecodeJob,
    DecodeService,
    NoShedPolicy,
    StepShedPolicy,
)
from repro.obs.log import EventLog
from repro.serve.pool import ServiceHealth, ShardHealth
from tests.test_serve_batch import traffic

pytestmark = pytest.mark.serve

FAST = dict(restart_backoff_s=0.01, restart_backoff_cap_s=0.05)


def _shard(svc):
    return next(iter(svc._shards.values()))


def _crash_engine(engine, exc_type=RuntimeError, message="injected crash"):
    """Make the engine's next iteration raise."""

    def boom(*args, **kwargs):
        raise exc_type(message)

    engine.kernel.iterate_once = boom


def _crash_forever(svc, exc_type=RuntimeError):
    """Every engine this shard ever builds crashes on its first step."""
    shard = _shard(svc)
    make = shard.make_engine

    def bad_engine():
        engine = make()
        _crash_engine(engine, exc_type)
        return engine

    shard.make_engine = bad_engine
    shard.engine = bad_engine()


class TestWorkerCrashRecovery:
    def test_crash_fails_pending_futures_fast_then_recovers(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=2, queue_capacity=16,
            autostart=False, **FAST
        )
        futures = [svc.submit(f) for f in traffic(wimax_short, 5, seed=50)]
        _crash_engine(_shard(svc).engine)
        svc.start()
        # every pre-crash future fails fast with a typed error that
        # chains the crash exception
        for f in futures:
            with pytest.raises(ServeError, match="injected crash") as info:
                f.result(timeout=10)
            assert isinstance(info.value.__cause__, RuntimeError)
        # the supervisor rebuilt the engine: the shard still serves
        good = traffic(wimax_short, 1, seed=51, ebno_range=(4.0, 4.0))[0]
        assert svc.decode(good, timeout=30).result.converged
        snap = svc.metrics.snapshot()
        assert snap.worker_crashes >= 1
        assert snap.worker_restarts >= 1
        assert snap.frames_errored >= len(futures)
        health = svc.health()
        assert health.status == "ok"  # strikes cleared by the good decode
        assert list(health.shards.values())[0].restarts >= 1
        svc.close(wait=True)

    def test_chaos_kill_mid_load_zero_hung_futures(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=4, queue_capacity=64,
            autostart=True, **FAST
        )
        futures = [svc.submit(f) for f in traffic(wimax_short, 12, seed=52)]
        _crash_engine(_shard(svc).engine)  # kill the live worker's engine
        futures += [svc.submit(f) for f in traffic(wimax_short, 12, seed=53)]
        outcomes = {"ok": 0, "failed": 0}
        for f in futures:
            # the contract under test: every future resolves, none hang
            try:
                f.result(timeout=30)
                outcomes["ok"] += 1
            except ServeError:
                outcomes["failed"] += 1
        assert outcomes["ok"] + outcomes["failed"] == 24
        assert outcomes["failed"] >= 1  # the crash really happened
        # when the crash lands after every submit, all futures fail fast
        # before the supervisor's restart backoff ends: wait for it
        deadline = time.monotonic() + 10
        while svc.metrics.snapshot().worker_restarts < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        snap = svc.metrics.snapshot()
        assert snap.worker_crashes >= 1 and snap.worker_restarts >= 1
        svc.close(wait=True)
        assert all(f.done() for f in futures)

    def test_strikeout_marks_shard_dead(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=2, queue_capacity=8,
            autostart=False, max_strikes=2, **FAST
        )
        _crash_forever(svc)
        future = svc.submit(traffic(wimax_short, 1, seed=54)[0])
        svc.start()
        with pytest.raises(ServeError) as info:
            future.result(timeout=10)
        assert isinstance(info.value.__cause__, RuntimeError)
        # a crash only happens while stepping work: wait for the restart,
        # then feed the shard its second (and final) strike
        deadline = time.monotonic() + 10
        while svc.metrics.snapshot().worker_restarts < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        second = svc.submit(traffic(wimax_short, 1, seed=55)[0])
        with pytest.raises(ServeError):  # the crash, or ShardDeadError
            second.result(timeout=10)
        shard = _shard(svc)
        shard.thread.join(timeout=10)  # supervisor gives up and exits
        assert not shard.thread.is_alive()
        assert not shard.healthy
        with pytest.raises(ShardDeadError):
            svc.submit(traffic(wimax_short, 1, seed=56)[0])
        health = svc.health()
        assert health.status == "dead"
        assert svc.metrics.snapshot().worker_crashes == 2
        svc.close(wait=True)

    def test_dead_worker_thread_rejects_submit(self, wimax_short):
        # satellite (b): a shard whose worker thread died must raise
        # ShardDeadError instead of enqueueing a never-resolving future
        svc = DecodeService(
            wimax_short, batch_size=2, autostart=False,
            max_strikes=1, **FAST
        )
        _crash_forever(svc)
        svc.start()
        future = svc.submit(traffic(wimax_short, 1, seed=56)[0])
        with pytest.raises(ServeError) as info:
            future.result(timeout=10)
        assert isinstance(info.value.__cause__, RuntimeError)
        _shard(svc).thread.join(timeout=10)
        with pytest.raises(ShardDeadError):
            svc.submit(traffic(wimax_short, 1, seed=57)[0])
        svc.close(wait=True)

    def test_two_injections_before_the_next_turn_are_one_crash(
        self, wimax_short
    ):
        log = EventLog()
        svc = DecodeService(
            wimax_short, batch_size=2, autostart=False, log=log, **FAST
        )
        key = svc.inject_worker_crash()
        assert svc.inject_worker_crash() == key  # no-op: one is pending
        svc.start()
        deadline = time.monotonic() + 10
        while svc.metrics.snapshot().worker_restarts < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        good = traffic(wimax_short, 1, seed=61, ebno_range=(4.0, 4.0))[0]
        assert svc.decode(good, timeout=30).result.converged
        events = [record.event for record in log.records()]
        assert events.count("pool.inject_crash") == 1
        assert events.count("pool.crash") == 1
        assert svc.metrics.snapshot().worker_restarts == 1
        assert svc.health().shards[key].restarts == 1
        svc.close(wait=True)

    def test_degraded_status_until_next_success(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=2, autostart=False,
            max_strikes=5, **FAST
        )
        future = svc.submit(traffic(wimax_short, 1, seed=58)[0])
        _crash_engine(_shard(svc).engine)
        svc.start()
        with pytest.raises(ServeError) as info:
            future.result(timeout=10)
        assert isinstance(info.value.__cause__, RuntimeError)
        deadline = time.monotonic() + 10
        while svc.health().status != "degraded":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        good = traffic(wimax_short, 1, seed=59, ebno_range=(4.0, 4.0))[0]
        svc.decode(good, timeout=30)
        assert svc.health().status == "ok"
        svc.close(wait=True)


class TestTransientRetry:
    def test_transient_fault_retried_to_success(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=2, autostart=False,
            default_max_retries=1, **FAST
        )
        good = traffic(wimax_short, 1, seed=60, ebno_range=(4.0, 4.0))[0]
        future = svc.submit(good)
        _crash_engine(_shard(svc).engine, TransientDecodeError, "soft upset")
        svc.start()
        # the transient path re-admits on a fresh engine: the caller
        # sees a result, not an error
        assert future.result(timeout=30).result.converged
        snap = svc.metrics.snapshot()
        assert snap.frames_retried == 1
        assert snap.worker_crashes == 0  # transient != crash
        assert svc.health().status == "ok"
        svc.close(wait=True)

    def test_retry_budget_exhaustion_fails_typed(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=2, autostart=False,
            default_max_retries=1, **FAST
        )
        _crash_forever(svc, TransientDecodeError)
        future = svc.submit(traffic(wimax_short, 1, seed=61)[0])
        svc.start()
        with pytest.raises(TransientDecodeError):
            future.result(timeout=30)
        snap = svc.metrics.snapshot()
        assert snap.frames_retried == 1  # one re-admission, then give up
        assert snap.frames_errored == 1
        svc.close(wait=True)

    def test_zero_retries_fails_immediately(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=2, autostart=False, **FAST
        )
        _crash_engine(_shard(svc).engine, TransientDecodeError)
        future = svc.submit(
            traffic(wimax_short, 1, seed=62)[0], max_retries=0
        )
        svc.start()
        with pytest.raises(TransientDecodeError):
            future.result(timeout=30)
        assert svc.metrics.snapshot().frames_retried == 0
        svc.close(wait=True)


class TestDeadlines:
    def test_expired_job_fails_without_decoding(self, wimax_short):
        svc = DecodeService(wimax_short, batch_size=2, autostart=False)
        future = svc.submit(
            traffic(wimax_short, 1, seed=63)[0], deadline_s=0.01
        )
        time.sleep(0.05)
        svc.start()
        with pytest.raises(DeadlineExceededError):
            future.result(timeout=10)
        snap = svc.metrics.snapshot()
        assert snap.frames_expired == 1
        assert snap.frames_in == 0  # never reached a decoder slot
        svc.close(wait=True)

    def test_unexpired_deadline_decodes_normally(self, wimax_short):
        with DecodeService(wimax_short, batch_size=2) as svc:
            good = traffic(wimax_short, 1, seed=64, ebno_range=(4.0, 4.0))[0]
            future = svc.submit(good, deadline_s=60.0)
            assert future.result(timeout=30).result.converged


class TestLoadShedding:
    def test_overload_sheds_iteration_budget(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=2, queue_capacity=10,
            max_iterations=10, autostart=False,
            shed_policy=StepShedPolicy(),
        )
        futures = [svc.submit(f) for f in traffic(wimax_short, 10, seed=65)]
        snap = svc.metrics.snapshot()
        assert snap.frames_shed == 2  # fills 0.8 and 0.9 crossed 0.75
        svc.start()
        done = [f.result(timeout=30) for f in futures]
        svc.close(wait=True)
        shed = [d for d in done if d.job.iteration_budget is not None]
        assert len(shed) == 2
        assert all(d.job.iteration_budget == 7 for d in shed)
        assert all(d.result.iterations <= 7 for d in shed)

    def test_no_shed_policy_never_sheds(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=2, queue_capacity=4,
            autostart=False, shed_policy=NoShedPolicy(),
        )
        for f in traffic(wimax_short, 4, seed=66):
            svc.submit(f)
        assert svc.metrics.snapshot().frames_shed == 0
        svc.start()
        svc.close(wait=True)

    def test_engine_honors_per_job_budget(self, wimax_short):
        engine = ContinuousBatchingEngine(
            wimax_short, batch_size=1, max_iterations=10
        )
        # hopeless frame (Eb/N0 = 0 dB): without the budget it would
        # burn all 10 iterations
        frame = traffic(wimax_short, 1, seed=67, ebno_range=(0.0, 0.0))[0]
        engine.admit(DecodeJob(llrs=frame, iteration_budget=1))
        done = engine.drain()
        assert len(done) == 1
        assert done[0].result.iterations == 1

    def test_step_policy_budgets(self):
        policy = StepShedPolicy()
        assert policy.budget(0.0, 10) == 10
        assert policy.budget(0.75, 10) == 10
        assert policy.budget(0.80, 10) == 7
        assert policy.budget(1.00, 10) == 5
        assert policy.budget(0.99, 4) == 2  # floor clamps 4*0.5 -> 2

    def test_step_policy_validation(self):
        with pytest.raises(ServeError):
            StepShedPolicy(steps=())
        with pytest.raises(ServeError):
            StepShedPolicy(steps=((0.9, 1.0), (0.5, 0.5)))  # not ascending
        with pytest.raises(ServeError):
            StepShedPolicy(steps=((0.5, 0.5),))  # does not reach 1.0
        with pytest.raises(ServeError):
            StepShedPolicy(steps=((1.0, 0.0),))  # zero budget fraction
        with pytest.raises(ServeError):
            StepShedPolicy(floor_iterations=0)


class TestBlockingSemantics:
    def test_decode_timeout_none_blocks_for_queue_space(self, wimax_short):
        # satellite (a): None = block for space, wait forever for result
        svc = DecodeService(
            wimax_short, batch_size=2, queue_capacity=1, autostart=False
        )
        svc.submit(traffic(wimax_short, 1, seed=68)[0])  # fill the queue
        good = traffic(wimax_short, 1, seed=69, ebno_range=(4.0, 4.0))[0]
        done = {}

        def blocked_decode():
            done["result"] = svc.decode(good, timeout=None)

        t = threading.Thread(target=blocked_decode, daemon=True)
        t.start()
        time.sleep(0.1)
        assert t.is_alive()  # parked waiting for queue space, not rejected
        svc.start()
        t.join(timeout=30)
        assert not t.is_alive()
        assert done["result"].result.converged
        svc.close(wait=True)

    def test_submit_timeout_zero_still_rejects(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=2, queue_capacity=1, autostart=False
        )
        svc.submit(traffic(wimax_short, 1, seed=70)[0], timeout=0.0)
        with pytest.raises(QueueFullError):
            svc.submit(traffic(wimax_short, 1, seed=71)[0], timeout=0.0)
        svc.close()

    def test_decode_finite_timeout_raises_typed(self, wimax_short):
        svc = DecodeService(wimax_short, batch_size=2, autostart=False)
        with pytest.raises(ServeTimeoutError):
            svc.decode(traffic(wimax_short, 1, seed=72)[0], timeout=0.05)
        svc.close()

    def test_submit_positive_timeout_on_a_full_queue_raises_typed(
            self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=2, queue_capacity=1, autostart=False
        )
        svc.submit(traffic(wimax_short, 1, seed=77)[0])
        t0 = time.monotonic()
        with pytest.raises(ServeTimeoutError):
            svc.submit(traffic(wimax_short, 1, seed=78)[0], timeout=0.05)
        assert time.monotonic() - t0 >= 0.05
        assert svc.metrics.snapshot().frames_rejected == 1
        assert svc.health().shards[svc.shard_keys[0]].queue_depth == 1
        svc.close()

    def test_submit_positive_timeout_waits_for_the_worker(self, wimax_short):
        """A submit that finds the queue full waits on the shard's lock
        until the worker's take frees space, then queues its frame."""
        svc = DecodeService(
            wimax_short, batch_size=2, queue_capacity=1, autostart=False
        )
        first = svc.submit(traffic(wimax_short, 1, seed=79)[0])
        good = traffic(wimax_short, 1, seed=80, ebno_range=(4.0, 4.0))[0]
        out = {}
        t = threading.Thread(
            target=lambda: out.setdefault("f", svc.submit(good, timeout=30.0)),
            daemon=True,
        )
        t.start()
        time.sleep(0.1)
        assert t.is_alive()   # waiting for room, not rejected
        svc.start()
        t.join(timeout=30)
        assert not t.is_alive()
        assert out["f"].result(timeout=30).result.converged
        assert first.result(timeout=30).result is not None
        assert svc.metrics.snapshot().frames_rejected == 0
        svc.close(wait=True)


class TestCancellationAndClose:
    def test_cancel_while_queued_is_skipped(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=2, queue_capacity=8, autostart=False
        )
        keep = svc.submit(
            traffic(wimax_short, 1, seed=73, ebno_range=(4.0, 4.0))[0]
        )
        drop = svc.submit(traffic(wimax_short, 1, seed=74)[0])
        assert drop.cancel()
        svc.start()
        assert keep.result(timeout=30).result.converged
        svc.close(wait=True)
        assert drop.cancelled()
        assert svc.metrics.snapshot().frames_out == 1

    def test_close_nowait_with_queued_work_still_resolves(self, wimax_short):
        svc = DecodeService(wimax_short, batch_size=2, queue_capacity=32)
        futures = [svc.submit(f) for f in traffic(wimax_short, 8, seed=75)]
        svc.close(wait=False)  # returns immediately; daemons keep draining
        for f in futures:
            assert f.result(timeout=30).result is not None
        assert all(f.done() for f in futures)

    def test_double_close_is_safe(self, wimax_short):
        svc = DecodeService(wimax_short, batch_size=2)
        svc.close(wait=True)
        svc.close(wait=True)
        svc.close(wait=False)
        assert svc.closed

    def test_close_never_started_fails_every_queued_future(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=2, queue_capacity=8, autostart=False
        )
        futures = [svc.submit(f) for f in traffic(wimax_short, 5, seed=81)]
        svc.close()
        for future in futures:
            with pytest.raises(ServiceClosedError):
                future.result(timeout=5)
        assert svc.metrics.snapshot().frames_errored == 5
        assert svc.health().shards[svc.shard_keys[0]].queue_depth == 0

    def test_close_unstarted_with_queue_and_nowait(self, wimax_short):
        svc = DecodeService(wimax_short, batch_size=2, autostart=False)
        future = svc.submit(traffic(wimax_short, 1, seed=76)[0])
        svc.close(wait=False)
        with pytest.raises(Exception):
            future.result(timeout=5)


class TestHealthApi:
    def test_healthy_snapshot_shape(self, wimax_short):
        with DecodeService(wimax_short, batch_size=2, queue_capacity=7) as svc:
            health = svc.health()
            assert isinstance(health, ServiceHealth)
            assert health.status == "ok"
            assert not health.closed
            (shard,) = health.shards.values()
            assert isinstance(shard, ShardHealth)
            assert shard.alive and shard.healthy
            assert shard.queue_capacity == 7
            assert shard.queue_depth == 0
            assert shard.in_flight == 0
            assert shard.restarts == 0 and shard.strikes == 0
            assert shard.last_error is None
        assert svc.health().closed

    def test_constructor_validation(self, wimax_short):
        with pytest.raises(ServeError):
            DecodeService(wimax_short, default_max_retries=-1, autostart=False)
        with pytest.raises(ServeError):
            DecodeService(wimax_short, max_strikes=0, autostart=False)
        with pytest.raises(ServeError):
            DecodeService(wimax_short, restart_backoff_s=0.0, autostart=False)
        with pytest.raises(ServeError):
            DecodeService(
                wimax_short, restart_backoff_s=1.0,
                restart_backoff_cap_s=0.5, autostart=False,
            )
