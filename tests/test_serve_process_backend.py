"""Process-backed decode service: isolation, kill-resilience, strike-out.

The thread-backend resilience suite (``test_serve_resilience.py``)
injects crashes by monkeypatching engine internals; the process backend
gets the real thing — ``SIGKILL`` to the worker process — because hard
fault isolation is the backend's reason to exist.  The supervision
contract must be identical: every future resolves (result or typed
error), killed workers respawn under backoff, and repeated deaths
without forward progress strike the shard out.

Every test is wall-clock bounded: the regression mode of a supervision
bug is a hang, and ``pytest-timeout`` (or the conftest shim) turns that
into a failure.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.accel.procpool import ProcessEngineProxy
from repro.decoder import ColumnLayeredMinSumDecoder, LayeredMinSumDecoder
from repro.errors import (
    DecodingError,
    EngineFullError,
    ServeError,
    ShardDeadError,
    WorkerProcessError,
)
from repro.serve import DecodeJob, DecodeService, NoShedPolicy
from tests.test_serve_batch import traffic

pytestmark = [pytest.mark.serve, pytest.mark.accel]

FAST = dict(restart_backoff_s=0.01, restart_backoff_cap_s=0.05)


def _shard(svc):
    return next(iter(svc._shards.values()))


def _wait_for(predicate, timeout_s=30.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


def _stuck_frames(code, count, seed):
    """Garbage LLRs that never converge: decodes run their full budget."""
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, 0.3, code.n) for _ in range(count)]


def _assert_bit_exact(reference, frames, results):
    """Every service result equals the per-frame reference decode."""
    for llrs, done in zip(frames, results):
        ref = reference.decode(llrs)
        np.testing.assert_array_equal(done.result.bits, ref.bits)
        np.testing.assert_array_equal(done.result.llrs, ref.llrs)
        assert done.result.iterations == ref.iterations
        assert done.result.converged == ref.converged
        assert done.result.iteration_syndromes == ref.iteration_syndromes


def _kill_child(shard):
    """SIGKILL the shard's current worker process (must be spawned)."""
    proc = shard.engine._proc
    assert proc is not None, "child process not spawned yet"
    os.kill(proc.pid, signal.SIGKILL)


class TestProcessBackendSmoke:
    @pytest.mark.timeout(120)
    def test_decodes_bit_exactly_and_closes_cleanly(self, wimax_short):
        reference = LayeredMinSumDecoder(wimax_short, fixed=True)
        frames = traffic(wimax_short, 10, seed=70)
        svc = DecodeService(
            wimax_short, batch_size=4, fixed=True,
            backend="process",
            shed_policy=NoShedPolicy(), **FAST,
        )
        with svc:
            futures = [svc.submit(f, timeout=None) for f in frames]
            results = [f.result(timeout=60) for f in futures]
        _assert_bit_exact(reference, frames, results)
        # clean close shut the worker process down, not just the thread
        assert not _shard(svc).engine.process_alive

    @pytest.mark.timeout(120)
    def test_rejects_bad_backend_name(self, wimax_short):
        with pytest.raises(ServeError, match="backend"):
            DecodeService(wimax_short, backend="fibers")

    @pytest.mark.timeout(120)
    def test_column_schedule_decodes_bit_exactly(self, wimax_short):
        """The child engine runs the schedule the service was built with."""
        reference = ColumnLayeredMinSumDecoder(wimax_short, fixed=True)
        frames = traffic(wimax_short, 8, seed=71)
        svc = DecodeService(
            wimax_short, batch_size=4, fixed=True,
            backend="process", schedule="column",
            shed_policy=NoShedPolicy(), **FAST,
        )
        with svc:
            futures = [svc.submit(f, timeout=None) for f in frames]
            results = [f.result(timeout=60) for f in futures]
        _assert_bit_exact(reference, frames, results)


class TestProcessKillResilience:
    @pytest.mark.timeout(180)
    def test_kill_fails_in_flight_futures_then_recovers(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=4, max_iterations=500,
            backend="process", max_strikes=3, **FAST,
        )
        shard = _shard(svc)
        try:
            futures = [
                svc.submit(f, timeout=None)
                for f in _stuck_frames(wimax_short, 2, seed=1)
            ]
            _wait_for(
                lambda: shard.engine._proc is not None
                and shard.engine.in_flight > 0,
                what="child spawn + admission",
            )
            _kill_child(shard)
            # every in-flight future fails fast with the typed error
            for f in futures:
                with pytest.raises(WorkerProcessError):
                    f.result(timeout=60)
            assert shard.strikes == 1
            # the supervisor restarted the shard: it decodes again, and
            # the successful completion clears the strike counter
            good = traffic(wimax_short, 1, seed=2, ebno_range=(4.0, 4.0))[0]
            assert svc.decode(good, timeout=90).result.converged
            _wait_for(lambda: shard.strikes == 0, what="strike reset")
            assert shard.restarts >= 1
        finally:
            svc.close(wait=True)

    @pytest.mark.timeout(300)
    def test_repeated_kills_strike_the_shard_out(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=4, max_iterations=500,
            backend="process", max_strikes=3, **FAST,
        )
        shard = _shard(svc)
        try:
            for strike in range(1, 4):
                futures = [
                    svc.submit(f, timeout=None)
                    for f in _stuck_frames(wimax_short, 2, seed=strike)
                ]
                _wait_for(
                    lambda: shard.engine._proc is not None
                    and shard.engine.in_flight > 0,
                    what=f"spawn before strike {strike}",
                )
                _kill_child(shard)
                for f in futures:
                    with pytest.raises(WorkerProcessError):
                        f.result(timeout=60)
                assert shard.strikes == strike
            # three kills with zero completed frames: out of service
            _wait_for(lambda: not shard.healthy, what="shard strike-out")
            assert svc.health().status == "dead"
            with pytest.raises(ShardDeadError):
                svc.submit(_stuck_frames(wimax_short, 1, seed=9)[0])
        finally:
            svc.close(wait=True)


class TestProcessEngineProxy:
    @pytest.mark.timeout(120)
    def test_validates_before_spawning(self, wimax_short):
        proxy = ProcessEngineProxy(wimax_short, batch_size=2)
        try:
            bad = DecodeJob(llrs=np.zeros(7))
            with pytest.raises(DecodingError, match="LLR length"):
                proxy.admit(bad)
            assert not proxy.process_alive  # no child for a rejected job
            assert proxy.in_flight == 0 and proxy.free_slots == 2
        finally:
            proxy.shutdown()

    def test_rejects_bad_kernel_and_batch_size(self, wimax_short):
        # one batch kernel: there is no kernel selector left to pass
        with pytest.raises(TypeError, match="kernel"):
            ProcessEngineProxy(wimax_short, kernel="warp")
        with pytest.raises(DecodingError, match="batch_size"):
            ProcessEngineProxy(wimax_short, batch_size=0)
        with pytest.raises(DecodingError, match="schedule"):
            ProcessEngineProxy(wimax_short, schedule="diagonal")

    @pytest.mark.timeout(120)
    def test_full_proxy_rejects_admission(self, wimax_short):
        proxy = ProcessEngineProxy(wimax_short, batch_size=1)
        rng = np.random.default_rng(3)
        try:
            proxy.admit(DecodeJob(llrs=rng.normal(0.0, 0.3, wimax_short.n)))
            with pytest.raises(EngineFullError):
                proxy.admit(DecodeJob(llrs=rng.normal(size=wimax_short.n)))
        finally:
            proxy.shutdown()

    @pytest.mark.timeout(120)
    def test_shutdown_is_idempotent_and_final(self, wimax_short):
        proxy = ProcessEngineProxy(wimax_short, batch_size=2)
        proxy.shutdown()
        proxy.shutdown()  # second call is a no-op
        with pytest.raises(WorkerProcessError, match="shut down"):
            proxy.admit(DecodeJob(llrs=np.zeros(wimax_short.n)))

    @pytest.mark.timeout(120)
    def test_roundtrip_results_match_reference(self, wimax_short):
        reference = LayeredMinSumDecoder(wimax_short)
        frames = traffic(wimax_short, 4, seed=42)
        proxy = ProcessEngineProxy(wimax_short, batch_size=2)
        done = []
        try:
            pending = [DecodeJob(llrs=f) for f in frames]
            while pending or proxy.in_flight:
                while pending and proxy.free_slots:
                    proxy.admit(pending.pop(0))
                done.extend(proxy.step())
        finally:
            proxy.shutdown()
        assert len(done) == len(frames)
        by_id = {d.job_id: d for d in done}
        jobs_in_order = sorted(by_id)
        for llrs, job_id in zip(frames, jobs_in_order):
            ref = reference.decode(llrs)
            res = by_id[job_id].result
            np.testing.assert_array_equal(res.bits, ref.bits)
            np.testing.assert_array_equal(res.llrs, ref.llrs)
            assert res.iterations == ref.iterations
