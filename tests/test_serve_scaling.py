"""Elastic shard-pool tests: runtime add/remove, drain semantics, fill.

The load-bearing claim is continuity: shards can join and leave a
*running* service without a single in-flight or queued frame being
decoded wrongly — drained removals finish their backlog, undrained
removals fail it fast with a typed error, and the last replica of a
group can never be taken away.
"""

import numpy as np
import pytest

from repro.accel.bench import generate_traffic
from repro.decoder import decode_many
from repro.errors import ServeError, ServiceClosedError, ShardDeadError
from repro.serve.pool import DecodeService

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]

MAX_ITER = 12


@pytest.fixture()
def service(small_code):
    svc = DecodeService(
        small_code, batch_size=4, max_iterations=MAX_ITER, queue_capacity=32
    )
    yield svc
    svc.close()


class TestAddShard:
    def test_keys_are_sequenced_per_group(self, service):
        group = list(service.groups)[0]
        assert service.add_shard() == f"{group}#1"
        assert service.add_shard(group) == f"{group}#2"
        assert service.group_size(group) == 3
        assert service.groups[group] == [group, f"{group}#1", f"{group}#2"]

    def test_keys_never_reused_after_removal(self, service):
        group = list(service.groups)[0]
        first = service.add_shard()
        service.remove_shard(key=first)
        assert service.add_shard() == f"{group}#2"

    def test_new_shard_serves_live_traffic(self, service, small_code):
        traffic = generate_traffic(small_code, 16, 4.0, seed=11)
        before = [service.submit(f, timeout=None) for f in traffic[:8]]
        key = service.add_shard()
        # route directly at the newcomer: it must decode, not just exist
        after = [
            service.submit(f, code_key=key, timeout=None) for f in traffic[8:]
        ]
        results = [f.result(timeout=60) for f in before + after]
        reference = decode_many(
            small_code, np.stack(traffic), max_iterations=MAX_ITER
        )
        for i, done in enumerate(results):
            np.testing.assert_array_equal(done.result.bits, reference.bits[i])

    def test_unknown_group_rejected(self, service):
        with pytest.raises(ServeError, match="unknown shard group"):
            service.add_shard("nope")

    def test_closed_service_refuses_growth(self, small_code):
        svc = DecodeService(small_code, batch_size=2)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.add_shard()

    def test_shard_gauge_tracks_replicas(self, service):
        group = list(service.groups)[0]
        gauge = service.metrics.registry.get("serve_shards")
        assert gauge.value(group=group) == 1
        service.add_shard()
        assert gauge.value(group=group) == 2
        service.remove_shard(group=group)
        assert gauge.value(group=group) == 1


class TestRemoveShard:
    def test_group_removal_takes_newest_replica(self, service):
        group = list(service.groups)[0]
        newest = service.add_shard()
        assert service.remove_shard(group=group) == newest
        assert service.shard_keys == [group]

    def test_last_replica_is_protected(self, service):
        group = list(service.groups)[0]
        with pytest.raises(ServeError, match="last replica"):
            service.remove_shard(group=group)
        assert service.group_size(group) == 1

    def test_unknown_key_rejected(self, service):
        with pytest.raises(ServeError, match="unknown shard key"):
            service.remove_shard(key="ghost#9")

    def test_drained_removal_finishes_backlog(self, small_code):
        # park a backlog on a specific replica of an unstarted service,
        # then start and immediately remove it with drain=True: every
        # queued frame must still resolve with a correct decode
        svc = DecodeService(
            small_code, batch_size=4, max_iterations=MAX_ITER,
            queue_capacity=32, autostart=False,
        )
        try:
            victim = svc.add_shard()
            traffic = generate_traffic(small_code, 6, 4.0, seed=13)
            futures = [
                svc.submit(f, code_key=victim, timeout=None) for f in traffic
            ]
            svc.start()
            removed = svc.remove_shard(key=victim, drain=True, timeout=60)
            assert removed == victim
            reference = decode_many(
                small_code, np.stack(traffic), max_iterations=MAX_ITER
            )
            for i, future in enumerate(futures):
                done = future.result(timeout=60)
                np.testing.assert_array_equal(
                    done.result.bits, reference.bits[i]
                )
        finally:
            svc.close()

    def test_undrained_removal_fails_backlog_fast(self, small_code):
        svc = DecodeService(
            small_code, batch_size=4, max_iterations=MAX_ITER,
            queue_capacity=32, autostart=False,
        )
        try:
            victim = svc.add_shard()
            traffic = generate_traffic(small_code, 4, 4.0, seed=17)
            futures = [
                svc.submit(f, code_key=victim, timeout=None) for f in traffic
            ]
            svc.remove_shard(key=victim, drain=False)
            for future in futures:
                with pytest.raises(ShardDeadError):
                    future.result(timeout=10)
            # the survivor is untouched and still routable
            assert svc.group_size(list(svc.groups)[0]) == 1
        finally:
            svc.close()

    def test_service_survives_scaling_churn(self, service, small_code):
        # interleave decode traffic with grow/shrink events; bits stay
        # exact throughout
        traffic = generate_traffic(small_code, 18, 4.0, seed=19)
        futures = [service.submit(f, timeout=None) for f in traffic[:6]]
        service.add_shard()
        futures += [service.submit(f, timeout=None) for f in traffic[6:12]]
        service.add_shard()
        service.remove_shard(group=list(service.groups)[0], drain=True,
                             timeout=60)
        futures += [service.submit(f, timeout=None) for f in traffic[12:]]
        reference = decode_many(
            small_code, np.stack(traffic), max_iterations=MAX_ITER
        )
        for i, future in enumerate(futures):
            done = future.result(timeout=60)
            np.testing.assert_array_equal(done.result.bits, reference.bits[i])


class TestQueueFill:
    def test_fill_reflects_queued_frames(self, small_code):
        svc = DecodeService(
            small_code, batch_size=4, queue_capacity=4, autostart=False
        )
        try:
            key = list(svc.groups)[0]
            assert svc.queue_fill() == 0.0
            frame = generate_traffic(small_code, 1, 4.0, seed=23)[0]
            svc.submit(frame, timeout=None)
            svc.submit(frame, timeout=None)
            assert svc.queue_fill(key) == pytest.approx(0.5)
        finally:
            svc.close()

    def test_group_fill_is_mean_over_replicas(self, small_code):
        svc = DecodeService(
            small_code, batch_size=4, queue_capacity=4, autostart=False
        )
        try:
            group = list(svc.groups)[0]
            other = svc.add_shard()
            frame = generate_traffic(small_code, 1, 4.0, seed=23)[0]
            for _ in range(2):
                svc.submit(frame, code_key=other, timeout=None)
            # one replica at 0.5, one at 0.0 -> group mean 0.25
            assert svc.queue_fill(group) == pytest.approx(0.25)
        finally:
            svc.close()

    def test_unknown_key_rejected(self, service):
        with pytest.raises(ServeError, match="unknown code_key"):
            service.queue_fill("nope")
