"""Worker-pool decode service: sharding, backpressure, shutdown."""

import sys
import threading

import numpy as np
import pytest

from repro.codes import wimax_code
from repro.decoder import LayeredMinSumDecoder
from repro.errors import (
    QueueFullError,
    ServeError,
    ServiceClosedError,
)
from repro.obs import TraceRecorder
from repro.serve import DecodeService, NoShedPolicy
from tests.test_serve_batch import traffic

pytestmark = pytest.mark.serve


class TestServiceRoundTrip:
    def test_results_match_direct_decode(self, wimax_short):
        frames = traffic(wimax_short, 8, seed=31)
        with DecodeService(wimax_short, batch_size=4, queue_capacity=16) as svc:
            futures = [svc.submit(f) for f in frames]
            results = [f.result(timeout=60) for f in futures]
        for frame, done in zip(frames, results):
            ref = LayeredMinSumDecoder(wimax_short).decode(frame)
            np.testing.assert_array_equal(done.result.bits, ref.bits)
            assert done.result.iterations == ref.iterations
            assert done.latency_s >= 0.0

    def test_sync_decode_helper(self, wimax_short):
        frame = traffic(wimax_short, 1, seed=32, ebno_range=(4.0, 4.0))[0]
        with DecodeService(wimax_short, batch_size=2) as svc:
            done = svc.decode(frame, timeout=60)
        assert done.result.converged

    def test_fixed_mode_service(self, wimax_short):
        frame = traffic(wimax_short, 1, seed=33, ebno_range=(4.0, 4.0))[0]
        with DecodeService(wimax_short, batch_size=2, fixed=True) as svc:
            done = svc.decode(frame, timeout=60)
        ref = LayeredMinSumDecoder(wimax_short, fixed=True).decode(frame)
        np.testing.assert_array_equal(done.result.bits, ref.bits)


class TestSharding:
    def test_mixed_rate_traffic_routes_by_key(self):
        half = wimax_code("1/2", 576)
        three_quarter = wimax_code("3/4A", 576)
        codes = {"1/2": half, "3/4A": three_quarter}
        with DecodeService(codes, batch_size=4, queue_capacity=32) as svc:
            assert svc.shard_keys == ["1/2", "3/4A"]
            futures = [
                svc.submit(f, code_key="1/2")
                for f in traffic(half, 6, seed=34, ebno_range=(3.0, 4.0))
            ]
            futures += [
                svc.submit(f, code_key="3/4A")
                for f in traffic(three_quarter, 6, seed=35, ebno_range=(4.0, 5.0))
            ]
            results = [f.result(timeout=60) for f in futures]
        assert len(results) == 12
        assert all(len(d.result.bits) == 576 for d in results)

    def test_routing_by_unique_length(self):
        codes = {
            "short": wimax_code("1/2", 576),
            "long": wimax_code("1/2", 1152),
        }
        with DecodeService(codes, batch_size=2) as svc:
            frame = traffic(codes["long"], 1, seed=36, ebno_range=(4.0, 4.0))[0]
            done = svc.decode(frame, timeout=60)  # no key: length is unique
        assert len(done.result.bits) == 1152
        assert done.job.code_key == "long"

    def test_ambiguous_routing_rejected(self):
        codes = {
            "a": wimax_code("1/2", 576),
            "b": wimax_code("3/4A", 576),  # same length, different rate
        }
        svc = DecodeService(codes, batch_size=2, autostart=False)
        with pytest.raises(ServeError):
            svc.submit(np.zeros(576))
        svc.close()

    def test_unknown_key_rejected(self, wimax_short):
        svc = DecodeService(wimax_short, batch_size=2, autostart=False)
        with pytest.raises(ServeError):
            svc.submit(np.zeros(wimax_short.n), code_key="nope")
        svc.close()


class TestBackpressure:
    def test_queue_full_rejection(self, wimax_short):
        # autostart=False: nothing drains, so the bounded queue must trip
        svc = DecodeService(
            wimax_short, batch_size=2, queue_capacity=3, autostart=False
        )
        frames = traffic(wimax_short, 4, seed=37)
        for f in frames[:3]:
            svc.submit(f)
        with pytest.raises(QueueFullError):
            svc.submit(frames[3])
        assert svc.metrics.snapshot().frames_rejected == 1
        svc.close()

    def test_queued_work_drains_after_start(self, wimax_short):
        svc = DecodeService(
            wimax_short, batch_size=2, queue_capacity=8, autostart=False
        )
        futures = [svc.submit(f) for f in traffic(wimax_short, 4, seed=38)]
        svc.start()
        results = [f.result(timeout=60) for f in futures]
        svc.close(wait=True)
        assert len(results) == 4
        assert svc.metrics.snapshot().frames_out == 4

    def test_a_queued_burst_fills_every_free_slot_in_one_take(
            self, wimax_short):
        """Frames queued before the worker starts reach the engine as
        one take of as many frames as it has free slots, and the rest
        follow as slots free up."""
        rec = TraceRecorder()
        svc = DecodeService(
            wimax_short, batch_size=4, queue_capacity=10, autostart=False,
            recorder=rec, shed_policy=NoShedPolicy(),
        )
        frames = traffic(wimax_short, 10, seed=39)
        futures = [svc.submit(f) for f in frames]
        svc.start()
        results = [f.result(timeout=60) for f in futures]
        svc.close(wait=True)
        assert rec.by_name("engine.step")[0].label_dict["busy"] == 4
        for frame, done in zip(frames, results):
            ref = LayeredMinSumDecoder(wimax_short).decode(frame)
            np.testing.assert_array_equal(done.result.bits, ref.bits)
            assert done.result.iteration_syndromes == ref.iteration_syndromes

    def test_invalid_capacity_rejected(self, wimax_short):
        with pytest.raises(ServeError):
            DecodeService(wimax_short, queue_capacity=0, autostart=False)


class TestShutdown:
    def test_close_drains_in_flight_work(self, wimax_short):
        svc = DecodeService(wimax_short, batch_size=2, queue_capacity=16)
        futures = [svc.submit(f) for f in traffic(wimax_short, 6, seed=39)]
        svc.close(wait=True)  # must not strand queued frames
        assert all(f.done() for f in futures)
        assert svc.metrics.snapshot().frames_out == 6

    def test_submit_after_close_raises(self, wimax_short):
        svc = DecodeService(wimax_short, batch_size=2)
        svc.close(wait=True)
        with pytest.raises(ServiceClosedError):
            svc.submit(np.zeros(wimax_short.n))

    def test_close_unstarted_service_fails_queued_futures(self, wimax_short):
        svc = DecodeService(wimax_short, batch_size=2, autostart=False)
        future = svc.submit(traffic(wimax_short, 1, seed=40)[0])
        svc.close()
        with pytest.raises(ServiceClosedError):
            future.result(timeout=5)

    def test_bad_frame_fails_only_its_future(self, wimax_short):
        with DecodeService(wimax_short, batch_size=2) as svc:
            bad = svc.submit(np.zeros(10))  # wrong length; caught at admit
            good = svc.submit(
                traffic(wimax_short, 1, seed=41, ebno_range=(4.0, 4.0))[0]
            )
            assert good.result(timeout=60).result.converged
            with pytest.raises(Exception):
                bad.result(timeout=60)

    def test_shared_metrics_across_shards(self):
        codes = {
            "1/2": wimax_code("1/2", 576),
            "3/4A": wimax_code("3/4A", 576),
        }
        with DecodeService(codes, batch_size=2) as svc:
            f1 = svc.submit(
                traffic(codes["1/2"], 1, seed=42, ebno_range=(4.0, 4.0))[0],
                code_key="1/2",
            )
            f2 = svc.submit(
                traffic(codes["3/4A"], 1, seed=43, ebno_range=(5.0, 5.0))[0],
                code_key="3/4A",
            )
            f1.result(timeout=60)
            f2.result(timeout=60)
        assert svc.metrics.snapshot().frames_out == 2


class TestHandOffStress:
    def test_many_submitters_lose_no_frame_and_no_ring(self, wimax_short):
        """Eight submitter threads (more than cores) push frames through
        a queue of four into an engine of two slots, with a short switch
        interval so the shard lock, the doorbell and the worker's takes
        interleave often.  A lost ring or a lost append would leave a
        future unresolved past its timeout; a double take would resolve
        one twice or decode a frame twice."""
        frames = traffic(wimax_short, 6, seed=44, ebno_range=(3.0, 4.0))
        refs = [LayeredMinSumDecoder(wimax_short).decode(f) for f in frames]
        per_thread, threads_n = 12, 8
        results = [[] for _ in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with DecodeService(wimax_short, batch_size=2, queue_capacity=4,
                               shed_policy=NoShedPolicy()) as svc:

                def submit_all(k):
                    for i in range(per_thread):
                        f = (k + i) % len(frames)
                        results[k].append((f, svc.submit(frames[f],
                                                         timeout=None)))

                threads = [threading.Thread(target=submit_all, args=(k,))
                           for k in range(threads_n)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                for row in results:
                    for f, future in row:
                        done = future.result(timeout=60)
                        np.testing.assert_array_equal(done.result.bits,
                                                      refs[f].bits)
                        assert (done.result.iteration_syndromes
                                == refs[f].iteration_syndromes)
        finally:
            sys.setswitchinterval(interval)
        snap = svc.metrics.snapshot()
        total = per_thread * threads_n
        assert snap.frames_in == snap.frames_out == total
        assert snap.frames_rejected == snap.frames_errored == 0
        assert svc.health().shards[svc.shard_keys[0]].queue_depth == 0
