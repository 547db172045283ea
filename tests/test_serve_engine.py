"""Continuous-batching engine: slot reuse, retirement, edge cases."""

import dataclasses

import numpy as np
import pytest

from repro.decoder import LayeredMinSumDecoder
from repro.errors import DecodingError, EngineFullError
from repro.serve import ContinuousBatchingEngine, DecodeJob, ServeMetrics
from tests.test_serve_batch import traffic

pytestmark = pytest.mark.serve


class TestEngineBasics:
    def test_run_empty_job_list(self, wimax_short):
        engine = ContinuousBatchingEngine(wimax_short, batch_size=4)
        assert engine.run([]) == []
        assert engine.in_flight == 0
        assert engine.metrics.snapshot().frames_in == 0

    def test_step_with_no_frames_is_noop(self, wimax_short):
        engine = ContinuousBatchingEngine(wimax_short, batch_size=4)
        assert engine.step() == []
        assert engine.metrics.snapshot().engine_steps == 0

    def test_single_slot_engine(self, wimax_short):
        frames = traffic(wimax_short, 3, seed=21, ebno_range=(3.0, 4.0))
        engine = ContinuousBatchingEngine(wimax_short, batch_size=1)
        done = engine.run([DecodeJob(llrs=f) for f in frames])
        assert len(done) == 3
        for d, f in zip(done, frames):
            ref = LayeredMinSumDecoder(wimax_short).decode(f)
            np.testing.assert_array_equal(d.result.bits, ref.bits)
            assert d.result.iterations == ref.iterations

    def test_results_in_submission_order(self, wimax_short):
        frames = traffic(wimax_short, 10, seed=22)
        jobs = [DecodeJob(llrs=f) for f in frames]
        engine = ContinuousBatchingEngine(wimax_short, batch_size=3)
        done = engine.run(jobs)
        assert [d.job_id for d in done] == [j.job_id for j in jobs]

    def test_accepts_raw_arrays(self, wimax_short):
        frames = traffic(wimax_short, 2, seed=23)
        done = ContinuousBatchingEngine(wimax_short, batch_size=2).run(frames)
        assert len(done) == 2


class TestEngineEdgeCases:
    def test_all_frames_undecodable_hit_budget(self, wimax_short):
        """Hopeless frames retire at max_iterations, not never."""
        frames = traffic(wimax_short, 5, seed=24, ebno_range=(-6.0, -5.0))
        engine = ContinuousBatchingEngine(
            wimax_short, batch_size=2, max_iterations=3
        )
        done = engine.run([DecodeJob(llrs=f) for f in frames])
        assert len(done) == 5
        assert all(not d.result.converged for d in done)
        assert all(d.result.iterations == 3 for d in done)
        assert all(d.result.syndrome_weight > 0 for d in done)
        snap = engine.metrics.snapshot()
        assert snap.frames_failed == 5
        assert snap.iterations_saved == 0

    def test_admit_beyond_capacity_raises(self, wimax_short):
        frames = traffic(wimax_short, 3, seed=25)
        engine = ContinuousBatchingEngine(wimax_short, batch_size=2)
        engine.admit(DecodeJob(llrs=frames[0]))
        engine.admit(DecodeJob(llrs=frames[1]))
        assert engine.free_slots == 0
        with pytest.raises(EngineFullError):
            engine.admit(DecodeJob(llrs=frames[2]))
        engine.drain()
        assert engine.free_slots == 2

    def test_bad_frame_length_rejected(self, wimax_short):
        engine = ContinuousBatchingEngine(wimax_short, batch_size=2)
        with pytest.raises(DecodingError):
            engine.admit(DecodeJob(llrs=np.zeros(wimax_short.n + 1)))
        assert engine.in_flight == 0

    def test_invalid_batch_size_rejected(self, wimax_short):
        with pytest.raises(DecodingError):
            ContinuousBatchingEngine(wimax_short, batch_size=0)

    def test_slot_reuse_after_retirement(self, wimax_short):
        """A retired slot must be reusable with fully reset state."""
        clean = traffic(wimax_short, 1, seed=26, ebno_range=(5.0, 5.0))[0]
        engine = ContinuousBatchingEngine(wimax_short, batch_size=1)
        first = engine.run([DecodeJob(llrs=clean)])[0]
        assert first.result.converged
        # same frame again through the same (now stale) slot
        second = engine.run([DecodeJob(llrs=clean)])[0]
        np.testing.assert_array_equal(first.result.bits, second.result.bits)
        assert first.result.iterations == second.result.iterations


class TestEngineMetrics:
    def test_counts_and_occupancy(self, wimax_short):
        frames = traffic(wimax_short, 12, seed=27, ebno_range=(2.5, 4.0))
        metrics = ServeMetrics()
        engine = ContinuousBatchingEngine(
            wimax_short, batch_size=4, metrics=metrics
        )
        done = engine.run([DecodeJob(llrs=f) for f in frames])
        snap = metrics.snapshot()
        assert snap.frames_in == 12
        assert snap.frames_out == 12
        assert snap.frames_converged == sum(d.result.converged for d in done)
        assert snap.engine_steps > 0
        assert 0.0 < snap.mean_occupancy <= 1.0
        assert snap.slot_iterations == sum(d.result.iterations for d in done)
        assert snap.p99_latency_s >= snap.p50_latency_s >= 0.0
        assert snap.throughput_fps > 0

    @pytest.mark.parametrize("capacity", [3, 16])
    def test_a_k_iteration_record_equals_k_single_records(self, capacity):
        """A step records its iterations with one update per instrument;
        the snapshot, registry and Prometheus text match one record per
        iteration, float sums included (1/3 is not exact)."""
        batched, single = ServeMetrics(), ServeMetrics()
        for busy, k in [(1, 4), (capacity, 1), (2, 7), (1, 10), (3, 3)]:
            busy = min(busy, capacity)
            batched.step_recorded(busy, capacity, k)
            for _ in range(k):
                single.step_recorded(busy, capacity, 1)

        def steady(snap):   # the clock-derived fields differ by design
            return dataclasses.replace(snap, elapsed_s=0.0,
                                       throughput_fps=0.0)

        assert steady(batched.snapshot()) == steady(single.snapshot())
        assert batched.snapshot().engine_steps == 25
        assert batched.registry.to_dict() == single.registry.to_dict()
        assert (batched.registry.render_prometheus()
                == single.registry.render_prometheus())

    def test_a_k_frame_retirement_equals_k_single_records(self):
        """A step records the frames it retired with one update per
        instrument; the snapshot, registry and Prometheus text match one
        record per frame, and one record per frame matches the
        instrument calls a frame used to make on its own (mixed
        converged and failed frames and budgets, a first step with no
        converged frame, latency sums of inexact floats)."""
        steps = [
            [(False, 10, 10, 0.1), (False, 4, 4, 1 / 3)],
            [(True, 3, 10, 1 / 3), (False, 10, 10, 0.7), (True, 7, 7, 2 / 3)],
            [(True, 1, 5, 1e-4)],
            [(True, 2, 10, 1 / 7), (False, 6, 6, 2.5), (True, 4, 9, 0.3)],
        ]
        batched, single, by_hand = ServeMetrics(), ServeMetrics(), ServeMetrics()
        for frames in steps:
            converged = sum(c for c, _, _, _ in frames)
            saved = sum(b - it for c, it, b, _ in frames if c)
            batched.frames_retired(converged, len(frames) - converged, saved,
                                   [lat for _, _, _, lat in frames])
            for c, it, b, lat in frames:
                single.frames_retired(int(c), int(not c), b - it if c else 0,
                                      [lat])
                by_hand.frames_out.inc()
                if c:
                    by_hand.frames_converged.inc()
                    by_hand.iterations_saved.inc(max(0, b - it))
                else:
                    by_hand.frames_failed.inc()
                by_hand.latency.observe(lat)
            assert batched.registry.to_dict() == by_hand.registry.to_dict()

        def steady(snap):   # the clock-derived fields differ by design
            return dataclasses.replace(snap, elapsed_s=0.0,
                                       throughput_fps=0.0)

        snap = steady(batched.snapshot())
        assert snap.frames_out == 9 and snap.frames_converged == 5
        assert snap.iterations_saved == 7 + 0 + 4 + 8 + 5
        for other in (single, by_hand):
            assert steady(other.snapshot()) == snap
            assert other.registry.to_dict() == batched.registry.to_dict()
            assert (other.registry.render_prometheus()
                    == batched.registry.render_prometheus())
        assert batched.latency.sum() == by_hand.latency.sum()

    def test_early_retirement_saves_iterations(self, wimax_short):
        frames = traffic(wimax_short, 8, seed=28, ebno_range=(4.5, 5.0))
        engine = ContinuousBatchingEngine(wimax_short, batch_size=4)
        engine.run([DecodeJob(llrs=f) for f in frames])
        snap = engine.metrics.snapshot()
        assert snap.frames_converged == 8
        assert snap.iterations_saved > 0

    def test_report_renders(self, wimax_short):
        engine = ContinuousBatchingEngine(wimax_short, batch_size=2)
        engine.run(traffic(wimax_short, 2, seed=29))
        text = engine.metrics.report()
        assert "frames in / out" in text
        assert "mean batch occupancy" in text
