"""Observability must not change results, and must cost ~nothing off.

Three guarantees pinned here:

* attaching a :class:`TraceRecorder` (enabled or disabled) to any
  decode path leaves the decoded bits, iteration counts, and LLRs
  bit-identical to an uninstrumented decode;
* a disabled recorder adds <5% wall time to the hot decode loop;
* the serving metrics facade and the fault-campaign counters report
  exactly the values the backing registry exposes (the refactor onto
  :class:`MetricsRegistry` is value-preserving).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.decoder import LayeredMinSumDecoder, decode, decode_many
from repro.faults import FaultCampaign
from repro.obs import MetricsRegistry, TraceRecorder
from repro.serve import (
    BatchLayeredMinSumDecoder,
    ContinuousBatchingEngine,
    DecodeJob,
    DecodeService,
    ServeMetrics,
)
from tests.conftest import noisy_frame


def _frames(code, count, ebno_db=2.5, seed=100):
    return np.stack(
        [noisy_frame(code, ebno_db, seed=seed + i)[1] for i in range(count)]
    )


class TestTracingIsSideEffectFree(object):
    @pytest.mark.parametrize("fixed", [False, True])
    def test_per_frame_decoder_identical(self, wimax_short, fixed):
        llrs = _frames(wimax_short, 1)[0]
        plain = LayeredMinSumDecoder(wimax_short, fixed=fixed).decode(llrs)
        for recorder in (TraceRecorder(), TraceRecorder(enabled=False)):
            traced = LayeredMinSumDecoder(
                wimax_short, fixed=fixed, recorder=recorder
            ).decode(llrs)
            np.testing.assert_array_equal(traced.bits, plain.bits)
            np.testing.assert_array_equal(traced.llrs, plain.llrs)
            assert traced.iterations == plain.iterations
            assert traced.converged == plain.converged

    @pytest.mark.parametrize("fixed", [False, True])
    def test_batch_decoder_identical(self, wimax_short, fixed):
        llrs = _frames(wimax_short, 6)
        plain = BatchLayeredMinSumDecoder(wimax_short, fixed=fixed).decode(llrs)
        traced = BatchLayeredMinSumDecoder(
            wimax_short, fixed=fixed, recorder=TraceRecorder()
        ).decode(llrs)
        np.testing.assert_array_equal(traced.bits, plain.bits)
        np.testing.assert_array_equal(traced.llrs, plain.llrs)
        np.testing.assert_array_equal(traced.iterations, plain.iterations)

    def test_api_decode_identical(self, wimax_short):
        llrs = _frames(wimax_short, 4)
        rec = TraceRecorder()
        one = decode(wimax_short, llrs[0], recorder=rec)
        np.testing.assert_array_equal(
            one.bits, decode(wimax_short, llrs[0]).bits
        )
        many = decode_many(wimax_short, llrs, recorder=rec)
        np.testing.assert_array_equal(
            many.bits, decode_many(wimax_short, llrs).bits
        )
        names = {r.name for r in rec.records()}
        assert "decode.layer" in names
        assert "batch.layer" in names

    def test_expected_span_names_recorded(self, wimax_short):
        rec = TraceRecorder()
        LayeredMinSumDecoder(wimax_short, recorder=rec).decode(
            _frames(wimax_short, 1)[0]
        )
        names = {r.name for r in rec.records()}
        assert {"decode.layer", "decode.iteration", "decode.frame"} <= names
        frame_spans = rec.by_name("decode.frame")
        assert len(frame_spans) == 1
        layers = rec.by_name("decode.layer")
        assert len(layers) % wimax_short.num_layers == 0

    @pytest.mark.accel
    @pytest.mark.parametrize("fixed", [False, True])
    def test_fused_kernel_span_parity_with_batch(self, wimax_short, fixed):
        # tooling keyed on span names (layer profile, obs-report) must
        # see the same "batch.layer" spans whether the kernel runs a
        # static batch or is stepped by the engine; in both, "batch"
        # is the width actually iterated
        llrs = _frames(wimax_short, 4)
        rec = TraceRecorder()
        BatchLayeredMinSumDecoder(
            wimax_short, max_iterations=1, fixed=fixed, recorder=rec
        ).decode(llrs)
        static = rec.by_name("batch.layer")

        rec = TraceRecorder()
        engine = ContinuousBatchingEngine(
            wimax_short, batch_size=16, max_iterations=1, fixed=fixed,
            recorder=rec,
        )
        for row in llrs:
            engine.admit(DecodeJob(llrs=row))
        engine.step()
        stepped = rec.by_name("batch.layer")

        assert static and len(stepped) == len(static)
        for a, b in zip(static, stepped):
            assert set(a.label_dict) == set(b.label_dict)
            assert a.label_dict["layer"] == b.label_dict["layer"]
            assert a.label_dict["batch"] == b.label_dict["batch"] == 4
            assert a.label_dict["mode"] == b.label_dict["mode"]
            assert a.label_dict["mode"] == ("fixed" if fixed else "float")


def _median_overhead(baseline, candidate, reps=11, per_rep=None):
    """Median of per-rep candidate/baseline wall-time ratios.

    Each rep times both callables back to back, so machine-load drift
    hits numerator and denominator alike; the median discards outlier
    reps (this suite runs inside VMs with double-digit scheduler
    jitter).
    """
    ratios = []
    for _ in range(reps):
        t0 = time.perf_counter()
        baseline()
        t_base = time.perf_counter() - t0
        if per_rep is not None:
            per_rep()
        t0 = time.perf_counter()
        candidate()
        ratios.append((time.perf_counter() - t0) / t_base)
    ratios.sort()
    return ratios[len(ratios) // 2]


def _assert_overhead_below(baseline, candidate, bound, per_rep=None,
                           attempts=3):
    """Overhead bound with retry: a real regression fails every attempt,
    a one-off load spike does not."""
    medians = []
    for _ in range(attempts):
        median = _median_overhead(baseline, candidate, per_rep=per_rep)
        if median <= bound:
            return
        medians.append(median)
    raise AssertionError(
        f"median overhead ratio exceeded {bound} in every attempt: "
        f"{medians}"
    )


class TestDisabledOverhead(object):
    def test_disabled_recorder_under_five_percent(self, wimax_short):
        llrs = _frames(wimax_short, 8)
        plain = BatchLayeredMinSumDecoder(wimax_short)
        disabled = BatchLayeredMinSumDecoder(
            wimax_short, recorder=TraceRecorder(enabled=False)
        )
        plain.decode(llrs)
        disabled.decode(llrs)
        _assert_overhead_below(
            lambda: plain.decode(llrs), lambda: disabled.decode(llrs), 1.05
        )

    @pytest.mark.accel
    @pytest.mark.obs
    def test_enabled_recorder_under_ten_percent_on_fused(self, wimax_short):
        # an *enabled* (non-exporting) recorder on the fused batch
        # kernel: per-layer complete() calls are the whole cost, and the
        # span count is batch-size independent, so a large batch
        # amortizes them against real decode work
        llrs = _frames(wimax_short, 64)
        plain = BatchLayeredMinSumDecoder(wimax_short)
        recorder = TraceRecorder(capacity=1 << 16)
        traced = BatchLayeredMinSumDecoder(wimax_short, recorder=recorder)
        plain.decode(llrs)
        traced.decode(llrs)
        _assert_overhead_below(
            lambda: plain.decode(llrs),
            lambda: traced.decode(llrs),
            1.10,
            per_rep=recorder.clear,
        )
        traced.decode(llrs)
        assert recorder.by_name("batch.layer")


class TestEngineAndPoolEvents(object):
    def test_engine_emits_slot_lifecycle(self, wimax_short):
        rec = TraceRecorder()
        engine = ContinuousBatchingEngine(
            wimax_short, batch_size=4, recorder=rec
        )
        jobs = [DecodeJob(llrs=f) for f in _frames(wimax_short, 6)]
        engine.run(jobs)
        names = [r.name for r in rec.records()]
        assert names.count("engine.admit") == 6
        assert names.count("engine.retire") == 6
        # one engine.step span per kernel call, labelled with the
        # iterations it ran; one batch.layer span per layer of each
        steps = rec.by_name("engine.step")
        iterations = sum(s.label_dict["iterations"] for s in steps)
        assert iterations == engine.metrics.snapshot().engine_steps
        assert names.count("batch.layer") == (
            iterations * wimax_short.num_layers)
        retire = rec.by_name("engine.retire")[0]
        assert {"slot", "job", "converged", "iterations"} <= set(
            retire.label_dict
        )

    @pytest.mark.serve
    def test_pool_emits_enqueue_and_dispatch(self, wimax_short):
        rec = TraceRecorder()
        frames = _frames(wimax_short, 4, ebno_db=3.5)
        with DecodeService(
            wimax_short, batch_size=2, queue_capacity=16, recorder=rec
        ) as svc:
            futures = [svc.submit(f) for f in frames]
            for f in futures:
                f.result(timeout=60)
        names = [r.name for r in rec.records()]
        assert names.count("pool.enqueue") == 4
        assert names.count("pool.dispatch") == 4
        assert names.count("engine.retire") == 4


class TestMetricsParity(object):
    def test_serve_metrics_match_registry(self, wimax_short):
        metrics = ServeMetrics()
        engine = ContinuousBatchingEngine(
            wimax_short, batch_size=4, metrics=metrics
        )
        engine.run([DecodeJob(llrs=f) for f in _frames(wimax_short, 10)])
        snap = metrics.snapshot()
        reg = metrics.registry
        assert snap.frames_in == reg.get("serve_frames_in").value() == 10
        assert snap.frames_out == reg.get("serve_frames_out").value() == 10
        assert snap.frames_converged == reg.get(
            "serve_frames_converged"
        ).value()
        assert snap.engine_steps == reg.get("serve_engine_steps").value()
        assert snap.slot_iterations == reg.get(
            "serve_slot_iterations"
        ).value()
        lat = reg.get("serve_latency_seconds")
        assert lat.count() == snap.frames_out
        assert snap.mean_latency_s == pytest.approx(lat.mean())
        occ = reg.get("serve_occupancy_ratio")
        assert snap.mean_occupancy == pytest.approx(occ.mean())

    def test_serve_metrics_prometheus_carries_counts(self, wimax_short):
        metrics = ServeMetrics()
        engine = ContinuousBatchingEngine(
            wimax_short, batch_size=2, metrics=metrics
        )
        engine.run([DecodeJob(llrs=f) for f in _frames(wimax_short, 3)])
        out = metrics.registry.render_prometheus()
        assert "serve_frames_in_total 3" in out
        assert "serve_latency_seconds_count 3" in out

    @pytest.mark.faults
    def test_campaign_counters_match_registry(self, wimax_short):
        registry = MetricsRegistry()
        campaign = FaultCampaign(
            wimax_short,
            sites=("llr",),
            rates=(1e-3,),
            frames_per_cell=4,
            seed=3,
            registry=registry,
        )
        result = campaign.run()
        frames = registry.get("faults_frames")
        errors = registry.get("faults_frame_errors")
        injections = registry.get("faults_injections")
        for cell in result.baselines + result.cells:
            labels = {"site": cell.site, "rate": f"{cell.rate:g}"}
            assert frames.value(**labels) == cell.frames
            assert errors.value(**labels) == cell.frame_errors
            assert injections.value(**labels) == cell.injections

    @pytest.mark.faults
    def test_campaign_without_registry_unchanged(self, wimax_short):
        base = FaultCampaign(
            wimax_short, sites=("llr",), rates=(1e-3,), frames_per_cell=3,
            seed=5,
        ).run()
        observed = FaultCampaign(
            wimax_short, sites=("llr",), rates=(1e-3,), frames_per_cell=3,
            seed=5, registry=MetricsRegistry(), recorder=TraceRecorder(),
        ).run()
        for a, b in zip(base.baselines + base.cells,
                        observed.baselines + observed.cells):
            assert a == b

    @pytest.mark.faults
    def test_campaign_injector_events_traced(self, wimax_short):
        rec = TraceRecorder()
        FaultCampaign(
            wimax_short, sites=("llr",), rates=(1e-2,), frames_per_cell=3,
            seed=3, recorder=rec,
        ).run()
        cells = rec.by_name("campaign.cell")
        assert len(cells) == 1
        assert cells[0].label_dict["site"] == "llr"
        hits = rec.by_name("fault.inject")
        assert hits
        assert hits[0].label_dict["site"] == "llr"
