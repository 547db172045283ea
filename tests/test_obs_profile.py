"""Unit tests for the profiling views (layer wall time, arch stages)."""

from __future__ import annotations

import json
import time

import pytest

from repro.arch.config import ArchConfig
from repro.arch.perlayer import PerLayerArch
from repro.arch.scheduler_trace import ArchTrace
from repro.obs import (
    TraceRecorder,
    arch_chrome_trace,
    layer_profile,
    layer_profile_report,
    stage_profile,
    write_chrome_trace,
)


def _recorded_layers(layers=(0, 1), repeats=3):
    rec = TraceRecorder()
    for _ in range(repeats):
        for layer in layers:
            t0 = time.perf_counter()
            rec.complete("decode.layer", t0, layer=layer)
    return rec


class TestLayerProfile(object):
    def test_folds_by_layer_label(self):
        prof = layer_profile(_recorded_layers())
        assert set(prof) == {0, 1}
        assert prof[0]["count"] == 3
        assert prof[0]["mean_s"] == pytest.approx(
            prof[0]["total_s"] / 3
        )

    def test_missing_label_buckets_under_minus_one(self):
        rec = TraceRecorder()
        rec.complete("decode.layer", time.perf_counter())
        assert set(layer_profile(rec)) == {-1}

    def test_report_renders_every_layer(self):
        text = layer_profile_report(_recorded_layers(layers=(0, 1, 2)))
        for token in ("layer", "share", "0", "1", "2"):
            assert token in text

    def test_report_custom_span_name(self):
        rec = TraceRecorder()
        rec.complete("batch.layer", time.perf_counter(), layer=5)
        text = layer_profile_report(rec, span_name="batch.layer")
        assert "5" in text

    def test_empty_report(self):
        assert "(no decode.layer spans" in layer_profile_report(TraceRecorder())


class TestStageProfile(object):
    def test_busy_stall_decomposition(self):
        trace = ArchTrace()
        trace.add("core1", 0, 6)
        trace.add("core2", 4, 10)
        prof = stage_profile(trace)
        assert prof["core1"]["busy_cycles"] == 6.0
        assert prof["core1"]["stall_cycles"] == 4.0
        assert prof["core1"]["utilization"] == pytest.approx(0.6)
        assert prof["core2"]["stall_cycles"] == 4.0

    def test_real_arch_decode_stages(self, small_code, small_frame):
        _, llrs = small_frame
        arch = PerLayerArch(ArchConfig(small_code, max_iterations=4))
        out = arch.decode(llrs)
        prof = stage_profile(out.trace)
        assert prof
        for entry in prof.values():
            assert 0.0 <= entry["utilization"] <= 1.0
            assert entry["busy_cycles"] + entry["stall_cycles"] >= 0


class TestArchChromeTrace(object):
    def test_cycle_to_us_conversion(self):
        trace = ArchTrace()
        trace.add("core1", 0, 400, label="L0")
        obj = arch_chrome_trace(trace, clock_mhz=400.0)
        span = next(e for e in obj["traceEvents"] if e["ph"] == "X")
        assert span["ts"] == 0.0
        assert span["dur"] == pytest.approx(1.0)  # 400 cycles @ 400 MHz = 1 us
        assert span["name"] == "L0"

    def test_one_row_per_unit_with_metadata(self):
        trace = ArchTrace()
        trace.add("core1", 0, 2)
        trace.add("core2", 1, 3)
        obj = arch_chrome_trace(trace)
        meta = [e for e in obj["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"core1", "core2"}
        tids = {e["tid"] for e in obj["traceEvents"] if e["ph"] == "X"}
        assert len(tids) == 2

    def test_bad_clock_rejected(self):
        with pytest.raises(ValueError):
            arch_chrome_trace(ArchTrace(), clock_mhz=0.0)

    def test_write_chrome_trace_file(self, tmp_path):
        trace = ArchTrace()
        trace.add("core1", 0, 2)
        path = tmp_path / "arch.json"
        write_chrome_trace(arch_chrome_trace(trace), str(path))
        obj = json.loads(path.read_text())
        assert obj["traceEvents"]
