"""Unit tests for the span/event trace recorder."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import NULL_SPAN, TraceRecorder


class TestSpans(object):
    def test_span_records_duration(self):
        rec = TraceRecorder()
        with rec.span("work"):
            time.sleep(0.002)
        records = rec.records()
        assert len(records) == 1
        span = records[0]
        assert span.name == "work"
        assert span.kind == "span"
        assert span.duration_s >= 0.002

    def test_nesting_sets_parent_and_depth(self):
        rec = TraceRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        inner, outer = rec.records()  # inner commits first (exits first)
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1
        assert outer.parent_id is None
        assert outer.depth == 0

    def test_event_attaches_to_enclosing_span(self):
        rec = TraceRecorder()
        with rec.span("outer", job="j1"):
            rec.event("tick", n=3)
        event, outer = rec.records()
        assert event.kind == "event"
        assert event.parent_id == outer.span_id
        assert event.duration_s == 0.0
        assert event.label_dict == {"n": 3}
        assert outer.label_dict == {"job": "j1"}

    def test_complete_records_explicit_start(self):
        rec = TraceRecorder()
        t0 = time.perf_counter()
        time.sleep(0.002)
        rec.complete("hot", t0, layer=4)
        (span,) = rec.records()
        assert span.duration_s >= 0.002
        assert span.label_dict == {"layer": 4}

    def test_span_ids_are_unique(self):
        rec = TraceRecorder()
        for _ in range(5):
            with rec.span("s"):
                pass
        ids = [r.span_id for r in rec.records()]
        assert len(set(ids)) == 5


class TestDisabled(object):
    def test_disabled_span_is_null_singleton(self):
        rec = TraceRecorder(enabled=False)
        assert rec.span("x") is NULL_SPAN
        with rec.span("x"):
            pass
        rec.event("y")
        rec.complete("z", time.perf_counter())
        assert len(rec) == 0

    def test_enable_disable_toggle(self):
        rec = TraceRecorder(enabled=False)
        rec.enable()
        with rec.span("a"):
            pass
        rec.disable()
        with rec.span("b"):
            pass
        assert [r.name for r in rec.records()] == ["a"]


class TestRingBuffer(object):
    def test_eviction_counts_dropped(self):
        rec = TraceRecorder(capacity=4)
        for i in range(10):
            rec.event(f"e{i}")
        assert len(rec) == 4
        assert rec.dropped == 6
        assert [r.name for r in rec.records()] == ["e6", "e7", "e8", "e9"]

    def test_complete_spans_nest_label_and_count_evictions(self):
        rec = TraceRecorder(capacity=4)
        rec.event("e0")
        t0 = time.perf_counter()
        clock = [10.0, 10.5, 11.0, 11.5, 12.0]  # another clock's readings
        with rec.span("outer"):
            rec.complete_spans(
                "part", clock,
                [(i, i + 1, (("i", i),)) for i in range(4)],
                offset=t0 - 10.0,
            )
        assert len(rec) == 4
        assert rec.dropped == 2  # e0 and the first part; outer is last
        parts = rec.by_name("part")
        outer = rec.by_name("outer")[0]
        assert [dict(p.labels)["i"] for p in parts] == [1, 2, 3]
        assert len({p.span_id for p in parts} | {outer.span_id}) == 4
        assert all(p.parent_id == outer.span_id for p in parts)
        assert all(p.depth == 1 for p in parts)
        assert parts[0].start_s == pytest.approx(t0 + 0.5 - rec.epoch)
        assert parts[0].end_s - parts[0].start_s == pytest.approx(0.5)
        assert [r.name for r in rec.records()] == ["part"] * 3 + ["outer"]
        TraceRecorder(enabled=False).complete_spans("part", clock,
                                                    [(0, 1, ())])

    def test_clear_resets_everything(self):
        rec = TraceRecorder(capacity=2)
        for _ in range(5):
            rec.event("e")
        rec.clear()
        assert len(rec) == 0
        assert rec.dropped == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)


class TestAggregation(object):
    def test_summary_groups_by_name(self):
        rec = TraceRecorder()
        for _ in range(3):
            with rec.span("a"):
                pass
        rec.event("b")
        summary = rec.summary()
        assert summary["a"]["count"] == 3
        assert summary["b"]["count"] == 1
        assert summary["a"]["total_s"] >= 0.0

    def test_report_mentions_names_and_drops(self):
        rec = TraceRecorder(capacity=1)
        rec.event("only")
        rec.event("only")
        text = rec.report()
        assert "only" in text
        assert "dropped" in text

    def test_empty_report(self):
        assert "(no records)" in TraceRecorder().report()

    def test_by_name_filters(self):
        rec = TraceRecorder()
        rec.event("a")
        rec.event("b")
        assert [r.name for r in rec.by_name("a")] == ["a"]


class TestChromeTrace(object):
    def test_event_schema(self):
        rec = TraceRecorder()
        with rec.span("s", layer=1):
            rec.event("e")
        obj = rec.to_chrome_trace()
        events = obj["traceEvents"]
        phases = sorted(e["ph"] for e in events)
        assert phases == ["M", "M", "X", "i"]  # thread_name + process_name
        span = next(e for e in events if e["ph"] == "X")
        assert span["name"] == "s"
        assert span["args"] == {"layer": 1}
        assert span["dur"] >= 0.0
        meta = {e["name"]: e for e in events if e["ph"] == "M"}
        assert set(meta) == {"thread_name", "process_name"}
        assert meta["process_name"]["args"]["name"] == "main"
        json.dumps(obj)  # must be serializable

    def test_write_chrome_trace(self, tmp_path):
        rec = TraceRecorder()
        rec.event("e")
        path = tmp_path / "trace.json"
        rec.write_chrome_trace(str(path))
        obj = json.loads(path.read_text())
        assert any(e["ph"] == "i" for e in obj["traceEvents"])

    def test_threads_get_distinct_rows(self):
        rec = TraceRecorder()
        rec.event("main")

        def worker():
            rec.event("worker")

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        obj = rec.to_chrome_trace()
        tids = {e["tid"] for e in obj["traceEvents"] if e["ph"] == "i"}
        assert len(tids) == 2
