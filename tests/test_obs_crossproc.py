"""Cross-process telemetry: worker spans, metrics, and logs in the parent.

The process shard backend runs a whole engine in a child process; its
spans, step counters, and log records must come back over the result
channel and land in the *parent's* recorder / registry / event log as
if the work had been local — shard-labelled, clock-offset-corrected,
and attributed to the worker pid in the Chrome trace.  Unit tests pin
the wire format and the merge arithmetic; integration tests drive a
real ``backend="process"`` service.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import TraceRecorder
from repro.obs.log import EventLog
from repro.obs.slo import default_serve_slos
from repro.obs.trace import records_from_wire, records_to_wire
from repro.serve import DecodeService, ServeMetrics
from tests.conftest import noisy_frame

pytestmark = [pytest.mark.obs, pytest.mark.accel]


def _frames(code, count, ebno_db=3.0, seed=50):
    return [
        noisy_frame(code, ebno_db, seed=seed + i)[1] for i in range(count)
    ]


class TestWireFormat(object):
    def test_roundtrip_preserves_records(self):
        rec = TraceRecorder()
        with rec.span("outer", shard="x"):
            with rec.span("inner", layer=3):
                pass
        rec.event("tick", n=1)
        records = rec.records()
        back = records_from_wire(records_to_wire(records))
        assert len(back) == len(records)
        for a, b in zip(back, records):
            assert a.name == b.name
            assert a.start_s == b.start_s and a.end_s == b.end_s
            assert a.span_id == b.span_id and a.parent_id == b.parent_id
            assert a.label_dict == b.label_dict

    def test_wire_is_plain_picklable_data(self):
        import pickle

        rec = TraceRecorder()
        with rec.span("s", k="v"):
            pass
        wire = records_to_wire(rec.records())
        assert pickle.loads(pickle.dumps(wire)) == wire


class TestMerge(object):
    def test_merge_applies_offset_labels_and_pid(self):
        child = TraceRecorder()
        with child.span("engine.step", batch=4):
            pass
        parent = TraceRecorder()
        with parent.span("parent.work"):
            pass
        shipped = child.drain()
        merged = parent.merge(
            shipped,
            time_offset_s=5.0,
            extra_labels={"shard": "a", "backend": "process"},
            process_id=4242,
        )
        assert merged == 1
        assert child.records() == []  # drain emptied the child buffer
        step = parent.by_name("engine.step")[0]
        assert step.start_s == pytest.approx(shipped[0].start_s + 5.0)
        assert step.end_s == pytest.approx(shipped[0].end_s + 5.0)
        assert step.label_dict["shard"] == "a"
        assert step.label_dict["backend"] == "process"
        assert step.label_dict["batch"] == 4
        assert step.process_id == 4242
        # the local span is untouched
        assert parent.by_name("parent.work")[0].process_id == 0

    def test_merge_remaps_span_ids_without_collision(self):
        child = TraceRecorder()
        with child.span("c.outer"):
            with child.span("c.inner"):
                pass
        parent = TraceRecorder()
        with parent.span("p.span"):
            pass
        parent.merge(child.drain(), time_offset_s=0.0)
        ids = [r.span_id for r in parent.records()]
        assert len(ids) == len(set(ids))
        inner = parent.by_name("c.inner")[0]
        outer = parent.by_name("c.outer")[0]
        assert inner.parent_id == outer.span_id  # hierarchy preserved

    def test_wall_epoch_offset_aligns_clocks(self):
        a, b = TraceRecorder(), TraceRecorder()
        # the recorders started at different perf_counter instants, but
        # wall_epoch anchors both to the shared wall clock
        offset = b.wall_epoch() - a.wall_epoch()
        with b.span("on.b"):
            pass
        span = b.records()[0]
        a.merge([span], time_offset_s=offset)
        merged = a.by_name("on.b")[0]
        wall_a = a.wall_epoch() + merged.start_s
        wall_b = b.wall_epoch() + span.start_s
        assert wall_a == pytest.approx(wall_b, abs=0.05)


class TestProcessServiceTelemetry(object):
    @pytest.mark.timeout(120)
    def test_child_spans_metrics_and_logs_reach_parent(self, wimax_short):
        recorder = TraceRecorder()
        log = EventLog(recorder=recorder)
        monitor = default_serve_slos(p99_latency_s=120.0)
        service = DecodeService(
            wimax_short,
            batch_size=4,
            backend="process",
            recorder=recorder,
            log=log,
            slo=monitor,
        )
        try:
            futures = [
                service.submit(f, timeout=None)
                for f in _frames(wimax_short, 6)
            ]
            done = [f.result(timeout=60) for f in futures]
            health = service.health()
        finally:
            service.close()

        assert all(d.result.converged for d in done)

        # worker spans arrived, shard-labelled and pid-attributed
        worker = [r for r in recorder.records() if r.process_id != 0]
        assert worker, "no child-process spans were merged"
        names = {r.name for r in worker}
        assert "engine.step" in names
        assert "batch.layer" in names
        for rec in worker:
            assert rec.label_dict["backend"] == "process"
            assert rec.label_dict["shard"] == wimax_short.name
        pids = {r.process_id for r in worker}
        assert len(pids) == 1

        # worker counters were folded into the parent registry
        reg = service.metrics.registry
        assert reg.get("serve_engine_steps").value() > 0
        assert reg.get("serve_slot_iterations").value() > 0
        assert reg.get("serve_occupancy_ratio").count() > 0

        # worker log records were shipped and shard-stamped
        events = [r.event for r in log.records()]
        assert "procpool.spawn" in events
        assert "procpool.child_start" in events
        start = log.records(event="procpool.child_start")[0]
        assert start.fields["shard"] == wimax_short.name
        assert start.fields["pid"] in pids

        # the SLO verdicts rode along on health()
        assert health.slo is not None
        by_name = {v.rule.name: v for v in health.slo.verdicts}
        assert by_name["serve_latency_p99"].status == "pass"
        assert by_name["serve_crash_rate"].status == "pass"

    @pytest.mark.timeout(120)
    def test_chrome_trace_has_worker_process_row(self, wimax_short, tmp_path):
        recorder = TraceRecorder()
        service = DecodeService(
            wimax_short, batch_size=4, backend="process", recorder=recorder
        )
        try:
            futures = [
                service.submit(f, timeout=None)
                for f in _frames(wimax_short, 4)
            ]
            for f in futures:
                f.result(timeout=60)
        finally:
            service.close()

        doc = recorder.to_chrome_trace()
        rows = {
            ev["pid"]: ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "process_name"
        }
        assert rows.get(1) == "main"
        worker_rows = [
            name for pid, name in rows.items() if pid != 1
        ]
        assert len(worker_rows) == 1
        assert worker_rows[0].startswith(f"worker-{wimax_short.name}")
        worker_pid = next(pid for pid in rows if pid != 1)
        child_events = [
            ev for ev in doc["traceEvents"]
            if ev.get("ph") == "X" and ev["pid"] == worker_pid
        ]
        assert child_events
        path = tmp_path / "trace.json"
        recorder.write_chrome_trace(str(path))
        assert path.stat().st_size > 0

    @pytest.mark.timeout(120)
    def test_process_results_identical_to_thread(self, wimax_short):
        frames = _frames(wimax_short, 5)
        outputs = {}
        for backend in ("thread", "process"):
            recorder = TraceRecorder()
            service = DecodeService(
                wimax_short, batch_size=4, backend=backend, recorder=recorder
            )
            try:
                futures = [service.submit(f, timeout=None) for f in frames]
                done = [f.result(timeout=60) for f in futures]
            finally:
                service.close()
            outputs[backend] = done
        for a, b in zip(outputs["thread"], outputs["process"]):
            np.testing.assert_array_equal(a.result.bits, b.result.bits)
            assert a.result.iterations == b.result.iterations


class TestOffsetClamp(object):
    """A stale child flush must never shift spans to negative time."""

    def _stub(self, recorder):
        from repro.accel.procpool import ProcessEngineProxy

        class Stub(object):
            pass

        stub = Stub()
        stub.recorder = recorder
        stub.metrics = ServeMetrics()
        stub.log = None
        stub._shard_label = "s0"
        stub.batch_size = 4
        return ProcessEngineProxy._merge_telemetry.__get__(stub)

    def test_stale_child_epoch_clamps_to_zero(self):
        child = TraceRecorder()
        with child.span("engine.step", batch=2):
            pass
        parent = TraceRecorder()
        merge = self._stub(parent)
        # a child forked before this parent recorder existed (shard
        # restart swapped a fresh one in): naive offset would be < 0
        merge({
            "spans": records_to_wire(child.drain()),
            "wall_epoch": parent.wall_epoch() - 5.0,
            "pid": 4242, "steps": 0, "slot_iterations": 0,
        })
        step = parent.by_name("engine.step")[0]
        assert step.start_s >= 0.0
        assert step.end_s >= step.start_s
        # Chrome's viewer silently drops negative-ts events; the export
        # must keep the span visible
        events = [
            ev for ev in parent.to_chrome_trace()["traceEvents"]
            if ev.get("ph") == "X"
        ]
        assert events and all(ev["ts"] >= 0 for ev in events)

    def test_normal_offset_still_applies(self):
        parent = TraceRecorder()
        child = TraceRecorder()
        with child.span("engine.step", batch=2):
            pass
        shipped = child.drain()
        merge = self._stub(parent)
        merge({
            "spans": records_to_wire(shipped),
            "wall_epoch": parent.wall_epoch() + 3.0,
            "pid": 4242, "steps": 0, "slot_iterations": 0,
        })
        step = parent.by_name("engine.step")[0]
        assert step.start_s == pytest.approx(shipped[0].start_s + 3.0)
