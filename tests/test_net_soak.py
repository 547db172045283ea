"""Soak-harness tests, ending with the issue's acceptance scenario.

The acceptance test is the whole PR in one run: >= 500 concurrent
connections across >= 3 tenants against a real TCP gateway, one worker
crash injected mid-peak, one tenant driven out of quota, the autoscaler
observed growing *and* shrinking the pool, the run finishing with every
SLO passing and zero decoded-payload mismatches against
``decode_many`` on the same wire-canonical LLRs.
"""

import functools
import json
import os

import pytest

from repro.net import SoakConfig, run_net_soak, soak
from repro.net.dedup import DedupWindow
from repro.net.soak import DEFAULT_TENANTS, _assign_tenants, _crash_at
from repro.serve.pool import DecodeService

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Config keys that became module constants, with the value now used.
RETIRED_KEYS = {
    "min_shards": soak.MIN_SHARDS,
    "scale_up_fill": soak.SCALE_UP_FILL,
    "scale_down_fill": soak.SCALE_DOWN_FILL,
    "autoscale_interval_s": soak.AUTOSCALE_INTERVAL_S,
    "cooldown_s": soak.COOLDOWN_S,
    "shrink_after": soak.SHRINK_AFTER,
    "slo_crash_rate": soak.SLO_CRASH_RATE,
    "dedup_ttl_s": DedupWindow().ttl_s,
    "backend": "thread",  # the one shard backend
}

pytestmark = [pytest.mark.net, pytest.mark.timeout(300)]


class TestConfig:
    def test_dict_roundtrip(self):
        cfg = SoakConfig(connections=80, seed=9, max_shards=4)
        clone = SoakConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_from_dict_ignores_unknown_keys(self):
        cfg = SoakConfig.from_dict({"connections": 7, "mystery_knob": 1})
        assert cfg.connections == 7

    def test_tenant_assignment_honours_shares(self):
        cfg = SoakConfig(connections=100)
        assignment = _assign_tenants(cfg)
        assert len(assignment) == 100
        counts = {t: assignment.count(t) for t in DEFAULT_TENANTS}
        assert counts["gold"] == 40
        assert counts["silver"] == 30
        assert counts["bronze"] == 20
        assert counts["free"] == 10

    def test_every_tenant_gets_a_connection(self):
        cfg = SoakConfig(connections=4)
        assert set(_assign_tenants(cfg)) == set(DEFAULT_TENANTS)

    @pytest.mark.parametrize(
        "name", ["BENCH_net.json", "BENCH_net_trace.json"]
    )
    def test_committed_baseline_reruns_exactly(self, name):
        with open(os.path.join(ROOT, name)) as handle:
            committed = json.load(handle)["config"]
        rerun = SoakConfig.from_dict(committed).to_dict()
        for key, value in committed.items():
            if key in rerun:
                assert rerun[key] == value, key
            elif key in RETIRED_KEYS:
                assert RETIRED_KEYS[key] == value, key
            else:
                # the batch-kernel selector, gone with the second kernel
                assert key == "kernel" and value == "fused"

    def test_crash_lands_mid_peak(self):
        cfg = SoakConfig()  # night 1.0s, peak 2.5s, evening 1.5s
        assert _crash_at(cfg) == pytest.approx(1.0 + 2.5 / 2)


class TestSmallSoak:
    def test_report_shape_and_verification(self, tmp_path):
        cfg = SoakConfig(
            connections=24,
            peak_frames_per_conn=4,
            phases=(("night", 0.2, 0.4), ("peak", 1.0, 1.2),
                    ("evening", 0.1, 0.6)),
            seed=1,
        )
        log_path = str(tmp_path / "soak.jsonl")
        trace_path = str(tmp_path / "soak_trace.json")
        report = run_net_soak(cfg, log_path=log_path, trace_path=trace_path)

        assert report["bench"] == "net"
        assert report["schema_version"] == 1
        assert report["n"] == 576
        assert report["config"] == cfg.to_dict()
        (mode,) = report["modes"]
        assert mode["mode"] == "net-gateway"
        assert mode["frames"] > 0
        assert mode["frames_per_s"] > 0
        assert report["verify"]["mismatches"] == 0
        assert report["verify"]["checked"] > 0
        assert report["crash"]["injected"]
        assert report["crash"]["worker_restarts"] >= 1
        assert set(report["tenants"]) == set(DEFAULT_TENANTS)
        assert report["slo"] is not None
        # observability sidecars were written
        assert (tmp_path / "soak.jsonl").stat().st_size > 0
        assert (tmp_path / "soak_trace.json").stat().st_size > 0

    def test_no_crash_mode(self):
        cfg = SoakConfig(
            connections=8,
            peak_frames_per_conn=2,
            phases=(("peak", 1.0, 0.8),),
            inject_crash=False,
            max_shards=1,
            shrink_wait_s=0.0,
            seed=2,
        )
        report = run_net_soak(cfg)
        assert not report["crash"]["injected"]
        assert report["crash"]["worker_crashes"] == 0
        assert report["verify"]["mismatches"] == 0


@pytest.mark.timeout(280)
def test_acceptance_500_connection_soak(monkeypatch):
    """The ISSUE.md acceptance run (scaled phases keep it CI-sized)."""
    # the scale-up needs one shard's queue backed up past the scale-up
    # fill: a one-second restart backoff holds the crashed shard down
    # mid-peak, so the peak does so at any decode or client speed
    # (autoscaler looks came up to 0.42 s apart under -X dev)
    monkeypatch.setattr(
        soak, "DecodeService",
        functools.partial(DecodeService, restart_backoff_s=1.0),
    )
    cfg = SoakConfig(
        connections=500,
        peak_frames_per_conn=8,
        phases=(("night", 0.25, 1.5), ("peak", 1.0, 5.0),
                ("evening", 0.1, 2.0)),
        batch=16,
        queue_capacity=32,
        max_retries=8,
        shrink_wait_s=20.0,
        seed=0,
    )
    report = run_net_soak(cfg)

    tenants = report["tenants"]
    # >= 3 tenants each decoded real traffic
    assert sum(1 for s in tenants.values() if s["ok"] > 0) >= 3
    # the under-quota'd free tier was driven out of quota
    assert tenants["free"]["quota_rejected"] >= 1
    # one worker crash was injected and survived (worker restarted)
    assert report["crash"]["injected"]
    assert report["crash"]["worker_restarts"] >= 1
    # the autoscaler both grew into the peak and shrank afterwards
    assert report["autoscaler"]["up"] >= 1
    assert report["autoscaler"]["down"] >= 1
    # bit-exact against decode_many on the same wire-canonical LLRs
    assert report["verify"]["checked"] > 0
    assert report["verify"]["mismatches"] == 0
    # the run finishes with every SLO passing
    assert report["slo"] is not None
    assert report["slo"]["status"] == "pass"
    # nothing silently vanished: every sent frame is accounted for
    for stats in tenants.values():
        assert stats["failed"] == 0


class TestTracedSoak:
    def test_traced_mode_verifies_every_chain(self, tmp_path):
        cfg = SoakConfig(
            connections=8,
            peak_frames_per_conn=2,
            phases=(("peak", 1.0, 0.8),),
            inject_crash=False,
            max_shards=1,
            shrink_wait_s=0.0,
            seed=3,
            trace=True,
        )
        trace_path = str(tmp_path / "traced.json")
        top_path = str(tmp_path / "top.json")
        report = run_net_soak(
            cfg, trace_path=trace_path, top_path=top_path
        )
        (mode,) = report["modes"]
        assert mode["mode"] == "net-gateway-traced"
        verify = report["trace_verify"]
        assert verify is not None and verify["ok"]
        assert verify["checked"] > 0
        assert verify["broken"] == 0 and verify["broken_ids"] == []

        # the merged Chrome trace slices into per-request waterfalls
        from repro.obs.request_trace import (
            extract_request,
            load_chrome_trace,
            request_waterfall,
            trace_ids,
        )

        doc = load_chrome_trace(trace_path)
        ids = trace_ids(doc)
        assert len(ids) >= verify["checked"]
        waterfalls = [
            request_waterfall(extract_request(doc, trace_id=t))
            for t in ids[:4]
        ]
        assert any(
            {"queue_wait", "decode"} <= set(w["segments"])
            for w in waterfalls
        )

        # the end-of-run top snapshot carries the exact RED counters
        import json

        with open(top_path) as handle:
            status = json.load(handle)
        assert status["schema_version"] == 1
        total_requests = sum(
            row["requests"] for row in status["tenants"].values()
        )
        assert total_requests >= mode["frames"]

    def test_untraced_report_has_no_trace_verify(self):
        cfg = SoakConfig(
            connections=4,
            peak_frames_per_conn=1,
            phases=(("peak", 1.0, 0.5),),
            inject_crash=False,
            max_shards=1,
            shrink_wait_s=0.0,
            seed=4,
        )
        report = run_net_soak(cfg)
        assert report["trace_verify"] is None
        assert report["modes"][0]["mode"] == "net-gateway"
