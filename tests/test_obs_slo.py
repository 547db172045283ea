"""SLO monitor (repro.obs.slo) unit tests.

Pins the spec-string grammar, the rule validation errors, the verdict
semantics (pass / fail / unknown — an unmeasurable objective must never
look healthy), the report status precedence, and the stock serving
objectives.
"""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry
from repro.obs.slo import (
    SloConfigError,
    SloMonitor,
    SloReport,
    SloRule,
    SloVerdict,
    default_serve_slos,
)

pytestmark = pytest.mark.obs


class TestRuleParsing(object):
    def test_parse_histogram_stat(self):
        rule = SloRule.parse("serve_latency_seconds:p99 < 0.05")
        assert rule.metric == "serve_latency_seconds"
        assert rule.stat == "p99"
        assert rule.op == "<" and rule.threshold == 0.05
        assert rule.per is None

    def test_parse_ratio(self):
        rule = SloRule.parse("serve_worker_crashes / serve_frames_out < 0.01")
        assert rule.per == "serve_frames_out"
        assert rule.stat == "total"

    def test_parse_default_stat_and_operators(self):
        for op in ("<", "<=", ">", ">="):
            rule = SloRule.parse(f"frames {op} 3")
            assert rule.op == op and rule.stat == "total"

    def test_parse_scientific_threshold(self):
        assert SloRule.parse("faults_fer <= 1e-3").threshold == 1e-3

    def test_parse_rejects_garbage(self):
        for spec in ("", "no-operator 5", "metric ~ 3", "m < not_a_number"):
            with pytest.raises(SloConfigError):
                SloRule.parse(spec)

    def test_bad_operator_and_stat_raise(self):
        with pytest.raises(SloConfigError, match="operator"):
            SloRule(metric="m", op="!=", threshold=1.0)
        with pytest.raises(SloConfigError, match="stat"):
            SloRule(metric="m", op="<", threshold=1.0, stat="p42")

    def test_name_defaults_to_describe(self):
        rule = SloRule.parse("serve_latency_seconds:p99 < 0.05")
        assert rule.name == rule.describe()
        named = SloRule.parse("x < 1", name="latency")
        assert named.name == "latency"

    def test_monitor_add_accepts_strings_and_rejects_junk(self):
        mon = SloMonitor(["frames > 0"])
        assert mon.rules[0].metric == "frames"
        with pytest.raises(SloConfigError, match="expected SloRule"):
            mon.add(42)


class TestEvaluation(object):
    def _registry(self):
        reg = MetricsRegistry()
        out = reg.counter("frames_out", "retired")
        out.inc(100)
        reg.counter("crashes", "worker crashes").inc(2)
        lat = reg.histogram("latency", "seconds")
        for ms in range(1, 101):
            lat.observe(ms / 1000.0)
        return reg

    def test_counter_pass_and_fail(self):
        reg = self._registry()
        mon = SloMonitor(["frames_out >= 100", "crashes <= 1"])
        report = mon.evaluate(reg)
        assert [v.status for v in report.verdicts] == ["pass", "fail"]
        assert report.status == "fail" and not report.ok
        assert len(report.failed()) == 1
        assert "violates" in report.failed()[0].reason

    def test_histogram_percentile(self):
        reg = self._registry()
        report = SloMonitor(["latency:p99 < 0.2"]).evaluate(reg)
        verdict = report.verdicts[0]
        assert verdict.status == "pass"
        assert 0.05 < verdict.observed <= 0.1

    def test_ratio(self):
        reg = self._registry()
        report = SloMonitor(["crashes / frames_out < 0.05"]).evaluate(reg)
        assert report.verdicts[0].status == "pass"
        assert report.verdicts[0].observed == pytest.approx(0.02)

    def test_missing_metric_is_unknown_not_pass(self):
        report = SloMonitor(["nope < 1"]).evaluate(MetricsRegistry())
        verdict = report.verdicts[0]
        assert verdict.status == "unknown"
        assert verdict.observed is None
        assert not verdict.ok
        assert "not registered" in verdict.reason

    def test_zero_denominator_is_unknown(self):
        reg = MetricsRegistry()
        reg.counter("crashes", "h").inc(0)
        reg.counter("frames", "h")
        report = SloMonitor(["crashes / frames < 0.01"]).evaluate(reg)
        assert report.verdicts[0].status == "unknown"
        assert "zero" in report.verdicts[0].reason

    def test_empty_histogram_percentile_is_unknown(self):
        reg = MetricsRegistry()
        reg.histogram("latency", "seconds")
        report = SloMonitor(["latency:p99 < 0.5"]).evaluate(reg)
        assert report.verdicts[0].status == "unknown"
        assert "no observations" in report.verdicts[0].reason

    def test_status_precedence(self):
        # fail beats unknown beats pass
        reg = self._registry()
        mon = SloMonitor(["frames_out >= 100", "nope < 1"])
        assert mon.evaluate(reg).status == "unknown"
        mon.add("crashes <= 0")
        assert mon.evaluate(reg).status == "fail"
        assert SloReport(()).status == "pass"

    def test_to_dict_and_report_render(self):
        reg = self._registry()
        report = SloMonitor(
            ["frames_out >= 100", "crashes <= 0", "nope < 1"]
        ).evaluate(reg)
        doc = report.to_dict()
        assert doc["status"] == "fail"
        assert [v["status"] for v in doc["verdicts"]] == [
            "pass", "fail", "unknown",
        ]
        text = report.report()
        assert "[FAIL]" in text
        assert "UNKNOWN" in text

    def test_verdict_ok_only_for_pass(self):
        rule = SloRule.parse("x < 1")
        assert SloVerdict(rule=rule, status="pass", observed=0.0).ok
        assert not SloVerdict(rule=rule, status="fail", observed=2.0).ok
        assert not SloVerdict(rule=rule, status="unknown").ok


class TestDefaultServeSlos(object):
    def test_rule_names(self):
        mon = default_serve_slos()
        assert [r.name for r in mon.rules] == [
            "serve_latency_p99", "serve_crash_rate", "serve_error_rate",
        ]

    def test_fresh_registry_is_unknown_everywhere(self):
        from repro.serve import ServeMetrics

        report = default_serve_slos().evaluate(ServeMetrics().registry)
        assert {v.status for v in report.verdicts} == {"unknown"}
        assert report.status == "unknown"

    def test_healthy_traffic_passes(self, wimax_short):
        import numpy as np

        from repro.serve import (
            ContinuousBatchingEngine,
            DecodeJob,
            ServeMetrics,
        )
        from tests.conftest import noisy_frame

        metrics = ServeMetrics()
        engine = ContinuousBatchingEngine(
            wimax_short, batch_size=4, metrics=metrics
        )
        frames = np.stack(
            [noisy_frame(wimax_short, 3.0, seed=i)[1] for i in range(6)]
        )
        engine.run([DecodeJob(llrs=f) for f in frames])
        report = default_serve_slos(p99_latency_s=60.0).evaluate(
            metrics.registry
        )
        by_name = {v.rule.name: v for v in report.verdicts}
        assert by_name["serve_latency_p99"].status == "pass"
        assert by_name["serve_crash_rate"].status == "pass"
        assert by_name["serve_error_rate"].status == "pass"


class TestDefaultGatewaySlos(object):
    def _metrics(self):
        from repro.net.metrics import NetMetrics
        from repro.obs.metrics import MetricsRegistry

        return NetMetrics(MetricsRegistry())

    def test_fresh_registry_is_unknown(self):
        from repro.obs.slo import default_gateway_slos

        report = default_gateway_slos().evaluate(self._metrics().registry)
        assert report.status == "unknown"
        assert all(v.status == "unknown" for v in report.verdicts)

    def test_healthy_gateway_passes(self):
        from repro.obs.slo import default_gateway_slos

        metrics = self._metrics()
        for _ in range(20):
            metrics.requests.inc(tenant="gold")
            metrics.results.inc(tenant="gold")
            metrics.latency.observe(0.01, tenant="gold")
        report = default_gateway_slos(tenants=("gold",)).evaluate(
            metrics.registry
        )
        assert report.status == "pass"
        names = {v.rule.name for v in report.verdicts}
        assert "net_error_rate" in names
        assert "net_rejection_rate" in names
        assert "net_latency_p99[gold]" in names

    def test_error_rate_breach_fails(self):
        from repro.obs.slo import default_gateway_slos

        metrics = self._metrics()
        for _ in range(10):
            metrics.requests.inc(tenant="gold")
            metrics.results.inc(tenant="gold")
            metrics.latency.observe(0.01, tenant="gold")
        metrics.errors.inc(tenant="gold", kind="ServeError")
        report = default_gateway_slos(
            error_rate=0.05, tenants=("gold",)
        ).evaluate(metrics.registry)
        assert report.status == "fail"
        failing = [v.rule.name for v in report.verdicts
                   if v.status == "fail"]
        assert failing == ["net_error_rate"]

    def test_per_tenant_latency_rules_are_isolated(self):
        from repro.obs.slo import default_gateway_slos

        metrics = self._metrics()
        for _ in range(10):
            metrics.requests.inc(tenant="gold")
            metrics.results.inc(tenant="gold")
            metrics.latency.observe(0.001, tenant="gold")
            metrics.requests.inc(tenant="free")
            metrics.results.inc(tenant="free")
            metrics.latency.observe(30.0, tenant="free")
        report = default_gateway_slos(
            p99_latency_s=1.0, tenants=("gold", "free")
        ).evaluate(metrics.registry)
        by_name = {v.rule.name: v.status for v in report.verdicts}
        assert by_name["net_latency_p99[gold]"] == "pass"
        assert by_name["net_latency_p99[free]"] == "fail"

    def test_rejection_rate_uses_aggregate_counters(self):
        from repro.obs.slo import default_gateway_slos

        metrics = self._metrics()
        for _ in range(4):
            metrics.requests.inc(tenant="free")
        for _ in range(3):
            metrics.rejected.inc(tenant="free", reason="quota")
        report = default_gateway_slos(rejection_rate=0.25).evaluate(
            metrics.registry
        )
        by_name = {v.rule.name: v.status for v in report.verdicts}
        assert by_name["net_rejection_rate"] == "fail"
