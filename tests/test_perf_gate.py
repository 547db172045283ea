"""Perf-regression gate (repro.obs.perfgate) tests.

The gate must pass against a baseline the current machine can actually
hit, fail against a synthetically inflated one (the committed-numbers-
got-slower scenario, machine-speed independent), append history lines,
and map outcomes onto CLI exit codes.  Real bench re-runs use a tiny
(576-bit, few-frame) configuration so the suite stays fast.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.accel.bench import run_accel_bench
from repro.codes import wimax_code
from repro.obs.perfgate import (
    DEFAULT_BASELINES,
    GateReport,
    GateVerdict,
    PerfGateError,
    baseline_fps,
    compare_to_baseline,
    load_baseline,
    rerun_baseline,
    run_perf_gate,
)

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def tiny_baseline_doc():
    """A real accel bench document for a tiny, fast configuration."""
    code = wimax_code("1/2", 576)
    return run_accel_bench(
        code=code, frames=6, batch=3, iterations=5, fixed=True, seed=1,
        modes=("per-frame", "batch"),
    )


def _write(tmp_path, doc, name="baseline.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _scaled(doc, factor):
    """The same document with every mode's frames/s multiplied."""
    out = json.loads(json.dumps(doc))
    for row in out["rows"]:
        row["frames_per_s"] *= factor
    return out


class TestBaselineLoading(object):
    def test_load_rejects_missing_and_garbage(self, tmp_path):
        with pytest.raises(PerfGateError, match="cannot read"):
            load_baseline(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(PerfGateError, match="cannot read"):
            load_baseline(str(bad))
        shapeless = tmp_path / "shapeless.json"
        shapeless.write_text('{"hello": 1}')
        with pytest.raises(PerfGateError, match="not a recognised"):
            load_baseline(str(shapeless))

    def test_baseline_fps_extraction(self, tiny_baseline_doc):
        fps = baseline_fps(tiny_baseline_doc)
        assert set(fps) == {"per-frame", "batch"}
        assert all(v > 0 for v in fps.values())

    def test_committed_baselines_are_loadable(self):
        for name in DEFAULT_BASELINES:
            doc = load_baseline(name)
            assert doc["schema_version"] == 1
            assert doc["bench"] in ("accel", "net", "zoo")
            assert doc["commit"]
            assert baseline_fps(doc)

    def test_retired_serve_kind_is_refused_by_name(self, tmp_path):
        doc = {
            "schema_version": 1, "bench": "serve", "commit": "abc",
            "modes": [{"mode": "frame-at-a-time", "frames_per_s": 10.0}],
        }
        with pytest.raises(PerfGateError, match="'serve'"):
            load_baseline(_write(tmp_path, doc))
        with pytest.raises(PerfGateError, match="'serve'"):
            rerun_baseline(doc, k=1)


@pytest.mark.zoo
class TestZooBaseline(object):
    @pytest.fixture(scope="class")
    def tiny_zoo_doc(self):
        from repro.serve.zoo_bench import run_zoo_bench

        return run_zoo_bench(
            code_ids=["wimax-r12-576", "wifi-r12-648"], frames=4,
            iterations=5, seed=3,
        )

    def test_zoo_doc_shape_and_kind(self, tmp_path, tiny_zoo_doc):
        doc = load_baseline(_write(tmp_path, tiny_zoo_doc, "BENCH_zoo.json"))
        assert doc["bench"] == "zoo"
        fps = baseline_fps(doc)
        assert set(fps) == {"wimax-r12-576", "wifi-r12-648"}
        assert all(v > 0 for v in fps.values())
        assert doc["config"]["code_ids"] == ["wimax-r12-576", "wifi-r12-648"]

    def test_zoo_rows_carry_fer_and_shape(self, tiny_zoo_doc):
        for row in tiny_zoo_doc["rows"]:
            assert 0.0 <= row["fer"] <= 1.0
            assert row["n"] > 0 and 0 < row["rate"] < 1
            assert row["converged"] <= row["frames"]

    def test_zoo_rerun_uses_embedded_config(self, tiny_zoo_doc):
        observed = rerun_baseline(tiny_zoo_doc, k=1)
        assert set(observed) == {"wimax-r12-576", "wifi-r12-648"}
        assert all(v > 0 for v in observed.values())

    def test_zoo_gate_passes_and_inflated_fails(self, tmp_path,
                                                tiny_zoo_doc):
        path = _write(tmp_path, tiny_zoo_doc, "BENCH_zoo.json")
        report = run_perf_gate([path], k=1, tolerance=0.95,
                               history_path="")
        assert report.ok
        inflated = json.loads(json.dumps(tiny_zoo_doc))
        for row in inflated["rows"]:
            row["frames_per_s"] *= 1000.0
        bad = _write(tmp_path, inflated, "BENCH_zoo_inflated.json")
        report = run_perf_gate([bad], k=1, tolerance=0.30,
                               history_path="")
        assert not report.ok

    def test_zoo_unknown_code_in_config_raises(self, tiny_zoo_doc):
        from repro.errors import UnknownCodeError

        doc = json.loads(json.dumps(tiny_zoo_doc))
        doc["config"]["code_ids"] = ["no-such-code"]
        doc["rows"] = [dict(doc["rows"][0], mode="no-such-code")]
        with pytest.raises(UnknownCodeError):
            rerun_baseline(doc, k=1)


class TestCompare(object):
    def test_pass_fail_and_missing(self, tiny_baseline_doc):
        fps = baseline_fps(tiny_baseline_doc)
        observed = {"per-frame": fps["per-frame"] * 0.9}  # batch missing
        verdicts = compare_to_baseline(
            tiny_baseline_doc, observed, tolerance=0.3, baseline_name="b"
        )
        by_mode = {v.mode: v for v in verdicts}
        assert by_mode["per-frame"].ok
        assert by_mode["per-frame"].ratio == pytest.approx(0.9)
        assert not by_mode["batch"].ok  # absent mode is an explicit fail
        assert by_mode["batch"].observed_fps is None
        assert by_mode["batch"].ratio is None

    def test_improvement_always_passes(self, tiny_baseline_doc):
        fps = baseline_fps(tiny_baseline_doc)
        verdicts = compare_to_baseline(
            tiny_baseline_doc,
            {m: v * 10 for m, v in fps.items()},
            tolerance=0.0,
        )
        assert all(v.ok for v in verdicts)

    def test_unknown_requested_mode_raises(self, tiny_baseline_doc):
        with pytest.raises(PerfGateError, match="not in baseline"):
            compare_to_baseline(
                tiny_baseline_doc, {}, modes=["warp-drive"]
            )

    def test_report_render_and_dict(self, tiny_baseline_doc):
        fps = baseline_fps(tiny_baseline_doc)
        verdicts = compare_to_baseline(
            tiny_baseline_doc, {m: v * 0.5 for m, v in fps.items()},
            tolerance=0.3, baseline_name="b",
        )
        report = GateReport(verdicts=tuple(verdicts), k=1, tolerance=0.3)
        assert not report.ok
        assert len(report.failed()) == 2
        text = report.report()
        assert "[FAIL]" in text and "0.50x" in text
        doc = report.to_dict()
        assert doc["ok"] is False
        assert all(v["ratio"] == pytest.approx(0.5) for v in doc["verdicts"])
        assert GateReport((), 1, 0.3).report().endswith("(no baselines)")

    def test_zero_baseline_fps_never_passes(self):
        v = GateVerdict(
            baseline="b", bench="accel", mode="m", baseline_fps=0.0,
            observed_fps=10.0, tolerance=0.3,
        )
        assert v.ratio is None and not v.ok


class TestRerun(object):
    def test_rerun_uses_embedded_config_and_mode_subset(
        self, tiny_baseline_doc
    ):
        observed = rerun_baseline(
            tiny_baseline_doc, k=1, modes=["per-frame"]
        )
        assert set(observed) == {"per-frame"}
        assert observed["per-frame"] > 0

    def test_rerun_rejects_bad_k(self, tiny_baseline_doc):
        with pytest.raises(PerfGateError, match="k must be"):
            rerun_baseline(tiny_baseline_doc, k=0)

    def test_unreconstructible_code_raises(self, tiny_baseline_doc):
        doc = json.loads(json.dumps(tiny_baseline_doc))
        doc["code"] = "mystery code"
        with pytest.raises(PerfGateError, match="not reconstructible"):
            rerun_baseline(doc, k=1)


class TestGate(object):
    def test_passes_on_achievable_baseline(self, tmp_path, tiny_baseline_doc):
        # halved committed numbers: the machine that produced the doc
        # can surely reach half of its own throughput
        path = _write(tmp_path, _scaled(tiny_baseline_doc, 0.5))
        report = run_perf_gate([path], k=1, tolerance=0.3)
        assert report.ok

    def test_fails_on_inflated_baseline(self, tmp_path, tiny_baseline_doc):
        # 10x-inflated committed numbers simulate a real regression
        # without depending on machine speed
        path = _write(tmp_path, _scaled(tiny_baseline_doc, 10.0))
        report = run_perf_gate([path], k=1, tolerance=0.3)
        assert not report.ok
        assert all(not v.ok for v in report.failed())

    def test_history_lines_appended(self, tmp_path, tiny_baseline_doc):
        path = _write(tmp_path, _scaled(tiny_baseline_doc, 0.5))
        history = tmp_path / "hist.jsonl"
        run_perf_gate(
            [path], k=1, tolerance=0.3, history_path=str(history)
        )
        run_perf_gate(
            [path], k=1, tolerance=0.3, history_path=str(history)
        )
        lines = [
            json.loads(line)
            for line in history.read_text().splitlines()
        ]
        assert len(lines) == 2
        entry = lines[0]
        assert entry["bench"] == "accel"
        assert entry["baseline"] == "baseline.json"
        assert entry["ok"] is True
        assert set(entry["modes"]) == {"per-frame", "batch"}
        assert entry["ts"] > 0 and entry["commit"]

    def test_mode_subset_skips_foreign_baselines(
        self, tmp_path, tiny_baseline_doc
    ):
        path = _write(tmp_path, _scaled(tiny_baseline_doc, 0.5))
        report = run_perf_gate(
            [path], k=1, tolerance=0.3, modes=["frame-at-a-time"]
        )
        assert report.verdicts == ()  # mode not in the accel doc: skipped

    def test_bad_tolerance_raises(self, tmp_path, tiny_baseline_doc):
        path = _write(tmp_path, tiny_baseline_doc)
        for tolerance in (-0.1, 1.0, 2.0):
            with pytest.raises(PerfGateError, match="tolerance"):
                run_perf_gate([path], k=1, tolerance=tolerance)


class TestCli(object):
    def test_exit_zero_on_pass_and_history_written(
        self, tmp_path, tiny_baseline_doc, capsys
    ):
        path = _write(tmp_path, _scaled(tiny_baseline_doc, 0.5))
        history = tmp_path / "hist.jsonl"
        rc = main([
            "perf-gate", "--baseline", path, "--k", "1",
            "--history", str(history),
        ])
        assert rc == 0
        assert "[PASS]" in capsys.readouterr().out
        assert history.exists()

    def test_exit_nonzero_on_slowed_baseline(
        self, tmp_path, tiny_baseline_doc, capsys
    ):
        path = _write(tmp_path, _scaled(tiny_baseline_doc, 10.0))
        rc = main([
            "perf-gate", "--baseline", path, "--k", "1", "--history", "",
        ])
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_json_output(self, tmp_path, tiny_baseline_doc, capsys):
        path = _write(tmp_path, _scaled(tiny_baseline_doc, 0.5))
        rc = main([
            "perf-gate", "--baseline", path, "--k", "1", "--history", "",
            "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["k"] == 1

    def test_exit_two_on_bad_usage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main([
            "perf-gate", "--baseline", str(bad), "--k", "1", "--history", "",
        ])
        assert rc == 2
        assert "perf-gate:" in capsys.readouterr().err
