"""Tests for the command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.family == "wimax" and args.length == 2304


class TestCommands:
    def test_codes(self, capsys):
        assert main(["codes"]) == 0
        out = capsys.readouterr().out
        assert "802.16e" in out and "802.11n" in out

    def test_demo_success(self, capsys):
        rc = main(["demo", "--length", "576", "--ebno", "4.0"])
        assert rc == 0
        assert "converged" in capsys.readouterr().out

    def test_demo_fixed(self, capsys):
        rc = main(["demo", "--length", "576", "--ebno", "4.0", "--fixed"])
        assert rc == 0

    def test_demo_failure_exit_code(self, capsys):
        rc = main(["demo", "--length", "576", "--ebno", "-4.0",
                   "--iterations", "2"])
        assert rc == 1

    def test_synth(self, capsys):
        rc = main(["synth", "--length", "576", "--clock", "200"])
        assert rc == 0
        assert "synthesis report" in capsys.readouterr().out

    def test_verilog_stdout(self, capsys):
        rc = main(["verilog", "--length", "576"])
        assert rc == 0
        assert "module" in capsys.readouterr().out

    def test_verilog_file(self, tmp_path, capsys):
        out = tmp_path / "decoder.v"
        rc = main(["verilog", "--length", "576", "-o", str(out)])
        assert rc == 0
        assert "endmodule" in out.read_text()

    def test_alist_file(self, tmp_path):
        out = tmp_path / "code.alist"
        rc = main(["alist", "--length", "576", "-o", str(out)])
        assert rc == 0
        first = out.read_text().split()[:2]
        assert first == ["576", "288"]

    def test_wifi_family(self, capsys):
        rc = main(["demo", "--family", "wifi", "--length", "648",
                   "--ebno", "4.0"])
        assert rc == 0

    def test_faults_bench(self, capsys):
        rc = main([
            "faults-bench", "--length", "576", "--frames", "3",
            "--sites", "p_mem", "llr", "--rates", "1e-4", "1e-2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fault campaign" in out
        assert "p_mem" in out and "llr" in out and "none/arch" in out
        assert "FER" in out and "silent" in out and "detect" in out

    def test_faults_bench_rejects_unknown_site(self, capsys):
        rc = main([
            "faults-bench", "--length", "576", "--frames", "2",
            "--sites", "cache",
        ])
        assert rc == 2
        assert "unknown sites" in capsys.readouterr().err

    def test_faults_bench_rejects_bad_frames(self, capsys):
        rc = main(["faults-bench", "--length", "576", "--frames", "0"])
        assert rc == 2

    def test_faults_bench_json(self, capsys):
        rc = main([
            "faults-bench", "--length", "576", "--frames", "2",
            "--sites", "llr", "--rates", "1e-3", "--json",
        ])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        sites = {c["site"] for c in obj["cells"]}
        assert sites == {"none/llr", "llr"}
        assert "faults_frames" in obj["metrics"]

    @pytest.mark.zoo
    def test_zoo_bench_table(self, capsys):
        rc = main([
            "zoo-bench", "--frames", "4",
            "--codes", "wimax-r12-576", "wifi-r12-648",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "zoo-bench" in out
        assert "wimax-r12-576" in out and "wifi-r12-648" in out
        assert "FER" in out

    @pytest.mark.zoo
    def test_zoo_bench_json(self, capsys):
        rc = main([
            "zoo-bench", "--frames", "4", "--codes", "nr-bg2-z16", "--json",
        ])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["bench"] == "zoo"
        assert [r["mode"] for r in obj["rows"]] == ["nr-bg2-z16"]
        assert obj["config"]["code_ids"] == ["nr-bg2-z16"]

    @pytest.mark.zoo
    @pytest.mark.parametrize("extra", [[], ["--fixed"], ["--schedule", "column"]])
    def test_zoo_bench_rows_are_bit_exact(self, capsys, extra):
        rc = main([
            "zoo-bench", "--frames", "3", "--codes", "nr-bg1-z16",
            "nr-bg2-z16", "--json", *extra,
        ])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert [r["mismatches"] for r in obj["rows"]] == [0, 0]

    @pytest.mark.zoo
    def test_zoo_bench_fails_on_a_mismatch(self, capsys, monkeypatch):
        import repro.serve.zoo_bench as zoo_bench

        monkeypatch.setattr(zoo_bench, "count_mismatches", lambda *a: 1)
        rc = main(["zoo-bench", "--frames", "2", "--codes", "nr-bg2-z16"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "mismatches" in out and "disagrees" in out

    @pytest.mark.zoo
    def test_zoo_bench_family_filter(self, capsys):
        rc = main(["zoo-bench", "--frames", "2", "--family", "nr"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nr-bg1-z16" in out and "nr-bg2-z32" in out
        assert "wimax" not in out.replace("zoo-bench", "")

    @pytest.mark.zoo
    def test_zoo_bench_column_schedule(self, capsys):
        rc = main([
            "zoo-bench", "--frames", "3", "--codes", "wimax-r12-576",
            "--schedule", "column",
        ])
        assert rc == 0
        assert "schedule=column" in capsys.readouterr().out

    @pytest.mark.zoo
    def test_zoo_bench_rejects_unknown_code(self, capsys):
        rc = main(["zoo-bench", "--codes", "no-such-code"])
        assert rc == 2
        assert "no-such-code" in capsys.readouterr().err

    @pytest.mark.zoo
    def test_zoo_bench_rejects_unknown_family(self, capsys):
        rc = main(["zoo-bench", "--family", "dvb"])
        assert rc == 2
        assert "dvb" in capsys.readouterr().err

    def test_accel_bench_table(self, capsys):
        rc = main([
            "accel-bench", "--length", "576", "--frames", "6", "--batch", "3",
            "--modes", "per-frame", "batch", "thread-pool",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accel-bench" in out and "thread-pool" in out
        assert "per-layer ns" in out

    def test_accel_bench_json(self, capsys):
        rc = main([
            "accel-bench", "--length", "576", "--frames", "6", "--batch", "3",
            "--modes", "per-frame", "batch", "engine", "thread-pool",
            "--json",
        ])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        modes = [r["mode"] for r in obj["rows"]]
        assert modes == ["per-frame", "batch", "engine", "thread-pool"]
        assert all(r["mismatches"] == 0 for r in obj["rows"])
        assert obj["arithmetic"] == "fixed"

    def test_accel_bench_json_to_file(self, tmp_path, capsys):
        out = tmp_path / "BENCH_accel.json"
        rc = main([
            "accel-bench", "--length", "576", "--frames", "4", "--batch", "2",
            "--modes", "per-frame", "batch", "--float", "--json",
            "-o", str(out),
        ])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["arithmetic"] == "float"
        assert len(obj["rows"]) == 2

    def test_accel_bench_rejects_unknown_mode(self, capsys):
        rc = main([
            "accel-bench", "--length", "576", "--modes", "gpu",
        ])
        assert rc == 2
        assert "unknown modes" in capsys.readouterr().err
        # the fused kernel is the batch kernel now: one mode, not two
        assert main(["accel-bench", "--modes", "fused-batch"]) == 2

    def test_accel_bench_rejects_bad_frames(self, capsys):
        assert main(["accel-bench", "--frames", "0"]) == 2

    def test_faults_bench_json_provenance(self, capsys):
        rc = main([
            "faults-bench", "--length", "576", "--frames", "2",
            "--sites", "llr", "--rates", "1e-3", "--json",
        ])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["schema_version"] == 1
        assert obj["bench"] == "faults"
        assert obj["commit"]


class TestObsReport:
    def test_text_report(self, capsys):
        rc = main([
            "obs-report", "--length", "576", "--frames", "6", "--batch", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine.step" in out and "batch.layer" in out
        assert "per-layer wall time" in out
        assert "serve_frames_in" in out

    def test_json_format(self, capsys):
        rc = main([
            "obs-report", "--length", "576", "--frames", "4", "--batch", "2",
            "--format", "json",
        ])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert "engine.step" in obj["spans"]
        assert obj["metrics"]["serve_frames_in"]["series"][0]["value"] == 4

    def test_prometheus_format(self, capsys):
        rc = main([
            "obs-report", "--length", "576", "--frames", "4", "--batch", "2",
            "--format", "prometheus",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE serve_frames_in counter" in out
        assert "serve_frames_in_total 4" in out
        assert 'serve_latency_seconds_bucket{le="+Inf"} 4' in out

    def test_chrome_trace_output(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        rc = main([
            "obs-report", "--length", "576", "--frames", "4", "--batch", "2",
            "--chrome-out", str(path),
        ])
        assert rc == 0
        obj = json.loads(path.read_text())
        names = {e["name"] for e in obj["traceEvents"]}
        assert "engine.step" in names and "batch.layer" in names

    def test_rejects_bad_frames(self, capsys):
        assert main(["obs-report", "--length", "576", "--frames", "0"]) == 2
        assert main([
            "obs-report", "--length", "576", "--batch", "0",
        ]) == 2

    @pytest.mark.obs
    def test_thread_backend_renders_slo(self, capsys):
        rc = main([
            "obs-report", "--length", "576", "--frames", "6", "--batch", "3",
            "--backend", "thread",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SLO report" in out
        assert "serve_latency_p99" in out
        assert "backend thread" in out

    @pytest.mark.obs
    def test_thread_backend_json_and_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main([
            "obs-report", "--length", "576", "--frames", "6", "--batch", "3",
            "--backend", "thread", "--format", "json",
            "--chrome-out", str(trace),
        ])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["slo"]["status"] in ("pass", "unknown")
        # the warm-up frame is not part of the SLO window
        retired = obj["metrics"]["serve_frames_out"]["series"]
        assert [s["value"] for s in retired] == [6]
        assert "engine.step" in obj["spans"]
        doc = json.loads(trace.read_text())
        rows = [
            (ev["pid"], ev["args"]["name"])
            for ev in doc["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "process_name"
        ]
        assert rows == [(1, "main")]
        assert {ev["pid"] for ev in doc["traceEvents"]} == {1}

    @pytest.mark.obs
    def test_log_out_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        rc = main([
            "obs-report", "--length", "576", "--frames", "4", "--batch", "2",
            "--backend", "thread", "--log-out", str(path),
        ])
        assert rc == 0
        events = {
            json.loads(line)["event"]
            for line in path.read_text().splitlines()
        }
        assert "pool.enqueue" in events and "pool.dispatch" in events


class TestLogsCommand:
    def _write_log(self, tmp_path):
        from repro.obs.log import EventLog

        path = tmp_path / "events.jsonl"
        with EventLog(path=str(path)) as log:
            log.debug("pool.enqueue", job=1)
            log.warning("pool.shed", budget=2)
            log.error("pool.crash", shard="a")
        return str(path)

    def test_pretty_print(self, tmp_path, capsys):
        rc = main(["logs", self._write_log(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pool.enqueue" in out and "pool.crash" in out
        assert "ERROR" in out

    def test_level_event_and_tail_filters(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        rc = main(["logs", path, "--level", "warning"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pool.enqueue" not in out and "pool.shed" in out
        rc = main(["logs", path, "--event", "crash"])
        out = capsys.readouterr().out
        assert "pool.crash" in out and "pool.shed" not in out
        rc = main(["logs", path, "--tail", "1"])
        out = capsys.readouterr().out
        assert "pool.crash" in out and "pool.shed" not in out

    def test_json_reemit(self, tmp_path, capsys):
        rc = main(["logs", self._write_log(tmp_path), "--json"])
        assert rc == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert [obj["event"] for obj in lines] == [
            "pool.enqueue", "pool.shed", "pool.crash",
        ]

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["logs", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "logs:" in capsys.readouterr().err

    def test_bad_level_exits_two(self, tmp_path, capsys):
        rc = main(["logs", self._write_log(tmp_path), "--level", "loud"])
        assert rc == 2


class TestNetSoakCommand:
    _FAST = [
        "net-soak", "--connections", "6", "--frames", "2",
        "--duration-scale", "0.2", "--no-crash", "--max-shards", "1",
        "--seed", "3",
    ]

    @pytest.mark.net
    def test_text_report(self, capsys):
        rc = main(self._FAST)
        captured = capsys.readouterr()
        assert rc == 0
        assert "net-soak:" in captured.out
        assert "gold" in captured.out and "free" in captured.out
        assert "verify:" in captured.out and "0 mismatches" in captured.out

    @pytest.mark.net
    def test_json_report(self, capsys):
        rc = main(self._FAST + ["--json"])
        captured = capsys.readouterr()
        assert rc == 0
        doc = json.loads(captured.out)
        assert doc["bench"] == "net"
        assert doc["verify"]["mismatches"] == 0
        assert doc["config"]["connections"] == 6
        assert "commit" in doc

    @pytest.mark.net
    def test_json_to_file(self, tmp_path, capsys):
        out = tmp_path / "BENCH_net.json"
        rc = main(self._FAST + ["--json", "-o", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert f"wrote {out}" in captured.err
        doc = json.loads(out.read_text())
        assert doc["bench"] == "net"

    def test_rejects_bad_connections(self, capsys):
        rc = main(["net-soak", "--connections", "0"])
        assert rc == 2
        assert "--connections" in capsys.readouterr().err

    def test_rejects_bad_frames(self, capsys):
        rc = main(["net-soak", "--frames", "0"])
        assert rc == 2
        assert "--frames" in capsys.readouterr().err


class TestNetServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["net-serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7207
        assert not hasattr(args, "kernel")  # one batch kernel, no flag
        assert args.max_shards == 1

    def test_tenant_specs(self):
        from repro.__main__ import _parse_tenants
        from repro.net.admission import BRONZE, GOLD

        tenants = _parse_tenants(["gold:100:200:gold", "free:0.5:2:bronze"])
        assert tenants["gold"].rate == 100.0
        assert tenants["gold"].burst == 200.0
        assert tenants["gold"].priority == GOLD
        assert tenants["free"].priority == BRONZE

    def test_tenant_numeric_priority(self):
        from repro.__main__ import _parse_tenants

        tenants = _parse_tenants(["t:1:2:7"])
        assert tenants["t"].priority == 7

    def test_bad_tenant_spec_raises(self):
        from repro.__main__ import _parse_tenants

        with pytest.raises(ValueError):
            _parse_tenants(["justaname"])


class TestLogsFollowFlag:
    def test_follow_flag_parses(self):
        args = build_parser().parse_args(["logs", "x.jsonl", "--follow"])
        assert args.follow
        args = build_parser().parse_args(["logs", "x.jsonl", "-f"])
        assert args.follow


class TestObservabilityCommands:
    def _trace_doc(self, tmp_path):
        events = [
            {"name": "client.request", "ph": "X", "pid": 1, "tid": 1,
             "ts": 0.0, "dur": 8000.0, "args": {"trace": 77, "job": 5}},
            {"name": "gateway.request", "ph": "X", "pid": 2, "tid": 1,
             "ts": 1000.0, "dur": 6000.0,
             "args": {"trace": 77, "job": 5, "admission_s": 0.001,
                      "queue_wait_s": 0.002, "decode_s": 0.002,
                      "respond_s": 0.001, "total_s": 0.006}},
        ]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": events}))
        return str(path)

    def test_trace_request_list(self, tmp_path, capsys):
        assert main(["trace-request", self._trace_doc(tmp_path),
                     "--list"]) == 0
        assert capsys.readouterr().out.strip() == "77"

    def test_trace_request_waterfall_by_job(self, tmp_path, capsys):
        rc = main(["trace-request", self._trace_doc(tmp_path),
                   "--job-id", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace 77" in out
        for seg in ("wire", "admission", "queue_wait", "decode",
                    "respond"):
            assert seg in out

    def test_trace_request_json_and_slice(self, tmp_path, capsys):
        out_path = tmp_path / "slice.json"
        rc = main(["trace-request", self._trace_doc(tmp_path),
                   "--trace-id", "77", "--json", "-o", str(out_path)])
        assert rc == 0
        waterfall = json.loads(capsys.readouterr().out)
        assert waterfall["trace_id"] == 77
        assert waterfall["segments"]["wire"] > 0
        sliced = json.loads(out_path.read_text())
        assert len(sliced["traceEvents"]) == 2

    def test_trace_request_unknown_id_exits_2(self, tmp_path, capsys):
        rc = main(["trace-request", self._trace_doc(tmp_path),
                   "--trace-id", "999"])
        assert rc == 2
        assert "999" in capsys.readouterr().err

    def test_trace_request_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["trace-request", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_top_parser_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.port == 7208 and not args.once and not args.json

    def test_top_unreachable_endpoint_exits_2(self, capsys):
        rc = main(["top", "--once", "--endpoint", "127.0.0.1:1",
                   "--interval", "0.01"])
        assert rc == 2
        assert "top:" in capsys.readouterr().err

    def test_obs_report_unreachable_endpoint_exits_2(self, capsys):
        rc = main(["obs-report", "--endpoint", "127.0.0.1:1"])
        assert rc == 2
        assert "endpoint" in capsys.readouterr().err

    def test_logs_field_filters(self, tmp_path, capsys):
        from repro.obs.log import EventLog

        path = str(tmp_path / "log.jsonl")
        log = EventLog(path=path)
        log.info("net.request", tenant="gold", code_id="a")
        log.info("net.request", tenant="free", code_id="b")
        log.info("scale.up", code_id="a")
        log.close()
        rc = main(["logs", path, "--tenant", "gold", "--json"])
        assert rc == 0
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 1
        assert lines[0]["fields"]["tenant"] == "gold"
        rc = main(["logs", path, "--code-id", "a", "--json"])
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()]
        assert rc == 0
        assert {l["event"] for l in lines} == {"net.request", "scale.up"}

    def test_net_soak_trace_flags_parse(self):
        args = build_parser().parse_args(
            ["net-soak", "--trace", "--top-out", "t.json"]
        )
        assert args.trace and args.top_out == "t.json"
        args = build_parser().parse_args(["net-soak"])
        assert not args.trace and args.top_out == ""

    def test_net_serve_obs_port_parses(self):
        args = build_parser().parse_args(["net-serve", "--obs-port", "0"])
        assert args.obs_port == 0
        args = build_parser().parse_args(["net-serve"])
        assert args.obs_port is None
