"""Smoke test of the benchmark (``bench/run.py``) with 1 s windows.

Every workload runs untraced and traced, on 64 frames per workload so
the oracle takes well under a second; the output must carry every
metric ``BENCHMARK.json`` names, with its unit, zero oracle mismatches,
zero shed frames, and a stage table that adds up to the mean latency.
A deliberately perturbed oracle reply must fail the run, and a
directory without the program must fail before measuring anything.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from bench import driver, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_FRAMES = 64
SMOKE_STARTS = 2


def run_main(args):
    """``driver.main(args)``: its exit code and the lines it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = driver.main(args)
    return code, out.getvalue().strip().splitlines()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The untraced and the traced run of every workload."""
    out = tmp_path_factory.mktemp("bench")
    patch = pytest.MonkeyPatch()
    patch.setattr(workloads, "FRAMES_PER_WORKLOAD", SMOKE_FRAMES)
    patch.setattr(driver, "SETUP_STARTS", SMOKE_STARTS)
    results = {}
    try:
        for trace in (0, 1):
            code, lines = run_main(["--seconds", "1", "--trace", str(trace),
                                    "--out", str(out)])
            assert code == 0, "\n".join(lines[-40:])
            doc = out / f"run-all-seed0-trace{trace}.json"
            results[trace] = (json.loads(lines[-1]),
                              json.loads(doc.read_text()), out)
    finally:
        patch.undo()
    return results


def assert_metrics(last, names, nonzero):
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] > 0
    for workload in WORKLOADS:
        for spec in names:
            entry = last["metrics"][f"{workload}/{spec['name']}"]
            assert entry["unit"] == spec["unit"]
            if nonzero:
                assert entry["value"] > 0, (workload, spec["name"])


@pytest.mark.timeout(120)
def test_untraced_run_reports_every_end_to_end_metric(runs):
    last, doc, _ = runs[0]
    assert_metrics(last, SPEC["end_to_end"], nonzero=True)
    assert sorted(doc["workloads"]) == sorted(WORKLOADS)
    for section in doc["workloads"].values():
        assert section["extras"]["mismatches"] == 0
        assert section["extras"]["shed"] == 0
        assert section["extras"]["error_rate"] == 0
        assert all(s > 0 for s in section["extras"]["host_slowdowns"])
        assert all(0 <= s < 1 for s in section["extras"]["host_stolen"])
        assert 0 < section["frames"] <= SMOKE_FRAMES
    prov = doc["provenance"]
    assert prov["host"]["nproc"] >= 1 and prov["host"]["numpy"]
    placement = prov["placement"]
    assert len(placement["system_under_test_cpus"]) <= 1
    assert (placement["load_generator_cpus"] == placement["speedometer_cpus"]
            == placement["system_under_test_cpus"])
    assert prov["seed"] == 0 and prov["window_s"] == 1.0


@pytest.mark.timeout(120)
def test_traced_run_reports_layers_and_a_closed_stage_table(runs):
    last, doc, out = runs[1]
    assert_metrics(last, SPEC["per_layer"], nonzero=False)
    for name, section in doc["workloads"].items():
        metrics = section["metrics"]
        assert metrics["admission.shed_count"]["value"] == 0
        assert metrics["plan.misses"]["value"] == 0
        assert metrics["kernel.layer_ns"]["value"] > 0
        assert 0 < metrics["engine.occupancy"]["value"] <= 1
        extras = section["extras"]
        parts = extras["untraced"] + extras["traced"]
        assert len(parts) == 4
        assert all(part["mismatches"] == 0 for part in parts)
        assert len(extras["trace_overhead_pairs"]) == 2
        rows = dict(section["stage_table_us"])
        assert list(rows)[-1] == "unattributed"
        mean_us = statistics.mean(  # at nominal host speed, like the rows
            part["latency_mean_ms"] / part["window_slowdown"]
            for part in extras["traced"]) * 1e3
        assert sum(rows.values()) == pytest.approx(mean_us, rel=1e-9)
        if name.startswith("wire-"):
            assert rows["gateway verify"] > 0 and rows["client encode"] > 0
        for trace in extras["traces"]:
            assert json.loads((out / trace).read_text())["traceEvents"]


@pytest.mark.timeout(120)
@pytest.mark.parametrize("workload", ["wire-2304-c1", "inproc-2304-c16"])
def test_a_perturbed_oracle_reply_fails_the_run(tmp_path, monkeypatch,
                                                 workload):
    real = driver.make_frames

    def perturbed(wl, seed):
        frames = real(wl, seed)
        frames.bits[0] = frames.bits[0] ^ 1
        return frames

    monkeypatch.setattr(workloads, "FRAMES_PER_WORKLOAD", SMOKE_FRAMES)
    monkeypatch.setattr(driver, "SETUP_STARTS", SMOKE_STARTS)
    monkeypatch.setattr(driver, "make_frames", perturbed)
    code, _ = run_main(["--workload", workload, "--seconds", "1",
                        "--out", str(tmp_path)])
    assert code == 1
    doc = json.loads(
        (tmp_path / f"run-{workload}-seed0-trace0.json").read_text()
    )
    section = doc["workloads"][workload]
    assert section["correct"] is False
    assert section["extras"]["mismatches"] >= 1


@pytest.mark.timeout(60)
def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "1"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=50,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
