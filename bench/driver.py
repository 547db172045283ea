"""Orchestration: placement, cold starts, timed runs, metrics, reports.

Everything the benchmark runs shares one CPU, the last allowed one: the
load generator (this process: one asyncio thread, at most two
connections), the system under test (a fresh ``bench.sut`` process;
in-process workloads run their generator inside it), and a speedometer
process (``bench/speed.py``) that lets every timing be reported at
nominal host speed.  One CPU, because the host's CPUs lose time to
other tenants independently of each other: a generator on a second CPU
made the wire workloads' figures follow that CPU's losses, which the
speedometer on the service's CPU cannot see.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import pickle
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from bench.probes import Probes, client_probes
from bench.speed import NOMINAL_REFERENCE_S, HostSpeed
from bench.workloads import (
    DRAIN_TIMEOUT_S,
    TENANT,
    WORKLOADS,
    Frames,
    LoopResult,
    Workload,
    closed_loop,
    make_frames,
)
from repro.net import AsyncDecodeClient
from repro.obs.trace import TraceRecorder
from repro.utils.provenance import bench_meta

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Warm-up before every timed window (verified, not counted); windows
#: shorter than 10 s, such as the quarters of a traced run, get a fifth
#: of their length.
WARMUP_S = 2.0

#: Cold starts per untraced run; ``setup_s`` is their median.
SETUP_STARTS = 5

#: The first start in a fresh checkout also byte-compiles ``src/``.
SETUP_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "throughput_fps": "frames/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "server_cpu_ms_per_frame": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "client.encode_us": "us",
    "client.decode_us": "us",
    "gateway.verify_us": "us",
    "gateway.result_encode_us": "us",
    "gateway.total_ms": "ms",
    "gateway.respond_ms": "ms",
    "wire.residual_ms": "ms",
    "admission.admit_us": "us",
    "admission.shed_count": "count",
    "pool.submit_us": "us",
    "pool.queue_wait_ms": "ms",
    "pool.decode_ms": "ms",
    "engine.step_us": "us",
    "engine.steps_per_frame": "steps/frame",
    "engine.occupancy": "fraction",
    "kernel.iterate_us": "us",
    "kernel.layer_ns": "ns",
    "kernel.iterations_mean": "iter/frame",
    "plan.misses": "count",
    "server.cpu_util": "fraction",
    "client.cpu_util": "fraction",
    "client.cpu_ms_per_frame": "ms",
    "stage.unattributed_us": "us",
    "trace.overhead": "fraction",
}

#: Units of the per-layer metrics reported at nominal host speed.
TIMES = {"us", "ms", "ns"}

#: Per-layer times that are CPU time, not wall-clock time.
CPU_TIMES = {"client.cpu_ms_per_frame"}

class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to measuring a failure)."""


# ----------------------------------------------------------------------
# placement and provenance
# ----------------------------------------------------------------------
def placement() -> List[int]:
    """The one CPU every benchmark process is pinned to: the last
    allowed one (on the host this was built on, the first took most of
    the interrupts and most of the stolen time).  Empty where affinity
    cannot be set."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))[-1:]


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def provenance(args: argparse.Namespace, cpus: List[int]) -> Dict[str, Any]:
    """Host fingerprint, placement and run settings of one invocation."""
    meta = bench_meta("bench/run.py")
    part_window_s = args.seconds / 4.0 if args.trace else args.seconds
    return {
        **meta,
        "dirty": meta["commit"].endswith("-dirty"),
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "placement": {
            "load_generator_cpus": cpus,
            "system_under_test_cpus": cpus,
            "speedometer_cpus": cpus,
        },
        "seed": args.seed,
        "window_s": args.seconds,
        "part_window_s": part_window_s,
        "warmup_s": warmup(part_window_s),
        "setup_starts": 1 if args.trace else SETUP_STARTS,
        "nominal_reference_s": NOMINAL_REFERENCE_S,
        "traced": bool(args.trace),
    }


# ----------------------------------------------------------------------
# the system-under-test process
# ----------------------------------------------------------------------
class SutProcess(object):
    """One ``bench.sut`` process and its JSON-lines control pipe."""

    def __init__(self, workload: Workload, cpus: List[int],
                 traced: bool = False, trace_out: str = "") -> None:
        config = {"workload": workload.name, "cpus": cpus,
                  "traced": traced, "trace_out": trace_out}
        path = [SRC, ROOT] + [
            p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "bench.sut", json.dumps(config)],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def send(self, **message: Any) -> None:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def expect(self, event: str, timeout: float) -> Dict[str, Any]:
        """The next message of kind ``event`` (others are skipped)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except queue.Empty:
                raise BenchError(
                    f"system under test sent no {event!r} within {timeout:g}s"
                ) from None
            if line is None:
                raise BenchError(
                    f"system under test exited (code {self.proc.wait()}) "
                    f"before {event!r}"
                )
            try:
                message = json.loads(line)
            except ValueError:
                sys.stderr.write(line)  # stray library output, not ours
                continue
            if message.get("event") == event:
                return message

    def close(self, timeout: float = 60.0) -> Dict[str, Any]:
        """Ask for a clean shutdown; returns the final snapshot."""
        try:
            self.send(cmd="quit")
            self.proc.stdin.close()
            final = self.expect("closed", timeout)
            self.proc.wait(timeout)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        """Stop the process (if still running) and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=10.0)


# ----------------------------------------------------------------------
# one timed part: cold starts, warm-up, window
# ----------------------------------------------------------------------
@dataclass
class Part(object):
    """Everything one SUT lifetime measured.

    ``setup`` holds the ``perf_counter`` instants each cold start began
    and ended; ``server`` and ``client`` hold one cumulative snapshot
    per sub-window edge of the timed window; ``final`` is the SUT's
    snapshot at exit.
    """

    traced: bool
    setup: List[Tuple[float, float]]
    loop: LoopResult
    server: List[Dict[str, Any]]
    client: List[Dict[str, Any]]
    final: Dict[str, Any]

    @property
    def correct(self) -> bool:
        return (
            self.loop.failed == 0
            and self.loop.completed > 0
            and self.final["shed"] == 0
            and len(self.server) == len(self.loop.edges_s) >= 2
        )


def _client_snapshot(probes: Optional[Probes]) -> Dict[str, Any]:
    snap: Dict[str, Any] = {"wall_s": time.perf_counter(),
                            "cpu_s": time.process_time()}
    if probes is not None:
        snap["probes"] = probes.snapshot()
    return snap


async def _run_wire(workload: Workload, frames: Frames, cpus: List[int],
                    warmup_s: float, window_s: float, starts: int,
                    trace_paths: Optional[Tuple[str, str]]) -> Part:
    traced = trace_paths is not None
    recorder = TraceRecorder() if traced else None
    probes = Probes() if traced else None
    connect_kwargs = {"recorder": recorder} if traced else {}
    setup: List[Tuple[float, float]] = []
    for start in range(starts):
        t0 = time.perf_counter()
        sut = SutProcess(workload, cpus, traced,
                         trace_paths[1] if traced else "")
        clients: List[AsyncDecodeClient] = []
        try:
            port = sut.expect("ready", SETUP_TIMEOUT_S)["port"]
            for _ in range(workload.connections):
                clients.append(await AsyncDecodeClient.connect(
                    "127.0.0.1", port, tenant=TENANT, **connect_kwargs
                ))
            setup.append((t0, time.perf_counter()))
            if start == starts - 1:
                break
        except BaseException:
            sut.kill()
            raise
        for client in clients:
            await client.close()
        sut.close()

    client_marks: List[Dict[str, Any]] = []

    def on_edge(_edge: int) -> None:
        sut.send(cmd="mark")
        client_marks.append(_client_snapshot(probes))

    async def send(slot: int, i: int):
        reply = await clients[slot // workload.in_flight].decode(
            frames.llrs[i], code_id=frames.code_ids[i]
        )
        return reply.bits, reply.iterations, reply.converged

    try:
        with client_probes(probes) if traced else contextlib.nullcontext():
            loop = await closed_loop(send, frames, workload.slots,
                                     warmup_s, window_s, on_edge)
        server_marks = [
            sut.expect("mark", DRAIN_TIMEOUT_S) for _ in client_marks
        ]
        for client in clients:
            await client.close()
        final = sut.close()
    except BaseException:
        sut.kill()
        raise
    if traced:
        recorder.write_chrome_trace(trace_paths[0])
    return Part(traced, setup, loop, server_marks, client_marks, final)


def _run_inproc(workload: Workload, frames: Frames, cpus: List[int],
                warmup_s: float, window_s: float, starts: int,
                trace_paths: Optional[Tuple[str, str]],
                frames_path: str) -> Part:
    traced = trace_paths is not None
    setup: List[Tuple[float, float]] = []
    for start in range(starts):
        t0 = time.perf_counter()
        sut = SutProcess(workload, cpus, traced,
                         trace_paths[1] if traced else "")
        try:
            sut.expect("ready", SETUP_TIMEOUT_S)
        except BaseException:
            sut.kill()
            raise
        setup.append((t0, time.perf_counter()))
        if start < starts - 1:
            sut.close()
    try:
        with open(frames_path, "wb") as handle:
            pickle.dump(frames, handle)
        sut.send(cmd="run", frames=frames_path, warmup_s=warmup_s,
                 window_s=window_s)
        result = sut.expect("result",
                            warmup_s + window_s + DRAIN_TIMEOUT_S + 60.0)
        final = sut.close()
    except BaseException:
        sut.kill()
        raise
    finally:
        with contextlib.suppress(OSError):
            os.remove(frames_path)
    marks = result["marks"]
    # the generator is the SUT's main thread: its CPU is the client side
    client = [{"wall_s": m["wall_s"], "cpu_s": m["thread_cpu_s"]}
              for m in marks]
    return Part(traced, setup, LoopResult(**result["loop"]), marks, client,
                final)


def trace_files(stem: str) -> List[str]:
    """``[client, server]`` Chrome-trace file names of a traced run."""
    return [f"{stem}-client.trace.json", f"{stem}-server.trace.json"]


def warmup(window_s: float) -> float:
    """The warm-up before a timed window of ``window_s``."""
    return min(WARMUP_S, window_s / 5.0)


def run_part(workload: Workload, frames: Frames, cpus: List[int],
             window_s: float, starts: int, out_dir: str, stem: str,
             traced: bool) -> Part:
    warmup_s = warmup(window_s)
    trace_paths = (
        tuple(os.path.join(out_dir, name) for name in trace_files(stem))
        if traced else None
    )
    if workload.wire:
        return asyncio.run(_run_wire(workload, frames, cpus, warmup_s,
                                     window_s, starts, trace_paths))
    return _run_inproc(workload, frames, cpus, warmup_s, window_s, starts,
                       trace_paths,
                       os.path.join(out_dir,
                                    f"{stem}-frames-{os.getpid()}.pkl"))


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _delta(marks: List[Dict[str, Any]], key: str) -> float:
    return marks[-1][key] - marks[0][key]


def _window_stats(part: Part, lo: int, hi: int) -> Dict[str, float]:
    """Rate, latency quantiles and server CPU per frame between two
    sub-window edges, as measured."""
    loop = part.loop
    done = np.asarray(loop.completed_at_s)
    sel = (done >= loop.edges_s[lo]) & (done < loop.edges_s[hi])
    lat_ms = np.asarray(loop.latencies_s)[sel] * 1e3
    frames = int(np.count_nonzero(sel))
    p50, p90 = np.percentile(lat_ms, [50, 90]) if frames else (0.0, 0.0)
    cpu_ms = (part.server[hi]["cpu_s"] - part.server[lo]["cpu_s"]) * 1e3
    return {
        "throughput_fps": _ratio(frames,
                                 loop.edges_s[hi] - loop.edges_s[lo]),
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "server_cpu_ms_per_frame": _ratio(cpu_ms, frames),
    }


def _at_nominal_speed(stats: Dict[str, float], slowdown: float,
                      cpu_slowdown: float) -> Dict[str, float]:
    """``stats`` as a host of nominal speed would have measured them:
    the rate scales up with the wall-clock slowdown, the latencies down
    with it, and the CPU time down with the CPU slowdown alone."""
    return {
        name: value * slowdown if name == "throughput_fps"
        else value / cpu_slowdown if name == "server_cpu_ms_per_frame"
        else value / slowdown
        for name, value in stats.items()
    }


def _window_slowdowns(part: Part, speed: HostSpeed) -> Tuple[float, float]:
    """The wall-clock and the CPU slowdown over the part's whole timed
    window."""
    edges = part.loop.edges_s
    if not edges:
        return 1.0, 1.0
    return (speed.slowdown(edges[0], edges[-1]),
            speed.cpu_slowdown(edges[0], edges[-1]))


def end_to_end(part: Part,
               speed: HostSpeed) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The gated metrics of an untraced part, plus printed-only extras.

    Rate, latency and CPU metrics are medians over the sub-windows, each
    scaled to nominal host speed by the reference readings and the
    stolen time during it.  Set-up time is the median over the cold
    starts, scaled over the whole set-up phase, first start to last
    ready: a single start spans one or two readings, too few to judge
    its own speed by.  The figures as measured are kept as extras.
    """
    edges = part.loop.edges_s
    spans = [(edges[k], edges[k + 1]) for k in range(len(edges) - 1)]
    slowdowns = [speed.slowdown(*span) for span in spans]
    subs = [_at_nominal_speed(_window_stats(part, k, k + 1), slowdowns[k],
                              speed.cpu_slowdown(*span))
            for k, span in enumerate(spans)]
    medians = {
        name: statistics.median(s[name] for s in subs) if subs else 0.0
        for name in ("throughput_fps", "latency_p50_ms", "latency_p90_ms",
                     "server_cpu_ms_per_frame")
    }
    setup_slowdown = speed.slowdown(part.setup[0][0], part.setup[-1][1])
    metrics = {
        **medians,
        "setup_s": statistics.median(t1 - t0 for t0, t1 in part.setup)
        / setup_slowdown,
        "peak_rss_mb": part.final["maxrss_kb"] / 1024.0,
    }
    metrics = {name: metrics[name] for name in END_TO_END_UNITS}
    lat_ms = np.asarray(part.loop.latencies_s, dtype=np.float64) * 1e3
    p99 = float(np.percentile(lat_ms, 99)) if lat_ms.size else 0.0
    done = part.loop.completed
    extras = {
        "host_slowdowns": slowdowns,
        "host_stolen": [speed.stolen(*span) for span in spans],
        "window_slowdown": _window_slowdowns(part, speed)[0],
        "measured_whole_window": (
            _window_stats(part, 0, len(edges) - 1) if subs else {}
        ),
        "subwindows": len(subs),
        "client_cpu_ms_per_frame": _ratio(
            _delta(part.client, "cpu_s") * 1e3, done) if subs else 0.0,
        "latency_p99_ms": float(p99),
        "latency_mean_ms": float(lat_ms.mean()) if lat_ms.size else 0.0,
        "samples": done,
        "samples_beyond_p99": int(np.count_nonzero(lat_ms > p99)),
        "error_rate": _ratio(part.loop.failed, part.loop.attempted),
        "attempted": part.loop.attempted,
        "errors": part.loop.errors,
        "mismatches": part.loop.mismatches,
        "shed": part.final["shed"],
        "window_s": part.loop.window_s,
        "measured_setup_samples_s": [t1 - t0 for t0, t1 in part.setup],
        "first_error": part.loop.first_error,
    }
    return metrics, extras


def _probe_deltas(marks: List[Dict[str, Any]]) -> Tuple[dict, dict]:
    start = marks[0].get("probes", {"timers": {}, "tallies": {}})
    end = marks[-1].get("probes", {"timers": {}, "tallies": {}})
    timers = {}
    for name, (calls, secs) in end["timers"].items():
        c0, s0 = start["timers"].get(name, (0, 0.0))
        timers[name] = (calls - c0, secs - s0)
    tallies = {
        name: value - start["tallies"].get(name, 0.0)
        for name, value in end["tallies"].items()
    }
    return timers, tallies


def _mean_us(timers: Dict[str, Tuple[int, float]], name: str) -> float:
    calls, secs = timers.get(name, (0, 0.0))
    return _ratio(secs * 1e6, calls)


def _phase_ms(part: Part, phase: str) -> float:
    start = part.server[0]["phases"].get(phase, (0, 0.0))
    end = part.server[-1]["phases"].get(phase, (0, 0.0))
    return _ratio((end[1] - start[1]) * 1e3, end[0] - start[0])


def _traced_layers(wire: bool, traced: Part,
                   layers_per_iteration: float) -> Dict[str, float]:
    """Layer metrics and stage rows (µs/frame) of one traced part, as
    measured.  Frame, step and slot-iteration counts are the service's
    own counters; the probes add timers and the queue/decode stamps."""
    timers, tallies = _probe_deltas(traced.server)
    client_timers, _ = _probe_deltas(traced.client)
    frames = _delta(traced.server, "frames_out")
    steps = _delta(traced.server, "engine_steps")
    slot_iterations = _delta(traced.server, "slot_iterations")
    mean_latency_us = (
        float(np.mean(traced.loop.latencies_s)) * 1e6
        if traced.loop.latencies_s else 0.0
    )
    stage = {
        "client encode": _mean_us(client_timers, "client.encode"),
        "gateway verify": _mean_us(timers, "gateway.verify"),
        "admission": _mean_us(timers, "admission.admit"),
        "submit": _mean_us(timers, "pool.submit"),
        "queue wait": _ratio(tallies.get("queue_wait_s", 0.0) * 1e6,
                             frames),
        "decode": _ratio(tallies.get("decode_s", 0.0) * 1e6, frames),
        "result encode": _mean_us(timers, "gateway.result_encode"),
        "client decode": _mean_us(client_timers, "client.decode"),
    }
    stage["unattributed"] = mean_latency_us - sum(stage.values())
    gateway_total_ms = _phase_ms(traced, "total")
    iterate_calls, iterate_s = timers.get("kernel.iterate", (0, 0.0))
    return {
        **{f"stage:{name}": value for name, value in stage.items()},
        "client.encode_us": stage["client encode"],
        "client.decode_us": stage["client decode"],
        "gateway.verify_us": stage["gateway verify"],
        "gateway.result_encode_us": stage["result encode"],
        "gateway.total_ms": gateway_total_ms,
        "gateway.respond_ms": _phase_ms(traced, "respond"),
        "wire.residual_ms": (
            mean_latency_us / 1e3 - gateway_total_ms if wire else 0.0
        ),
        "admission.admit_us": stage["admission"],
        "admission.shed_count": _delta(traced.server, "shed"),
        "pool.submit_us": stage["submit"],
        "pool.queue_wait_ms": stage["queue wait"] / 1e3,
        "pool.decode_ms": stage["decode"] / 1e3,
        "engine.step_us": _mean_us(timers, "engine.step"),
        "engine.steps_per_frame": _ratio(steps, frames),
        "engine.occupancy": _ratio(
            slot_iterations, steps * traced.server[-1]["batch_slots"]),
        "kernel.iterate_us": _ratio(iterate_s * 1e6, iterate_calls),
        "kernel.layer_ns": _ratio(
            iterate_s * 1e9, slot_iterations * layers_per_iteration),
        "kernel.iterations_mean": _ratio(slot_iterations, frames),
        "plan.misses": _delta(traced.server, "plan_misses"),
        "stage.unattributed_us": stage["unattributed"],
    }


def _plain_layers(plain: Part) -> Dict[str, float]:
    """CPU use of each side of one untraced part, as measured."""
    return {
        "server.cpu_util": _ratio(_delta(plain.server, "cpu_s"),
                                  _delta(plain.server, "wall_s")),
        "client.cpu_util": _ratio(_delta(plain.client, "cpu_s"),
                                  _delta(plain.client, "wall_s")),
        "client.cpu_ms_per_frame": _ratio(
            _delta(plain.client, "cpu_s") * 1e3, plain.loop.completed),
    }


def _mean_of(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.mean(d[key] for d in dicts) for key in dicts[0]}


def _layers_at_nominal_speed(layers: Dict[str, float], part: Part,
                             speed: HostSpeed) -> Dict[str, float]:
    """``layers`` with every time (stage rows included) divided by the
    part's slowdown over its window: CPU times by the CPU slowdown,
    wall-clock times by the wall-clock one."""
    slowdown, cpu_slowdown = _window_slowdowns(part, speed)
    return {
        name: value / cpu_slowdown if name in CPU_TIMES
        else value / slowdown
        if name.startswith("stage:") or PER_LAYER_UNITS.get(name) in TIMES
        else value
        for name, value in layers.items()
    }


def per_layer(wire: bool, pairs: List[Tuple[Part, Part]],
              layers_per_iteration: float, speed: HostSpeed
              ) -> Tuple[Dict[str, float], List[List[Any]], List[float]]:
    """Layer metrics of ``(untraced, traced)`` part pairs, the stage
    table in µs/frame, and each pair's tracing overhead.

    Layer figures are means over the pairs, their times at nominal host
    speed.  The overhead compares the two parts of a pair at nominal
    host speed; the metric is the median over the pairs.
    """
    layers = _mean_of([
        _layers_at_nominal_speed(
            _traced_layers(wire, traced, layers_per_iteration), traced, speed)
        for _, traced in pairs
    ])
    layers.update(_mean_of([
        _layers_at_nominal_speed(_plain_layers(plain), plain, speed)
        for plain, _ in pairs
    ]))
    overheads = [
        1.0 - _ratio(end_to_end(traced, speed)[0]["throughput_fps"],
                     end_to_end(plain, speed)[0]["throughput_fps"])
        for plain, traced in pairs
    ]
    layers["trace.overhead"] = statistics.median(overheads)
    rows = [[key[len("stage:"):], layers[key]]
            for key in layers if key.startswith("stage:")]
    return {name: layers[name] for name in PER_LAYER_UNITS}, rows, overheads


# ----------------------------------------------------------------------
# one workload, end to end
# ----------------------------------------------------------------------
def run_workload(workload: Workload, why: str, args: argparse.Namespace,
                 cpus: List[int], speed: HostSpeed) -> Dict[str, Any]:
    """Run one workload; returns its section of the result document."""
    frames = make_frames(workload, args.seed)
    stem = f"{workload.name}-seed{args.seed}"
    section: Dict[str, Any] = {"why": why, "frames": len(frames)}
    if not args.trace:
        part = run_part(workload, frames, cpus, args.seconds, SETUP_STARTS,
                        args.out, stem, traced=False)
        metrics, extras = end_to_end(part, speed)
        section.update(
            metrics={k: {"value": v, "unit": END_TO_END_UNITS[k]}
                     for k, v in metrics.items()},
            extras=extras,
            correct=part.correct,
            attempted=part.loop.attempted,
            failed=part.loop.failed,
        )
        return section
    # the traced run splits the window into four parts, untraced and
    # traced in the order A B B A, so the overhead of each (A, B) pair
    # is taken side by side and a steady drift cancels between pairs
    parts = [
        run_part(workload, frames, cpus, args.seconds / 4.0, 1, args.out,
                 stem, traced=traced)
        for traced in (False, True, True, False)
    ]
    pairs = [(parts[0], parts[1]), (parts[3], parts[2])]
    if all(p.correct for p in parts):
        metrics, rows, overheads = per_layer(
            workload.wire, pairs, frames.layers_per_iteration(), speed)
    else:  # a failure cut a window short: nothing to attribute
        metrics, rows, overheads = dict.fromkeys(PER_LAYER_UNITS, 0.0), [], []
    section.update(
        metrics={k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                 for k, v in metrics.items()},
        stage_table_us=rows,
        extras={
            "untraced": [end_to_end(plain, speed)[1] for plain, _ in pairs],
            "traced": [end_to_end(traced, speed)[1] for _, traced in pairs],
            "trace_overhead_pairs": overheads,
            # in process, the server's recorder sees the whole request;
            # both traced parts write these, the later one last
            "traces": trace_files(stem)[0 if workload.wire else 1:],
        },
        correct=all(p.correct for p in parts),
        attempted=sum(p.loop.attempted for p in parts),
        failed=sum(p.loop.failed for p in parts),
    )
    return section


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def report(name: str, section: Dict[str, Any]) -> str:
    """Human-readable block for one workload."""
    lines = [f"== {name} ==  ({section['why']})"]
    for metric, entry in section["metrics"].items():
        lines.append(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    extras = section["extras"]
    for label, ex in (
        [("", extras)] if "samples" in extras
        else [(f"{kind} {i + 1}: ", ex)
              for kind in ("untraced", "traced")
              for i, ex in enumerate(extras[kind])]
    ):
        lines.append(
            f"  {label}samples {ex['samples']} in {ex['window_s']:.2f} s, "
            f"p99 {ex['latency_p99_ms']:.3f} ms "
            f"({ex['samples_beyond_p99']} beyond), error_rate "
            f"{ex['error_rate']:.4g} ({ex['errors']} errors + "
            f"{ex['mismatches']} mismatches of {ex['attempted']}), "
            f"shed {ex['shed']:g}, client CPU "
            f"{ex['client_cpu_ms_per_frame']:.4g} ms/frame, host slowdown "
            f"{statistics.median(ex['host_slowdowns'] or [0.0]):.3f} "
            f"({statistics.mean(ex['host_stolen'] or [0.0]):.1%} stolen)"
        )
        if ex["first_error"]:
            lines.append(f"  {label}first error: {ex['first_error']}")
    if "trace_overhead_pairs" in extras:
        lines.append("  trace.overhead per (untraced, traced) pair: " + ", ".join(
            f"{o:.4f}" for o in extras["trace_overhead_pairs"]))
    if "stage_table_us" in section:
        lines.append(f"  {'stage':<16} {'mean us/frame':>14}")
        for stage, value in section["stage_table_us"]:
            lines.append(f"  {stage:<16} {value:>14.2f}")
        total = sum(value for _, value in section["stage_table_us"])
        lines.append(f"  {'= mean latency':<16} {total:>14.2f}")
    lines.append(f"  correct: {section['correct']}")
    return "\n".join(lines)


def _parse(argv: Optional[List[str]],
           default_seconds: float) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Closed-loop, stage-attributed benchmark of the "
                    "decode serving stack (see bench/README.md).",
    )
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable; "
                             "default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="timed window in seconds (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", default=os.path.join(ROOT, "bench", "out"),
                        help="directory for result documents and traces")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    args = _parse(argv, float(spec["run_seconds"]))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = args.workload or list(WORKLOADS)
    cpus = placement()
    os.makedirs(args.out, exist_ok=True)
    restore = os.sched_getaffinity(0) if cpus else None
    if cpus:
        os.sched_setaffinity(0, cpus)
    speed = HostSpeed(cpus, ROOT)
    try:
        sections = {
            name: run_workload(WORKLOADS[name], whys.get(name, ""), args,
                               cpus, speed)
            for name in names
        }
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        speed.close()
        if restore is not None:
            os.sched_setaffinity(0, restore)
    correct = all(s["correct"] for s in sections.values())
    doc = {
        "provenance": provenance(args, cpus),
        "workloads": sections,
        "correct": correct,
    }
    tag = names[0] if len(names) == 1 else "all"
    path = os.path.join(args.out,
                        f"run-{tag}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)
    for name, section in sections.items():
        print(report(name, section))
    print(f"result document: {path}")
    if len(names) == 1:
        metrics = sections[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{metric}": entry
                   for name, section in sections.items()
                   for metric, entry in section["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in sections.values()),
        "failed": sum(s["failed"] for s in sections.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1
