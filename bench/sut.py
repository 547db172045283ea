"""The system under test, run as its own pinned process.

``python -m bench.sut '<json config>'`` builds the service (and, for
wire workloads, the admission controller and gateway) with library
defaults, then answers JSON-lines commands on stdin:

* ``{"cmd": "mark"}`` -> ``{"event": "mark", ...}``: a snapshot of
  process CPU, the service's frame and engine-step counters, layer
  probes, gateway phase histograms, shed and plan-cache counters,
  taken at a sub-window edge;
* ``{"cmd": "run", ...}`` (in-process workloads) -> ``{"event":
  "result", ...}``: the closed loop runs here, on the service's core;
* ``{"cmd": "quit"}`` -> ``{"event": "closed", ...}`` after a clean
  shutdown (and the Chrome trace, when traced).

Config keys: ``workload``, ``cpus`` (affinity to apply first),
``traced`` and ``trace_out``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import pickle
import resource
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

from bench.probes import Probes, server_probes
from bench.workloads import TENANT, WORKLOADS, Frames, Workload, closed_loop
from repro.accel.plan import default_plan_cache
from repro.net import AdmissionController, DecodeGateway, TenantPolicy
from repro.obs.trace import TraceRecorder
from repro.serve import DecodeService

#: Quota far above any rate one core reaches: the benchmark measures
#: the admission path, never a refusal.
_UNLIMITED = TenantPolicy(rate=1e9, burst=1e9)


def peak_rss_kb() -> int:
    """This process's own resident-set high-water mark, in KiB.

    ``ru_maxrss`` is no use here: across fork and exec Linux carries
    the parent's RSS into the child's maximum, so a small child would
    report the load generator's footprint.  ``VmHWM`` belongs to the
    process's own address space.
    """
    with contextlib.suppress(OSError):
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def emit(message: Dict[str, Any]) -> None:
    """Write one JSON line to the controlling process."""
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


class SystemUnderTest(object):
    """The service (plus gateway for wire workloads) and its probes."""

    def __init__(self, workload: Workload, traced: bool) -> None:
        self.workload = workload
        self.recorder: Optional[TraceRecorder] = (
            TraceRecorder() if traced else None
        )
        self.probes: Optional[Probes] = Probes() if traced else None
        traced_kwargs = {"recorder": self.recorder} if traced else {}
        self.service = DecodeService.from_registry(workload.code_ids,
                                                   **traced_kwargs)
        self.admission: Optional[AdmissionController] = None
        self.gateway: Optional[DecodeGateway] = None
        if workload.wire:
            self.admission = AdmissionController({TENANT: _UNLIMITED})
            self.gateway = DecodeGateway(self.service, self.admission,
                                         **traced_kwargs)

    @contextlib.contextmanager
    def probed(self) -> Iterator[None]:
        """Layer probes installed for the traced run, none otherwise."""
        if self.probes is None:
            yield
            return
        with server_probes(self.probes, self.service, self.admission):
            yield

    def snapshot(self) -> Dict[str, Any]:
        """Cumulative counters; the driver differences two of these."""
        serve = self.service.metrics.snapshot()
        snap: Dict[str, Any] = {
            "wall_s": time.perf_counter(),
            "cpu_s": time.process_time(),
            "thread_cpu_s": time.thread_time(),
            "maxrss_kb": peak_rss_kb(),
            "plan_misses": default_plan_cache().misses,
            "shed": serve.frames_shed,
            "frames_out": serve.frames_out,
            "engine_steps": serve.engine_steps,
            "slot_iterations": serve.slot_iterations,
            "batch_slots": self.service.batch_size,
            "phases": {},
        }
        if self.gateway is not None:
            registry = self.gateway.metrics.registry
            snap["shed"] += registry.get("net_shed_total").total()
            hist = registry.get("net_request_seconds")
            for labels in hist.label_dicts():
                entry = snap["phases"].setdefault(labels["phase"], [0, 0.0])
                entry[0] += hist.count(**labels)
                entry[1] += hist.sum(**labels)
        if self.probes is not None:
            snap["probes"] = self.probes.snapshot()
        return snap

    # ------------------------------------------------------------------
    # wire layout: serve until told to quit
    # ------------------------------------------------------------------
    async def serve_gateway(self) -> None:
        _host, port = await self.gateway.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        emit({"event": "ready", "port": port})
        control = threading.Thread(
            target=self._control, args=(loop, stop), name="bench-control",
            daemon=True,
        )
        control.start()
        await stop.wait()
        await self.gateway.close()
        control.join(timeout=10.0)

    def _control(self, loop: asyncio.AbstractEventLoop,
                 stop: asyncio.Event) -> None:
        for line in sys.stdin:
            cmd = json.loads(line)["cmd"]
            if cmd == "mark":
                emit({"event": "mark", **self.snapshot()})
            elif cmd == "quit":
                break
        loop.call_soon_threadsafe(stop.set)

    # ------------------------------------------------------------------
    # in-process layout: the closed loop runs on this core
    # ------------------------------------------------------------------
    def serve_inproc(self) -> None:
        emit({"event": "ready"})
        for line in sys.stdin:
            msg = json.loads(line)
            if msg["cmd"] == "run":
                with open(msg["frames"], "rb") as handle:
                    frames = pickle.load(handle)
                emit({"event": "result",
                      **asyncio.run(self._drive(frames, msg["warmup_s"],
                                                msg["window_s"]))})
            elif msg["cmd"] == "quit":
                break

    async def _drive(self, frames: Frames, warmup_s: float,
                     window_s: float) -> Dict[str, Any]:
        marks: List[Dict[str, Any]] = []

        async def send(_slot: int, i: int):
            future = self.service.submit(frames.llrs[i],
                                         code_key=frames.code_ids[i])
            result = (await asyncio.wrap_future(future)).result
            return result.bits, result.iterations, result.converged

        result = await closed_loop(send, frames, self.workload.slots,
                                   warmup_s, window_s,
                                   lambda _edge: marks.append(self.snapshot()))
        return {"loop": dataclasses.asdict(result), "marks": marks}


def main(argv: Optional[list] = None) -> int:
    config = json.loads((sys.argv[1:] if argv is None else argv)[0])
    if config.get("cpus") and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, config["cpus"])
    sut = SystemUnderTest(WORKLOADS[config["workload"]], config["traced"])
    try:
        with sut.probed():
            if sut.gateway is not None:
                asyncio.run(sut.serve_gateway())
            else:
                sut.serve_inproc()
    finally:
        sut.service.close()
    if sut.recorder is not None:
        sut.recorder.write_chrome_trace(config["trace_out"])
    emit({"event": "closed", **sut.snapshot()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
