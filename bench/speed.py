"""Host speed reference: fixed work, timed in CPU seconds on one core.

The CPUs of a shared virtual machine change speed as neighbouring
tenants come and go: on the 2-vCPU host this benchmark was built on,
the same workload measured 258 to 492 frames/s within minutes, and the
server's CPU time per frame moved with it.  So while the benchmark
runs, a small speedometer process pinned to the benchmark's CPU times
this reference work every :data:`INTERVAL_S`, and the driver scales
every timing it reports to a host on which the reference takes
:data:`NOMINAL_REFERENCE_S`.  The reference is the benchmark's own
code in its own process, so no change to the program can move it.

It mimics the program's mix: NumPy min-sum passes over a 16-frame batch
of a 2304-bit code (what the kernel does), then dictionary work in
Python bytecode (what the event loop and the codecs do).  It is timed
with ``time.thread_time``, so the server's time on the shared core does
not count; the fastest of a few passes keeps a preemption or a cold
cache out of the figure.

CPU time leaves out a second loss: wall time in which the hypervisor
ran another tenant on the CPU ("steal", which Linux counts per CPU in
``/proc/stat``).  Each reading therefore also carries the CPU's stolen
and total ticks so far, and wall-clock timings are scaled by the share
of the CPU that was left (:meth:`HostSpeed.slowdown`), CPU times by the
reference alone (:meth:`HostSpeed.cpu_slowdown`).

``python -m bench.speed '<json list of CPUs>'`` is the speedometer: it
prints ``[perf_counter instant, reference seconds, stolen ticks, total
ticks]`` lines until its stdin closes.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

#: About the median reading on the host this benchmark was built on
#: (Xeon, 2 vCPUs: 1.05 ms over 30 s with nothing else running).
#: Timings are reported as if the reference took exactly this.
NOMINAL_REFERENCE_S = 1.0e-3

#: Passes per reading; the fastest one counts.
PASSES = 5

#: Time between readings; a reading costs about PASSES ms of the
#: server's CPU, 2 % of the core at this interval.
INTERVAL_S = 0.25

_HALF = 1152


def _work(block: np.ndarray) -> int:
    a = block
    for _ in range(8):
        left, right = a[:, :_HALF], a[:, _HALF:]
        m = np.minimum(np.abs(left), np.abs(right))
        s = np.sign(left) * np.sign(right)
        a = np.concatenate([left - s * m, right + 0.5 * s * m], axis=1)
    table: dict = {}
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
    return len(table)


def reference_s(block: np.ndarray) -> float:
    """CPU seconds of the fastest of :data:`PASSES` reference passes."""
    best = float("inf")
    for _ in range(PASSES):
        t0 = time.thread_time()
        _work(block)
        best = min(best, time.thread_time() - t0)
    return best


def cpu_ticks(cpus: List[int]) -> Tuple[int, int]:
    """``(stolen, total)`` ticks of ``cpus`` since boot, from
    ``/proc/stat``; ``(0, 0)`` where the kernel does not report them."""
    names = {f"cpu{c}" for c in cpus}
    stolen = total = 0
    try:
        with open("/proc/stat") as handle:
            for line in handle:
                fields = line.split()
                if fields and fields[0] in names and len(fields) > 8:
                    # user nice system idle iowait irq softirq steal
                    ticks = [int(f) for f in fields[1:9]]
                    stolen += ticks[7]
                    total += sum(ticks)
    except (OSError, ValueError):
        return 0, 0
    return stolen, total


class HostSpeed(object):
    """The speedometer process pinned to ``cpus``, and its readings."""

    def __init__(self, cpus: List[int], root: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "bench.speed", json.dumps(cpus)],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=root),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lock = threading.Lock()
        #: ``(instant, reference seconds, stolen ticks, total ticks)``
        self._readings: List[Tuple[float, float, int, int]] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            reading = tuple(json.loads(line))
            with self._lock:
                self._readings.append(reading)

    def cpu_slowdown(self, t0: float, t1: float) -> float:
        """How much slower than nominal the core computed from ``t0``
        to ``t1`` (``perf_counter`` instants): the mean reading between
        them over :data:`NOMINAL_REFERENCE_S`, or the reading nearest
        the middle when none fell between.  Scales CPU times.

        The mean, not the median: work done over the interval follows
        the mean speed, bursts of slowness included.
        """
        with self._lock:
            readings = list(self._readings)
        if not readings:
            return 1.0
        inside = [r[1] for r in readings if t0 <= r[0] <= t1]
        if not inside:
            middle = (t0 + t1) / 2.0
            inside = [min(readings, key=lambda r: abs(r[0] - middle))[1]]
        return statistics.mean(inside) / NOMINAL_REFERENCE_S

    def stolen(self, t0: float, t1: float) -> float:
        """Share of the CPU's wall time from ``t0`` to ``t1`` that the
        hypervisor gave to other tenants, between the readings nearest
        those instants (0 when they are the same reading)."""
        with self._lock:
            readings = list(self._readings)
        if not readings:
            return 0.0
        first = min(readings, key=lambda r: abs(r[0] - t0))
        last = min(readings, key=lambda r: abs(r[0] - t1))
        total = last[3] - first[3]
        return (last[2] - first[2]) / total if total > 0 else 0.0

    def slowdown(self, t0: float, t1: float) -> float:
        """How much slower than nominal the core delivered work in wall
        time from ``t0`` to ``t1``: :meth:`cpu_slowdown` over the share
        of the CPU not stolen.  Scales rates and wall-clock times."""
        left = 1.0 - self.stolen(t0, t1)
        return self.cpu_slowdown(t0, t1) / max(left, 0.1)

    def close(self) -> None:
        """Stop the speedometer and reap it."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10.0)


def main(argv: Optional[List[str]] = None) -> int:
    cpus = json.loads((sys.argv[1:] if argv is None else argv)[0])
    if cpus and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)
    block = (np.random.default_rng(0)
             .standard_normal((16, 2 * _HALF)).astype(np.float32))
    while True:
        t0 = time.perf_counter()
        seconds = reference_s(block)
        print(json.dumps([(t0 + time.perf_counter()) / 2.0, seconds,
                          *cpu_ticks(cpus)]),
              flush=True)
        # stdin turns readable only when the driver closes it
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            return 0


if __name__ == "__main__":
    sys.exit(main())
