"""Workloads, seeded inputs, the oracle, and the closed-loop driver.

Everything here is shared by the load generator (``bench/driver.py``)
and the system-under-test process (``bench/sut.py``), so both layouts
send the same frames and check replies the same way.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.channel.awgn import AwgnChannel
from repro.codes.registry import default_registry
from repro.decoder.layered import LayeredMinSumDecoder
from repro.errors import ServeError
from repro.net.protocol import pack_llrs, unpack_llrs

#: Distinct frames generated for every workload, split evenly over its
#: codes.  With 256 frames of the 2304-bit code, the mean oracle
#: iteration count, which the decode cost follows, varied by about 2 %
#: between seeds; the oracle takes about 3.5 s for 1024 such frames.
FRAMES_PER_WORKLOAD = 1024

#: Tenant every benchmark connection speaks as.
TENANT = "bench"

#: Target length of the sub-windows the end-to-end metrics take medians
#: over, so a few seconds of host slowdown cannot skew a whole run.
SUBWINDOW_S = 2.0

#: How long requests still in flight at the window's end may take to
#: finish; stragglers past it count as failed, so a hang never sticks.
DRAIN_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload(object):
    """One closed-loop traffic mix.

    ``connections == 0`` means the in-process layout: the generator
    calls ``DecodeService.submit`` directly, ``in_flight`` at a time.
    """

    name: str
    code_ids: Tuple[str, ...]
    ebno_db: float
    connections: int
    in_flight: int

    @property
    def wire(self) -> bool:
        """True when traffic crosses the gateway over loopback TCP."""
        return self.connections > 0

    @property
    def slots(self) -> int:
        """Requests in flight at once across the whole generator."""
        return max(1, self.connections) * self.in_flight


#: Why each workload exists is recorded next to its name in
#: ``BENCHMARK.json`` and argued in ``bench/README.md``.
WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload("wire-2304-c16", ("wimax-r12-2304",), 2.5, 2, 8),
        Workload("inproc-2304-c16", ("wimax-r12-2304",), 2.5, 0, 16),
        Workload("wire-zoo-short-c16",
                 ("wimax-r12-576", "wifi-r34-648", "nr-bg2-z16"), 4.0, 2, 8),
        Workload("wire-2304-c1", ("wimax-r12-2304",), 2.5, 1, 1),
    )
}


@dataclass
class Frames(object):
    """A workload's inputs and their oracle replies, in send order.

    Frames interleave round-robin by code id.  ``llrs`` are the
    canonical wire LLRs: int8-quantized once, with the scale rounded to
    the wire's float32, so the gateway decodes exactly these values and
    the in-process layout submits exactly these values.
    """

    code_ids: List[str]
    llrs: List[np.ndarray]
    bits: List[np.ndarray]
    iterations: np.ndarray
    converged: np.ndarray
    #: layers of each frame's code
    layers: np.ndarray

    def __len__(self) -> int:
        return len(self.llrs)

    def layers_per_iteration(self) -> float:
        """Mean layers one frame-iteration sweeps over the whole set,
        weighting each frame by its oracle iteration count."""
        return float(np.dot(self.iterations, self.layers)
                     / self.iterations.sum())

    def matches(self, i: int, bits: np.ndarray, iterations: int,
                converged: bool) -> bool:
        """True when a reply for frame ``i`` equals the oracle's."""
        return (
            int(iterations) == int(self.iterations[i])
            and bool(converged) == bool(self.converged[i])
            and np.array_equal(np.asarray(bits, dtype=np.uint8), self.bits[i])
        )


def make_frames(workload: Workload, seed: int) -> Frames:
    """Seeded frames for ``workload`` plus their oracle replies.

    Each code draws from its own stream ``(seed, code index)``; the
    reference is the per-frame :class:`LayeredMinSumDecoder` at its
    library defaults, computed here, before any timing starts.
    """
    registry = default_registry()
    per_code = []
    for index, code_id in enumerate(workload.code_ids):
        code = registry.get(code_id)
        encoder = registry.encoder(code_id)
        oracle = LayeredMinSumDecoder(code)
        rng = np.random.default_rng((seed, index))
        rows = []
        for _ in range(FRAMES_PER_WORKLOAD // len(workload.code_ids)):
            codeword = encoder.encode(
                rng.integers(0, 2, encoder.k).astype(np.uint8)
            )
            channel = AwgnChannel.from_ebno(workload.ebno_db, code.rate,
                                            seed=rng)
            i8, scale = pack_llrs(channel.llrs(codeword))
            llrs = unpack_llrs(i8, np.float32(scale))
            ref = oracle.decode(llrs)
            rows.append((code_id, llrs, ref.bits.astype(np.uint8),
                         ref.iterations, ref.converged, code.num_layers))
        per_code.append(rows)
    ordered = [row for group in zip(*per_code) for row in group]
    return Frames(
        code_ids=[r[0] for r in ordered],
        llrs=[r[1] for r in ordered],
        bits=[r[2] for r in ordered],
        iterations=np.array([r[3] for r in ordered], dtype=np.int64),
        converged=np.array([r[4] for r in ordered], dtype=bool),
        layers=np.array([r[5] for r in ordered], dtype=np.int64),
    )


#: ``send(slot, frame index)`` -> ``(bits, iterations, converged)``.
Send = Callable[[int, int], Awaitable[Tuple[np.ndarray, int, bool]]]


@dataclass
class LoopResult(object):
    """What one closed-loop run saw.

    ``edges_s`` are the ``perf_counter`` instants of the sub-window
    boundaries, first to last spanning the timed window.
    ``latencies_s`` and ``completed_at_s`` cover verified replies that
    arrived inside the window; ``attempted`` / ``errors`` /
    ``mismatches`` cover every request of the run, warm-up included.
    """

    edges_s: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    completed_at_s: List[float] = field(default_factory=list)
    attempted: int = 0
    errors: int = 0
    mismatches: int = 0
    first_error: Optional[str] = None

    @property
    def completed(self) -> int:
        """Verified replies inside the timed window."""
        return len(self.latencies_s)

    @property
    def window_s(self) -> float:
        """Length of the timed window (0 when it never closed)."""
        return self.edges_s[-1] - self.edges_s[0] if self.edges_s else 0.0

    @property
    def failed(self) -> int:
        """Typed errors, timeouts and oracle mismatches."""
        return self.errors + self.mismatches


def subwindow_count(window_s: float) -> int:
    """Sub-windows of about :data:`SUBWINDOW_S` in a timed window."""
    return max(1, int(round(window_s / SUBWINDOW_S)))


async def closed_loop(
    send: Send,
    frames: Frames,
    slots: int,
    warmup_s: float,
    window_s: float,
    on_edge: Callable[[int], None],
) -> LoopResult:
    """Drive ``slots`` closed-loop senders for warm-up + window.

    Each slot sends its next frame as soon as its reply is verified;
    frames are taken from one shared counter, so the send order is the
    round-robin order of ``frames``.  The window is cut into
    :func:`subwindow_count` equal sub-windows and ``on_edge(k)`` runs at
    each of their boundaries, ``k = 0 .. count`` (the caller snapshots
    CPU and layer counters there); after a failure the last edges may
    never come.  A typed error stops every slot: a failed request voids
    the run, and stopping keeps a dead connection from spinning the
    loop.
    """
    out = LoopResult()
    state = {"phase": "warmup", "next": 0}

    async def slot(index: int) -> None:
        while state["phase"] != "stop":
            i = state["next"] % len(frames)
            state["next"] += 1
            t0 = time.perf_counter()
            try:
                bits, iterations, converged = await send(index, i)
            except ServeError as exc:
                out.attempted += 1
                out.errors += 1
                out.first_error = out.first_error or repr(exc)
                state["phase"] = "stop"
                return
            ok = frames.matches(i, bits, iterations, converged)
            t1 = time.perf_counter()
            out.attempted += 1
            if not ok:
                out.mismatches += 1
            elif state["phase"] == "window":
                out.latencies_s.append(t1 - t0)
                out.completed_at_s.append(t1)

    async def clock() -> None:
        await asyncio.sleep(warmup_s)
        count = subwindow_count(window_s)
        start = time.perf_counter()
        for k in range(count + 1):
            await asyncio.sleep(
                max(0.0, start + k * window_s / count - time.perf_counter())
            )
            if state["phase"] == "stop":
                return
            out.edges_s.append(time.perf_counter())
            on_edge(k)
            state["phase"] = "window"
        state["phase"] = "stop"

    senders = [asyncio.ensure_future(slot(k)) for k in range(slots)]
    await clock()
    done, stuck = await asyncio.wait(senders, timeout=DRAIN_TIMEOUT_S)
    for task in stuck:
        task.cancel()
    for task in done:
        task.result()  # a bug in a sender surfaces here, not silently
    if stuck:
        out.attempted += len(stuck)
        out.errors += len(stuck)
        out.first_error = out.first_error or (
            f"{len(stuck)} requests unanswered {DRAIN_TIMEOUT_S:g}s after "
            f"the window closed"
        )
    return out
