"""Per-layer timing probes, installed from outside the program.

The traced run wraps public callables of each layer — module attributes
such as ``repro.net.gateway.decode_frame`` and methods such as
``ContinuousBatchingEngine.step`` — with timers, so layer costs are
measured without editing ``src/``.  Probes only accumulate; the driver
takes deltas between the snapshots at the window's first and last edge.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator

import repro.net.client
import repro.net.gateway
import repro.net.protocol
from repro.serve.engine import ContinuousBatchingEngine


class Probes(object):
    """Thread-safe named call timers and tallies."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._timers: Dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._tallies: Dict[str, float] = defaultdict(float)

    def add(self, name: str, seconds: float) -> None:
        """Record one call of ``name`` that took ``seconds``."""
        with self._lock:
            timer = self._timers[name]
            timer[0] += 1
            timer[1] += seconds

    def tally(self, **amounts: float) -> None:
        """Add to named running totals."""
        with self._lock:
            for name, amount in amounts.items():
                self._tallies[name] += amount

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call is recorded under ``name``."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - t0)

        return wrapper

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-data copy: ``{"timers": {name: [calls, seconds]},
        "tallies": {name: total}}``."""
        with self._lock:
            return {
                "timers": {k: list(v) for k, v in self._timers.items()},
                "tallies": dict(self._tallies),
            }


@contextlib.contextmanager
def _patched(target: Any, name: str, value: Any) -> Iterator[None]:
    original = getattr(target, name)
    setattr(target, name, value)
    try:
        yield
    finally:
        setattr(target, name, original)


def _untime_kernels(kernels: "weakref.WeakSet[Any]") -> None:
    for kernel in list(kernels):
        del kernel.iterate_once  # the class method shows through again


@contextlib.contextmanager
def client_probes(probes: Probes) -> Iterator[None]:
    """Time the client library's request encode and reply decode."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(_patched(
            repro.net.client, "encode_request",
            probes.timed("client.encode", repro.net.client.encode_request),
        ))
        # the client's read_frame resolves decode_frame in the protocol
        # module; the gateway imported its own reference, so this sees
        # client-side decodes only
        stack.enter_context(_patched(
            repro.net.protocol, "decode_frame",
            probes.timed("client.decode", repro.net.protocol.decode_frame),
        ))
        yield


@contextlib.contextmanager
def server_probes(probes: Probes, service: Any,
                  admission: Any = None) -> Iterator[None]:
    """Time the gateway codec, admission, submit, engine step and kernel.

    Engine steps also tally the retired frames' queue wait and decode
    time from their public :class:`CompletedJob` stamps; step, frame and
    slot-iteration counts come from the service's own metrics.
    """
    timed_kernels: "weakref.WeakSet[Any]" = weakref.WeakSet()
    step = ContinuousBatchingEngine.step

    def probed_step(engine: ContinuousBatchingEngine) -> list:
        kernel = engine.kernel
        if kernel not in timed_kernels:
            kernel.iterate_once = probes.timed("kernel.iterate",
                                               kernel.iterate_once)
            timed_kernels.add(kernel)
        t0 = time.perf_counter()
        completed = step(engine)
        probes.add("engine.step", time.perf_counter() - t0)
        queue_wait_s = decode_s = 0.0
        for done in completed:
            job = done.job
            dispatched = job.dispatched_at or job.enqueued_at
            queue_wait_s += dispatched - job.enqueued_at
            decode_s += done.completed_at - dispatched
        probes.tally(queue_wait_s=queue_wait_s, decode_s=decode_s)
        return completed

    with contextlib.ExitStack() as stack:
        stack.callback(_untime_kernels, timed_kernels)
        stack.enter_context(_patched(ContinuousBatchingEngine, "step",
                                     probed_step))
        stack.enter_context(_patched(
            service, "submit", probes.timed("pool.submit", service.submit)
        ))
        if admission is not None:
            stack.enter_context(_patched(
                admission, "admit",
                probes.timed("admission.admit", admission.admit),
            ))
            stack.enter_context(_patched(
                repro.net.gateway, "decode_frame",
                probes.timed("gateway.verify",
                             repro.net.gateway.decode_frame),
            ))
            stack.enter_context(_patched(
                repro.net.gateway, "encode_result",
                probes.timed("gateway.result_encode",
                             repro.net.gateway.encode_result),
            ))
        yield
