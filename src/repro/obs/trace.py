"""Ring-buffered tracing: nested spans and instant events.

The hardware evaluation of the paper is *activity-driven* — Table I's
power numbers come from counting which blocks toggle on which cycles.
:class:`TraceRecorder` is the software analogue: every runtime subsystem
(the numpy decoders, the continuous-batching engine, the worker pool,
the fault campaigns) reports what it is doing as *spans* (timed, nested
intervals) and *events* (instants), and one recorder aggregates them
into a bounded ring buffer.

Design constraints, in order:

* **near-zero overhead when disabled** — a disabled recorder's
  :meth:`span` returns one shared no-op context manager and
  :meth:`event` is a single attribute test, so instrumented hot loops
  pay only a branch;
* **bounded memory** — the buffer is a ring of ``capacity`` records;
  old records are evicted (and counted in :attr:`dropped`) rather than
  growing without bound under serving traffic;
* **thread-safe** — spans nest per thread (a ``threading.local`` stack)
  and the buffer append takes a lock, so one recorder can observe a
  whole multi-worker service.

Records export as a Chrome-trace JSON timeline (``about:tracing`` /
Perfetto schema) via :meth:`to_chrome_trace`, and aggregate into a text
report via :meth:`report`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.utils.tables import render_table

__all__ = [
    "SpanRecord",
    "TraceContext",
    "TraceRecorder",
    "NULL_SPAN",
    "NULL_TRACE",
    "new_trace_id",
]


@dataclass(frozen=True)
class TraceContext(object):
    """Wire-portable trace coordinates for one hop of a request.

    ``trace_id`` names the whole distributed request (one id from the
    first client span to the last worker span); ``span_id`` is the
    sender's span at this hop, i.e. the *parent* the receiver should
    hang its own spans under.  Both travel as u64s on every
    REQUEST/RESULT/ERROR frame; ``(0, 0)`` means "no context" and is
    falsy.
    """

    trace_id: int
    span_id: int

    def __bool__(self) -> bool:
        return bool(self.trace_id)


#: The absent trace context (what an untraced hop puts on the wire).
NULL_TRACE = TraceContext(0, 0)


def new_trace_id() -> int:
    """A fresh nonzero u64 trace id.

    uuid4-derived, so ids stay collision-free across clients, processes
    and (eventually) hosts without any coordination.
    """
    return (uuid.uuid4().int >> 64) or 1


class SpanRecord(NamedTuple):
    """One finished span or instant event.

    A named tuple rather than a frozen dataclass: hot loops (one
    ``batch.layer`` span per layer update) build one per span, and a
    tuple is built in well under half the time.

    Attributes
    ----------
    name:
        Dotted span name, e.g. ``"decode.layer"`` or ``"pool.crash"``.
    start_s / end_s:
        ``time.perf_counter`` instants relative to the recorder's epoch.
        Instant events have ``end_s == start_s``.
    kind:
        ``"span"`` or ``"event"``.
    span_id / parent_id:
        Recorder-unique id and the id of the enclosing span (or None).
    depth:
        Nesting depth at record time (0 = top level).
    thread_id:
        ``threading.get_ident()`` of the recording thread.
    labels:
        Sorted ``(key, value)`` pairs attached at record time.
    """

    name: str
    start_s: float
    end_s: float
    kind: str = "span"
    span_id: int = 0
    parent_id: Optional[int] = None
    depth: int = 0
    thread_id: int = 0
    labels: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration_s(self) -> float:
        """Wall-clock span length in seconds (0 for instant events)."""
        return self.end_s - self.start_s

    @property
    def label_dict(self) -> Dict[str, Any]:
        """The span's labels as a plain ``{name: value}`` dict."""
        return dict(self.labels)


class _NullSpan(object):
    """Shared no-op context manager returned by a disabled recorder."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: The singleton no-op span (also usable as an explicit placeholder).
NULL_SPAN = _NullSpan()

#: Sentinel distinguishing "parent not given" from "parent is None
#: (top-level)" in :meth:`TraceRecorder.complete`.
_UNSET = object()


class _Span(object):
    """A live span handle; commits a :class:`SpanRecord` on exit."""

    __slots__ = ("_recorder", "name", "labels", "start_s", "span_id",
                 "parent_id", "depth")

    def __init__(self, recorder: "TraceRecorder", name: str,
                 labels: Tuple[Tuple[str, Any], ...]) -> None:
        self._recorder = recorder
        self.name = name
        self.labels = labels

    def __enter__(self) -> "_Span":
        rec = self._recorder
        stack = rec._stack()
        parent = stack[-1] if stack else None
        self.span_id = next(rec._ids)
        self.parent_id = parent.span_id if parent is not None else None
        self.depth = len(stack)
        stack.append(self)
        self.start_s = time.perf_counter() - rec.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end_s = time.perf_counter() - self._recorder.epoch
        stack = self._recorder._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._recorder._append(
            SpanRecord(
                name=self.name,
                start_s=self.start_s,
                end_s=end_s,
                kind="span",
                span_id=self.span_id,
                parent_id=self.parent_id,
                depth=self.depth,
                thread_id=threading.get_ident(),
                labels=self.labels,
            )
        )


class _SpanRun(tuple):
    """Sibling spans from one :meth:`TraceRecorder.complete_spans` call.

    ``(name, clock, offset, spans, ids, parent_id, depth, thread_id)``:
    the call's clock readings and span table, built into
    :class:`SpanRecord` objects only when the buffer is read, so the hot
    loop pays for one tuple per call, not one record per span.
    ``offset`` maps the clock onto the recorder's time base.
    """

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self[3])

    def newest(self, keep: int) -> "_SpanRun":
        """The run without its oldest ``count - keep`` spans."""
        name, clock, offset, spans, ids, parent_id, depth, thread_id = self
        return _SpanRun((name, clock, offset, spans[len(spans) - keep:],
                         ids[len(ids) - keep:], parent_id, depth, thread_id))

    def records(self) -> List[SpanRecord]:
        name, clock, offset, spans, ids, parent_id, depth, thread_id = self
        return [
            SpanRecord(name, offset + clock[i], offset + clock[j], "span",
                       span_id, parent_id, depth, thread_id, labels)
            for span_id, (i, j, labels) in zip(ids, spans)
        ]


class TraceRecorder(object):
    """Bounded, thread-safe recorder of nested spans and events.

    Parameters
    ----------
    capacity:
        Ring-buffer size in records; the oldest records are evicted
        (counted in :attr:`dropped`) once the buffer is full.
    enabled:
        Initial recording state.  A disabled recorder accepts the same
        calls at near-zero cost, so instrumented code never branches on
        "is tracing configured" — only the recorder does.
    """

    def __init__(self, capacity: int = 65536, enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self.epoch = time.perf_counter()
        self.dropped = 0
        self._lock = threading.Lock()
        #: records and span runs, oldest first; ``_size`` counts spans
        self._buffer: "deque[Any]" = deque()
        self._size = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **labels: Any) -> Any:
        """Context manager timing one nested span.

        Disabled recorders return the shared no-op singleton, so the
        call costs one branch and no allocation.
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, tuple(sorted(labels.items())))

    def event(self, name: str, **labels: Any) -> None:
        """Record one instant event under the current span (if any)."""
        if not self.enabled:
            return
        now = time.perf_counter() - self.epoch
        stack = self._stack()
        parent = stack[-1] if stack else None
        self._append(
            SpanRecord(
                name=name,
                start_s=now,
                end_s=now,
                kind="event",
                span_id=next(self._ids),
                parent_id=parent.span_id if parent is not None else None,
                depth=len(stack),
                thread_id=threading.get_ident(),
                labels=tuple(sorted(labels.items())),
            )
        )

    def complete(
        self,
        name: str,
        start_s: float,
        span_id: Optional[int] = None,
        parent_id: Any = _UNSET,
        **labels: Any,
    ) -> None:
        """Record a span measured externally (explicit start instant).

        ``start_s`` is an *absolute* ``time.perf_counter()`` reading
        taken by the caller before the work; the end instant is "now".
        Hot loops use this to avoid per-span context-manager overhead
        while still attributing wall time.

        ``span_id`` lets a caller pre-allocate the id (via
        :meth:`allocate_span_id`) so children can reference a parent
        *before* the parent span is committed — the shape of every
        async request span, where children finish first.  ``parent_id``
        overrides the thread-local stack (pass ``None`` for an explicit
        top-level span); distributed request spans use it to hang under
        a remote peer's span instead of whatever this thread happens to
        have open.
        """
        if not self.enabled:
            return
        end = time.perf_counter() - self.epoch
        stack = self._stack()
        if parent_id is _UNSET:
            parent = stack[-1] if stack else None
            parent_id = parent.span_id if parent is not None else None
        self._append(
            SpanRecord(
                name=name,
                start_s=start_s - self.epoch,
                end_s=end,
                kind="span",
                span_id=span_id if span_id is not None else next(self._ids),
                parent_id=parent_id,
                depth=len(stack),
                thread_id=threading.get_ident(),
                labels=tuple(sorted(labels.items())),
            )
        )

    def complete_spans(
        self,
        name: str,
        clock: Sequence[float],
        spans: Sequence[Tuple[int, int, Tuple[Tuple[str, Any], ...]]],
        offset: float = 0.0,
    ) -> None:
        """Record sibling spans timed by an external clock, in one go.

        ``clock`` holds readings of a clock that runs at
        ``time.perf_counter()``'s rate, ``offset`` apart from it.  Each
        item of ``spans`` is ``(i, j, labels)``: a span from ``clock[i]``
        to ``clock[j]`` with already sorted label pairs.  The spans
        share the current parent and are built into records only when
        the buffer is read, so a loop timed inside compiled code (the
        batch kernel's per-sweep ``batch.layer`` spans) pays for one
        append per call.
        """
        if not self.enabled or not spans:
            return
        stack = self._stack()
        run = _SpanRun((
            name, clock, offset - self.epoch, spans,
            tuple(itertools.islice(self._ids, len(spans))),
            stack[-1].span_id if stack else None, len(stack),
            threading.get_ident(),
        ))
        with self._lock:
            self._buffer.append(run)
            self._size += len(spans)
            if self._size > self.capacity:
                self._evict()

    def allocate_span_id(self) -> int:
        """Reserve a span id ahead of the span's :meth:`complete` call.

        Async request handling records children before the enclosing
        request span exists; pre-allocating the parent id (and passing
        it to both sides) keeps the tree intact regardless of commit
        order.
        """
        return next(self._ids)

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span on this thread, or None.

        The structured event log uses this to stamp each record with the
        enclosing span, correlating log lines with trace timelines.
        """
        stack = self._stack()
        return stack[-1].span_id if stack else None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        """Resume recording (spans/events append to the ring buffer)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; span() returns the shared no-op span."""
        self.enabled = False

    def clear(self) -> None:
        """Drop every record and reset the epoch and drop counter."""
        with self._lock:
            self._buffer.clear()
            self._size = 0
            self.dropped = 0
            self.epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # access / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def records(self) -> List[SpanRecord]:
        """Snapshot of the retained records, oldest first."""
        with self._lock:
            entries = list(self._buffer)
        out: List[SpanRecord] = []
        for entry in entries:
            if isinstance(entry, _SpanRun):
                out.extend(entry.records())
            else:
                out.append(entry)
        return out

    def by_name(self, name: str) -> List[SpanRecord]:
        """Retained records with the given name."""
        return [r for r in self.records() if r.name == name]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregate: count, total and mean duration (seconds)."""
        agg: Dict[str, Dict[str, float]] = {}
        for rec in self.records():
            entry = agg.setdefault(
                rec.name, {"count": 0, "total_s": 0.0, "mean_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += rec.duration_s
        for entry in agg.values():
            entry["mean_s"] = entry["total_s"] / entry["count"]
        return agg

    def report(self, title: str = "trace summary") -> str:
        """Aggregated spans as an aligned text table."""
        agg = self.summary()
        if not agg:
            return f"{title}: (no records)"
        rows = [
            [name, int(entry["count"]), f"{entry['total_s'] * 1e3:.3f}",
             f"{entry['mean_s'] * 1e6:.1f}"]
            for name, entry in sorted(
                agg.items(), key=lambda kv: -kv[1]["total_s"]
            )
        ]
        table = render_table(
            ["span", "count", "total ms", "mean us"], rows, title=title
        )
        if self.dropped:
            table += f"\n({self.dropped} records dropped by the ring buffer)"
        return table

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The retained records in Chrome-trace JSON object format.

        Loads in ``about:tracing`` / Perfetto: spans become complete
        (``"ph": "X"``) events with microsecond timestamps, instant
        events become ``"ph": "i"`` marks, one row per recording thread
        under the one ``main`` process row (pid 1).
        """
        events: List[Dict[str, Any]] = []
        tids: Dict[int, int] = {}
        for rec in self.records():
            tid = tids.setdefault(rec.thread_id, len(tids) + 1)
            entry: Dict[str, Any] = {
                "name": rec.name,
                "cat": rec.name.split(".", 1)[0],
                "ts": rec.start_s * 1e6,
                "pid": 1,
                "tid": tid,
                "args": rec.label_dict,
            }
            if rec.kind == "event":
                entry["ph"] = "i"
                entry["s"] = "t"
            else:
                entry["ph"] = "X"
                entry["dur"] = rec.duration_s * 1e6
            events.append(entry)
        for thread_id, tid in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": f"thread-{thread_id}"},
                }
            )
        if tids:
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": 0,
                    "args": {"name": "main"},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        """Serialize :meth:`to_chrome_trace` to a JSON file."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._buffer.append(record)
            self._size += 1
            if self._size > self.capacity:
                self._evict()

    def _evict(self) -> None:
        """Drop the oldest spans beyond capacity (caller holds the lock)."""
        while self._size > self.capacity:
            head = self._buffer.popleft()
            count = head.count if isinstance(head, _SpanRun) else 1
            excess = self._size - self.capacity
            if count > excess:  # keep the run's newest spans
                self._buffer.appendleft(head.newest(count - excess))
                count = excess
            self._size -= count
            self.dropped += count

