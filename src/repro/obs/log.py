"""Structured event log: levelled, trace-correlated JSON-lines records.

Where :class:`~repro.obs.trace.TraceRecorder` answers *how long did it
take* and :class:`~repro.obs.metrics.MetricsRegistry` answers *how much
of it happened*, :class:`EventLog` answers *what happened, when, and
why* — every notable runtime incident (a shard crash, a restart, an
expired deadline, a shed frame, an injected fault, a shard strike-out)
becomes one machine-parseable record instead of an ad-hoc
trace-event breadcrumb:

* **levels** — ``debug`` / ``info`` / ``warning`` / ``error`` with a
  configurable floor, so a production service can keep only warnings
  while a debug run keeps the enqueue/dispatch chatter;
* **double timestamps** — a wall-clock time (for humans and cross-run
  correlation) and a monotonic time (for intervals, immune to clock
  steps);
* **trace correlation** — when a :class:`TraceRecorder` is attached,
  each record carries the id of the enclosing span, so a grep hit in
  the log pins the exact span in the Chrome timeline;
* **JSON-lines sink** — one JSON object per line, appended and flushed
  per record, so ``tail -f`` / ``grep`` / ``repro logs`` all work on a
  live file; an in-memory ring of recent records backs tests and
  embedded use without any file at all.

The pool (:mod:`repro.serve.pool`), the gateway and autoscaler
(:mod:`repro.net`) and the fault injectors
(:mod:`repro.faults.injectors`) accept an ``EventLog`` and publish
their lifecycle into it — an incident is one :func:`emit` call, a
trace event plus a levelled record; ``python -m repro logs FILE``
tails/filters/pretty-prints the result.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder

__all__ = [
    "LEVELS",
    "EventLog",
    "LogRecord",
    "emit",
    "follow_log",
    "format_record",
    "format_records",
    "read_log",
]

#: Level name -> severity rank (log4j-style ordering).
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _level_rank(level: str) -> int:
    try:
        return LEVELS[level]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; choose from {sorted(LEVELS)}"
        ) from None


def _fields_match(
    record: LogRecord, fields: Optional[Mapping[str, Any]]
) -> bool:
    """Subset match on a record's structured fields.

    Values compare as strings so CLI-supplied filters (always strings)
    match numeric field values; a record missing any requested key is
    filtered out.
    """
    if not fields:
        return True
    for key, want in fields.items():
        if key not in record.fields:
            return False
        if str(record.fields[key]) != str(want):
            return False
    return True


@dataclass(frozen=True)
class LogRecord(object):
    """One structured log record.

    Attributes
    ----------
    level:
        ``"debug"`` / ``"info"`` / ``"warning"`` / ``"error"``.
    event:
        Dotted event name, e.g. ``"pool.crash"`` or ``"fault.inject"``.
    wall_time:
        ``time.time()`` at record time (seconds since the epoch).
    monotonic_s:
        ``time.monotonic()`` at record time (interval arithmetic).
    span_id:
        Id of the enclosing trace span when a recorder was attached and
        a span was open, else None.
    fields:
        Free-form structured payload (shard keys, job ids, error text).
    """

    level: str
    event: str
    wall_time: float
    monotonic_s: float
    span_id: Optional[int] = None
    fields: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """The record as one flat JSON-ready dict (``ts``/``mono`` keys)."""
        out: Dict[str, Any] = {
            "ts": self.wall_time,
            "mono": self.monotonic_s,
            "level": self.level,
            "event": self.event,
        }
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.fields:
            out["fields"] = dict(self.fields)
        return out

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "LogRecord":
        """Inverse of :meth:`to_dict` (tolerant of missing keys)."""
        return cls(
            level=str(obj.get("level", "info")),
            event=str(obj.get("event", "")),
            wall_time=float(obj.get("ts", 0.0)),
            monotonic_s=float(obj.get("mono", 0.0)),
            span_id=obj.get("span_id"),
            fields=dict(obj.get("fields", {})),
        )


class EventLog(object):
    """Thread-safe structured logger with a JSONL sink and a ring buffer.

    Parameters
    ----------
    path:
        Optional JSON-lines file to append to (opened lazily on the
        first record, flushed per record so the file is tailable).
    capacity:
        In-memory ring size; the most recent ``capacity`` records stay
        queryable via :meth:`records` regardless of any file sink.
    min_level:
        Severity floor; records below it are dropped entirely.
    recorder:
        Optional :class:`~repro.obs.trace.TraceRecorder`; when given,
        each record is stamped with the enclosing span id.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        capacity: int = 4096,
        min_level: str = "debug",
        recorder: "Optional[TraceRecorder]" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.path = path
        self.capacity = capacity
        self.min_rank = _level_rank(min_level)
        self.recorder = recorder
        self.dropped = 0
        self.emitted = 0
        self._lock = threading.Lock()
        self._buffer: "deque[LogRecord]" = deque(maxlen=capacity)
        self._handle = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def log(self, level: str, event: str, **fields: Any) -> Optional[LogRecord]:
        """Record one event at ``level``; returns the record (or None if
        filtered by the severity floor)."""
        if _level_rank(level) < self.min_rank:
            return None
        span_id = (
            self.recorder.current_span_id() if self.recorder is not None else None
        )
        record = LogRecord(
            level=level,
            event=event,
            wall_time=time.time(),
            monotonic_s=time.monotonic(),
            span_id=span_id,
            fields=fields,
        )
        self.append(record)
        return record

    def debug(self, event: str, **fields: Any) -> Optional[LogRecord]:
        """Record a ``debug`` event."""
        return self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> Optional[LogRecord]:
        """Record an ``info`` event."""
        return self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> Optional[LogRecord]:
        """Record a ``warning`` event."""
        return self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> Optional[LogRecord]:
        """Record an ``error`` event."""
        return self.log("error", event, **fields)

    def append(self, record: LogRecord) -> None:
        """Append a pre-built record to the ring and the file sink,
        bypassing the floor."""
        with self._lock:
            if len(self._buffer) == self.capacity:
                self.dropped += 1
            self._buffer.append(record)
            self.emitted += 1
            if self.path is not None:
                if self._handle is None:
                    self._handle = open(self.path, "a")
                json.dump(record.to_dict(), self._handle, sort_keys=True)
                self._handle.write("\n")
                self._handle.flush()

    # ------------------------------------------------------------------
    # access / lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buffer)

    def records(
        self,
        level: Optional[str] = None,
        event: Optional[str] = None,
        fields: Optional[Mapping[str, Any]] = None,
    ) -> List[LogRecord]:
        """Retained records, oldest first, optionally filtered.

        ``level`` keeps records at or above that severity; ``event``
        keeps records whose event name contains the substring;
        ``fields`` keeps records whose structured fields contain every
        given key with a (string-)equal value — e.g.
        ``fields={"tenant": "gold"}`` isolates one tenant's incidents.
        """
        with self._lock:
            out = list(self._buffer)
        if level is not None:
            rank = _level_rank(level)
            out = [r for r in out if _level_rank(r.level) >= rank]
        if event is not None:
            out = [r for r in out if event in r.event]
        if fields:
            out = [r for r in out if _fields_match(r, fields)]
        return out

    def close(self) -> None:
        """Flush and close the file sink (idempotent; ring retained)."""
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                finally:
                    self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def emit(
    recorder: "Optional[TraceRecorder]",
    log: Optional[EventLog],
    level: str,
    event: str,
    **fields: Any,
) -> None:
    """Record one incident: a trace event on ``recorder`` and a
    ``level`` record in ``log`` (either may be None)."""
    if recorder is not None:
        recorder.event(event, **fields)
    if log is not None:
        log.log(level, event, **fields)


# ----------------------------------------------------------------------
# reading / rendering (the `repro logs` surface)
# ----------------------------------------------------------------------
def read_log(
    path: str,
    level: Optional[str] = None,
    event: Optional[str] = None,
    fields: Optional[Mapping[str, Any]] = None,
) -> List[LogRecord]:
    """Parse a JSON-lines event-log file, oldest first.

    ``level`` keeps records at or above that severity; ``event`` keeps
    records whose event name contains the substring; ``fields`` keeps
    records whose structured fields match every given key/value (string
    comparison — ``repro logs --tenant gold`` rides this).  Blank and
    non-JSON lines are skipped (a live file may have a torn last line).
    """
    rank = _level_rank(level) if level is not None else None
    out: List[LogRecord] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            record = LogRecord.from_dict(obj)
            if rank is not None and _level_rank(record.level) < rank:
                continue
            if event is not None and event not in record.event:
                continue
            if not _fields_match(record, fields):
                continue
            out.append(record)
    return out


def follow_log(
    path: str,
    level: Optional[str] = None,
    event: Optional[str] = None,
    poll_s: float = 0.2,
    stop: Optional[threading.Event] = None,
    from_start: bool = False,
    fields: Optional[Mapping[str, Any]] = None,
) -> "Iterator[LogRecord]":
    """Yield records appended to a live JSONL log, ``tail -f``-style.

    Blocks between records, polling every ``poll_s`` seconds; a missing
    file is waited for rather than an error (the writer may not have
    opened its sink yet), and a truncated/rotated file is reopened from
    the start.  ``level``/``event`` filter like :func:`read_log`.
    ``fields`` subset-matches structured fields like :func:`read_log`.
    ``from_start`` replays existing content before streaming; the
    default starts at the current end of file.  Pass a
    ``threading.Event`` as ``stop`` to end the stream from another
    thread; Ctrl-C works as usual (``repro logs --follow`` relies on
    both).  Torn last lines are held back until their newline arrives.
    """
    rank = _level_rank(level) if level is not None else None
    should_stop = stop.is_set if stop is not None else (lambda: False)
    handle = None
    pending = ""
    try:
        while True:
            if handle is None:
                try:
                    handle = open(path)
                except OSError:
                    if should_stop():
                        return
                    time.sleep(poll_s)
                    continue
                if not from_start:
                    handle.seek(0, os.SEEK_END)
                from_start = True  # a rotation reopen replays the new file
                pending = ""
            chunk = handle.read()
            if chunk:
                pending += chunk
                while "\n" in pending:
                    line, pending = pending.split("\n", 1)
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        obj = json.loads(line)
                    except ValueError:
                        continue
                    record = LogRecord.from_dict(obj)
                    if rank is not None and _level_rank(record.level) < rank:
                        continue
                    if event is not None and event not in record.event:
                        continue
                    if not _fields_match(record, fields):
                        continue
                    yield record
                continue
            if should_stop():
                return
            try:
                size = os.stat(path).st_size
            except OSError:
                size = -1
            if size < handle.tell():
                handle.close()
                handle = None
                continue
            time.sleep(poll_s)
    finally:
        if handle is not None:
            handle.close()


def format_record(record: LogRecord) -> str:
    """One record as a grep-friendly single line.

    ``<iso-time> <LEVEL> <event> [span=<id>] k=v k=v``
    """
    stamp = time.strftime(
        "%Y-%m-%dT%H:%M:%S", time.localtime(record.wall_time)
    )
    frac = f"{record.wall_time % 1:.3f}"[1:]
    parts = [f"{stamp}{frac}", record.level.upper().ljust(7), record.event]
    if record.span_id is not None:
        parts.append(f"span={record.span_id}")
    for key, value in record.fields.items():
        parts.append(f"{key}={value}")
    return " ".join(parts)


def format_records(records: Iterable[LogRecord]) -> str:
    """Many records, one :func:`format_record` line each."""
    return "\n".join(format_record(r) for r in records)
