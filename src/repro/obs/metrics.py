"""Labelled counters, gauges, and histograms with pluggable renderers.

One :class:`MetricsRegistry` is the numeric spine of the runtime: the
serving metrics (:class:`~repro.serve.metrics.ServeMetrics`), the
fault-campaign accounting, and the decoder statistics all publish into
the same instrument model, and everything renders three ways:

* :meth:`MetricsRegistry.render_text` — aligned table in the house
  style of the evaluation harness;
* :meth:`MetricsRegistry.to_dict` / :meth:`render_json` —
  machine-readable JSON for benchmark harnesses;
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition format (scrapeable ``# HELP`` / ``# TYPE`` blocks).

Instruments are get-or-create by name (re-registering with the same
type and labels returns the existing instrument; a conflicting
re-registration raises), label values key child series, and every
mutator takes the registry lock, so one registry can be shared by all
workers of a service.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.utils.stats import RollingReservoir
from repro.utils.tables import render_table

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets (seconds-flavoured, Prometheus defaults).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

_LabelKey = Tuple[Any, ...]


class MetricsError(ReproError):
    """Metrics misuse: name/type conflicts, unknown labels, bad values."""


class _Instrument(object):
    """Shared plumbing: name, help text, label schema, series store."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._label_set = frozenset(self.label_names)
        self._lock = lock
        self._series: Dict[_LabelKey, Any] = {}

    def _key(self, labels: Mapping[str, Any]) -> _LabelKey:
        if not labels and not self.label_names:
            return ()   # the serving hot path's unlabelled instruments
        if labels.keys() != self._label_set:
            raise MetricsError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(map(labels.__getitem__, self.label_names))

    def series(self) -> List[Tuple[_LabelKey, Any]]:
        """All (label-values, state) pairs, in creation order."""
        with self._lock:
            return list(self._series.items())

    def label_dicts(self) -> List[Dict[str, Any]]:
        """Each series' labels as a ``{name: value}`` dict, in order."""
        return [
            dict(zip(self.label_names, key)) for key, _ in self.series()
        ]


class Counter(_Instrument):
    """Monotonically increasing count (per label set)."""

    kind = "counter"

    def inc(self, value: float = 1, **labels: Any) -> None:
        """Add ``value`` (>= 0) to the labelled series."""
        if value < 0:
            raise MetricsError(f"{self.name}: counters only go up, got {value}")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + value

    def value(self, **labels: Any) -> float:
        """Current count of the labelled series (0 if never incremented)."""
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, 0)

    def total(self) -> float:
        """Sum over every label series."""
        with self._lock:
            return sum(self._series.values())

    def reset(self) -> None:
        """Drop every series (counts restart at zero)."""
        with self._lock:
            self._series.clear()


class Gauge(_Instrument):
    """A value that can go up and down (per label set)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set the labelled series to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._series[key] = value

    def inc(self, value: float = 1, **labels: Any) -> None:
        """Add ``value`` (may be negative) to the labelled series."""
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + value

    def dec(self, value: float = 1, **labels: Any) -> None:
        """Subtract ``value`` from the labelled series."""
        self.inc(-value, **labels)

    def value(self, **labels: Any) -> float:
        """Current value of the labelled series (0 if never set)."""
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, 0)

    def reset(self) -> None:
        """Drop every series (values restart at zero)."""
        with self._lock:
            self._series.clear()


class _HistogramState(object):
    """One label series of a histogram: buckets + window reservoir."""

    __slots__ = ("bucket_counts", "count", "total", "reservoir")

    def __init__(self, num_buckets: int, window: int) -> None:
        self.bucket_counts = [0] * num_buckets
        self.count = 0
        self.total = 0.0
        self.reservoir = RollingReservoir(window)


class Histogram(_Instrument):
    """Bucketed distribution with whole-stream count/sum and a sliding
    window for percentile queries.

    The cumulative bucket counts serve the Prometheus exposition; the
    window reservoir serves :meth:`percentile` (which Prometheus
    histograms cannot answer exactly), matching the behaviour the
    serving metrics had before the registry refactor.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        window: int = 8192,
    ) -> None:
        super().__init__(name, help, label_names, lock)
        edges = sorted(float(b) for b in buckets)
        if not edges:
            raise MetricsError(f"{self.name}: need at least one bucket edge")
        self.buckets = tuple(edges)
        self.window = window

    def _state(self, key: _LabelKey) -> _HistogramState:
        state = self._series.get(key)
        if state is None:
            state = _HistogramState(len(self.buckets), self.window)
            self._series[key] = state
        return state

    def observe(self, value: float, count: int = 1, **labels: Any) -> None:
        """Record ``count`` samples of ``value`` into the labelled
        series' buckets/reservoir, as ``count`` single calls would."""
        value = float(value)
        key = self._key(labels)
        with self._lock:
            state = self._state(key)
            i = bisect_left(self.buckets, value)
            if i < len(state.bucket_counts):
                state.bucket_counts[i] += count
            state.count += count
            for _ in range(count):
                state.total += value   # the float sum of single calls
            state.reservoir.observe(value, count)

    def observe_many(self, values: Sequence[float], **labels: Any) -> None:
        """Record each of ``values``, in order, into the labelled series
        under one lock acquisition, as one :meth:`observe` per value
        would (float sums included)."""
        if not values:
            return
        values = [float(v) for v in values]
        key = self._key(labels)
        with self._lock:
            state = self._state(key)
            counts, edges = state.bucket_counts, self.buckets
            for value in values:
                i = bisect_left(edges, value)
                if i < len(counts):
                    counts[i] += 1
                state.total += value
            state.count += len(values)
            state.reservoir.observe_many(values)

    # -- queries -------------------------------------------------------
    def count(self, **labels: Any) -> int:
        """Number of samples observed by the labelled series."""
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
            return state.count if state is not None else 0

    def sum(self, **labels: Any) -> float:
        """Sum of all samples observed by the labelled series."""
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
            return state.total if state is not None else 0.0

    def mean(self, **labels: Any) -> float:
        """Mean sample value (0.0 when the series is empty)."""
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
            if state is None or state.count == 0:
                return 0.0
            return state.total / state.count

    def percentile(self, q: float, **labels: Any) -> float:
        """``q``-th percentile (0..100) of the retained window."""
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
        if state is None:
            return 0.0
        return state.reservoir.percentile(q)

    def cumulative_buckets(self, **labels: Any) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, Prometheus-style."""
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
            counts = list(state.bucket_counts) if state is not None else None
        if counts is None:
            return [(edge, 0) for edge in self.buckets]
        out = []
        running = 0
        for edge, c in zip(self.buckets, counts):
            running += c
            out.append((edge, running))
        return out

    def reset(self) -> None:
        """Drop every series (buckets and reservoirs restart empty)."""
        with self._lock:
            self._series.clear()


class MetricsRegistry(object):
    """Named collection of counters, gauges, and histograms."""

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    # ------------------------------------------------------------------
    # registration (get-or-create)
    # ------------------------------------------------------------------
    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        """Get or create the :class:`Counter` named ``name``."""
        return self._register(Counter, name, help, label_names)

    def gauge(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Gauge:
        """Get or create the :class:`Gauge` named ``name``."""
        return self._register(Gauge, name, help, label_names)

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        window: int = 8192,
    ) -> Histogram:
        """Get or create the :class:`Histogram` named ``name``."""
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                self._check_existing(existing, Histogram, name, label_names)
                return existing  # type: ignore[return-value]
            inst = Histogram(
                name, help, label_names, threading.Lock(),
                buckets=buckets, window=window,
            )
            self._instruments[name] = inst
            return inst

    def _register(self, cls, name, help, label_names):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                self._check_existing(existing, cls, name, label_names)
                return existing
            inst = cls(name, help, label_names, threading.Lock())
            self._instruments[name] = inst
            return inst

    @staticmethod
    def _check_existing(existing, cls, name, label_names) -> None:
        if not isinstance(existing, cls) or type(existing) is not cls:
            raise MetricsError(
                f"{name!r} already registered as {existing.kind}, "
                f"cannot re-register as {cls.kind}"
            )
        if existing.label_names != tuple(label_names):
            raise MetricsError(
                f"{name!r} already registered with labels "
                f"{existing.label_names}, got {tuple(label_names)}"
            )

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[_Instrument]:
        """The instrument named ``name``, or None if unregistered."""
        with self._lock:
            return self._instruments.get(name)

    def instruments(self) -> List[_Instrument]:
        """Every registered instrument, in registration order."""
        with self._lock:
            return list(self._instruments.values())

    def reset(self) -> None:
        """Zero every instrument (the instruments stay registered)."""
        for inst in self.instruments():
            inst.reset()

    # ------------------------------------------------------------------
    # renderers
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable snapshot of every instrument and series."""
        out: Dict[str, Any] = {}
        for inst in self.instruments():
            series_out = []
            if isinstance(inst, Histogram):
                for key, state in inst.series():
                    series_out.append(
                        {
                            "labels": dict(zip(inst.label_names, key)),
                            "count": state.count,
                            "sum": state.total,
                            "buckets": [
                                {"le": le, "count": c}
                                for le, c in inst.cumulative_buckets(
                                    **dict(zip(inst.label_names, key))
                                )
                            ],
                        }
                    )
            else:
                for key, value in inst.series():
                    series_out.append(
                        {
                            "labels": dict(zip(inst.label_names, key)),
                            "value": value,
                        }
                    )
            out[inst.name] = {
                "type": inst.kind,
                "help": inst.help,
                "series": series_out,
            }
        return out

    def render_json(self, indent: Optional[int] = None) -> str:
        """:meth:`to_dict` serialized as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render_text(self, title: str = "metrics") -> str:
        """Every series as one aligned table row."""
        rows: List[List[object]] = []
        for inst in self.instruments():
            for key, state in inst.series():
                labels = ",".join(
                    f"{k}={v}" for k, v in zip(inst.label_names, key)
                )
                if isinstance(inst, Histogram):
                    mean = state.total / state.count if state.count else 0.0
                    value = f"count={state.count} mean={mean:.6g}"
                else:
                    value = f"{state:g}" if isinstance(state, float) else str(state)
                rows.append([inst.name, inst.kind, labels or "-", value])
        if not rows:
            return f"{title}: (no series)"
        return render_table(["metric", "type", "labels", "value"], rows,
                            title=title)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for inst in self.instruments():
            name = self._prom_name(inst.name)
            if inst.help:
                lines.append(f"# HELP {name} {inst.help}")
            lines.append(f"# TYPE {name} {inst.kind}")
            if isinstance(inst, Histogram):
                for key, state in inst.series():
                    labels = dict(zip(inst.label_names, key))
                    running = 0
                    for le, c in zip(self._edges(inst), state.bucket_counts):
                        running += c
                        lines.append(
                            f"{name}_bucket"
                            f"{self._prom_labels(labels, le=self._fmt(le))} "
                            f"{running}"
                        )
                    lines.append(
                        f"{name}_bucket{self._prom_labels(labels, le='+Inf')} "
                        f"{state.count}"
                    )
                    lines.append(
                        f"{name}_sum{self._prom_labels(labels)} "
                        f"{self._fmt(state.total)}"
                    )
                    lines.append(
                        f"{name}_count{self._prom_labels(labels)} {state.count}"
                    )
            else:
                base = name
                if inst.kind == "counter" and not name.endswith("_total"):
                    base = f"{name}_total"
                for key, value in inst.series():
                    labels = dict(zip(inst.label_names, key))
                    lines.append(
                        f"{base}{self._prom_labels(labels)} {self._fmt(value)}"
                    )
        return "\n".join(lines) + "\n"

    # -- prometheus helpers --------------------------------------------
    def _prom_name(self, name: str) -> str:
        full = f"{self.namespace}_{name}" if self.namespace else name
        full = full.replace(".", "_")
        full = _NAME_RE.sub("_", full)
        if full and full[0].isdigit():
            full = f"_{full}"
        return full

    @staticmethod
    def _edges(hist: Histogram) -> Tuple[float, ...]:
        return hist.buckets

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            if value == int(value) and abs(value) < 1e15:
                return str(int(value))
            return repr(value)
        return str(value)

    @staticmethod
    def _prom_labels(labels: Mapping[str, Any], **extra: str) -> str:
        merged = dict(labels)
        merged.update(extra)
        if not merged:
            return ""
        body = ",".join(
            f'{k}="{MetricsRegistry._escape(v)}"' for k, v in merged.items()
        )
        return "{" + body + "}"

    @staticmethod
    def _escape(value: Any) -> str:
        return (
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )
