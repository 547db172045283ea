"""Precomputed code plans: the routing tables of the software datapath.

A :class:`CodePlan` is everything about a QC-LDPC code's *structure*
that the layered min-sum hot loops would otherwise re-derive per layer
per iteration: gather/scatter index arrays, circulant shift tables, and
argmin comparison columns.  It is the software analogue of the
finite-alphabet decoders' precomputed message-routing tables (Ghanaatian
et al. 2017): build the routing once, then let every iteration be pure
arithmetic over fixed views.

Plans are immutable and shared: one :class:`CodePlanCache` memoizes them
per code *structure* (two separately constructed but structurally equal
codes — same shift table, same z — resolve to the same plan), guarded by
a lock so concurrent decoders racing on a cold cache build exactly once.
The module-level :func:`get_plan` uses a process-global default cache;
:meth:`CodePlanCache.invalidate` / :meth:`CodePlanCache.clear` provide
explicit invalidation for long-lived services that rotate codes.

Cache traffic is observable: attach a
:class:`~repro.obs.metrics.MetricsRegistry` (or call
:func:`instrument_default_cache`) and the cache publishes
``accel_plan_hits`` / ``accel_plan_misses`` counters plus an
``accel_plan_entries`` gauge, labelled by code name.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.codes.qc import QCLDPCCode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "CodePlan",
    "CodePlanCache",
    "LayerPlan",
    "column_adjacency",
    "default_plan_cache",
    "get_plan",
    "instrument_default_cache",
    "plan_key",
]


def plan_key(code: QCLDPCCode) -> str:
    """Structural fingerprint of ``code`` (the cache key).

    Two codes hash to the same key exactly when they expand to the same
    parity-check matrix with the same layer structure: identical base
    shift table, expansion factor, and block dimensions.  The display
    name is deliberately excluded, so e.g. a re-parsed copy of the same
    WiMax code shares its plan with the original.
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(code.base.shifts, dtype=np.int64))
    digest.update(
        np.array([code.z, code.mb, code.nb], dtype=np.int64).tobytes()
    )
    return digest.hexdigest()


@dataclass(frozen=True)
class LayerPlan(object):
    """Precomputed per-layer routing for the min-sum hot loops.

    Attributes
    ----------
    block_cols / shifts:
        The layer's non-zero block columns and their circulant shifts
        (shared with :class:`~repro.codes.qc.LayerView`).
    var_idx:
        ``(degree, z)`` gather/scatter matrix: absolute variable index
        read by check row ``r`` through the layer's ``k``-th block.
        Row-contiguous, so a batch-innermost gather streams each edge's
        frame lane as one contiguous run (the batch kernel's layout).
    degree_col:
        ``(degree, 1)`` column of edge indices, the cached left operand
        of the per-frame kernel's argmin-position comparison (replaces
        an ``np.arange`` rebuilt per layer per iteration).
    """

    block_cols: np.ndarray
    shifts: np.ndarray
    var_idx: np.ndarray
    degree_col: np.ndarray

    @property
    def degree(self) -> int:
        """Check-node degree (non-zero blocks in this layer)."""
        return int(self.block_cols.shape[0])


@dataclass(frozen=True)
class CodePlan(object):
    """Immutable precomputed index structure for one code.

    Attributes
    ----------
    key:
        The structural fingerprint from :func:`plan_key`.
    n / z / num_layers / max_degree:
        Code dimensions the kernels size their state from.
    layers:
        One :class:`LayerPlan` per block row, natural order.
    """

    key: str
    n: int
    z: int
    num_layers: int
    max_degree: int
    layers: Tuple[LayerPlan, ...]

    @classmethod
    def build(cls, code: QCLDPCCode, key: Optional[str] = None) -> "CodePlan":
        """Derive a plan from ``code`` (normally via a cache, not directly)."""
        layer_plans = tuple(
            LayerPlan(
                block_cols=layer.block_cols,
                shifts=layer.shifts,
                var_idx=np.ascontiguousarray(layer.var_idx),
                degree_col=np.arange(layer.degree, dtype=np.int64)[:, None],
            )
            for layer in code.layers
        )
        return cls(
            key=key if key is not None else plan_key(code),
            n=code.n,
            z=code.z,
            num_layers=code.num_layers,
            max_degree=code.max_layer_degree,
            layers=layer_plans,
        )


def column_adjacency(
    plan: CodePlan,
) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Per block column, the ``(layer, edge)`` pairs incident to it.

    The transposed view of the plan's layer structure: entry ``j`` lists
    every ``(l, k)`` such that ``plan.layers[l].block_cols[k] == j``.
    This is the schedule driver of the column-layered kernels
    (:mod:`repro.decoder.column_layered`, :mod:`repro.serve.column`),
    derived from the same immutable plan the row-layered kernels share —
    no second cache, no second fingerprint.

    The number of block columns is recovered from the plan itself
    (``n // z``), so the function needs no code object.
    """
    nb = plan.n // plan.z
    cols: List[List[Tuple[int, int]]] = [[] for _ in range(nb)]
    for l, layer in enumerate(plan.layers):
        for k, j in enumerate(layer.block_cols):
            cols[int(j)].append((l, k))
    return tuple(tuple(edges) for edges in cols)


class CodePlanCache(object):
    """Thread-safe get-or-build memoization of :class:`CodePlan` objects.

    Parameters
    ----------
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        attached (at construction or later via :meth:`instrument`) the
        cache publishes ``accel_plan_hits`` / ``accel_plan_misses``
        counters (labelled by code name) and an ``accel_plan_entries``
        gauge.
    """

    def __init__(self, registry: "Optional[MetricsRegistry]" = None) -> None:
        self._lock = threading.Lock()
        self._plans: Dict[str, CodePlan] = {}
        self.hits = 0
        self.misses = 0
        self._hits_counter = None
        self._misses_counter = None
        self._entries_gauge = None
        if registry is not None:
            self.instrument(registry)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def instrument(self, registry: "MetricsRegistry") -> None:
        """Publish hit/miss counters and an entry gauge into ``registry``."""
        with self._lock:
            self._hits_counter = registry.counter(
                "accel_plan_hits", "code-plan cache lookups served from cache",
                label_names=("code",),
            )
            self._misses_counter = registry.counter(
                "accel_plan_misses", "code-plan cache lookups that built a plan",
                label_names=("code",),
            )
            self._entries_gauge = registry.gauge(
                "accel_plan_entries", "code plans currently cached",
            )
            self._entries_gauge.set(len(self._plans))

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, code: QCLDPCCode) -> CodePlan:
        """Return the plan for ``code``, building it on first use.

        Concurrent callers racing on a cold key serialize on the cache
        lock, so exactly one build happens and every caller receives the
        identical plan object.
        """
        key = plan_key(code)
        name = code.name or "unnamed"
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                if self._hits_counter is not None:
                    self._hits_counter.inc(code=name)
                return plan
            plan = CodePlan.build(code, key=key)
            self._plans[key] = plan
            self.misses += 1
            if self._misses_counter is not None:
                self._misses_counter.inc(code=name)
            if self._entries_gauge is not None:
                self._entries_gauge.set(len(self._plans))
            return plan

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, code: QCLDPCCode) -> bool:
        with self._lock:
            return plan_key(code) in self._plans

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self, code: QCLDPCCode) -> bool:
        """Drop the cached plan for ``code`` (True if one was cached)."""
        with self._lock:
            removed = self._plans.pop(plan_key(code), None) is not None
            if self._entries_gauge is not None:
                self._entries_gauge.set(len(self._plans))
            return removed

    def clear(self) -> None:
        """Drop every cached plan (hit/miss counts are preserved)."""
        with self._lock:
            self._plans.clear()
            if self._entries_gauge is not None:
                self._entries_gauge.set(0)


#: Process-global default cache used by the decoders via :func:`get_plan`.
_DEFAULT_CACHE = CodePlanCache()


def default_plan_cache() -> CodePlanCache:
    """The process-global cache behind :func:`get_plan`."""
    return _DEFAULT_CACHE


def instrument_default_cache(registry: "MetricsRegistry") -> CodePlanCache:
    """Attach hit/miss/entry instruments of the default cache to ``registry``."""
    _DEFAULT_CACHE.instrument(registry)
    return _DEFAULT_CACHE


def get_plan(code: QCLDPCCode) -> CodePlan:
    """Memoized :class:`CodePlan` for ``code`` from the default cache."""
    return _DEFAULT_CACHE.get(code)
