"""Acceleration layer: cached code-plans, the compiled kernel, process
sharding.

Where the paper scales throughput by widening the hardware datapath
(Fig 3's unroll sweep), this package scales the *software* datapath
along three axes:

* :mod:`repro.accel.plan` — :class:`CodePlan` / :class:`CodePlanCache`:
  per-code precomputed gather/scatter index arrays and shift tables,
  built once per code structure and memoized
  (thread-safe, explicitly invalidatable).  Both numpy decoders consume
  plans, so layer indexing is never re-derived inside an iteration loop.
* ``kernel.c`` and :mod:`repro.accel.native` — the paper's layer loop
  nest in C (barrel shift, core1, core2 per block column, over z check
  rows times the batch's frame lanes), which
  :class:`~repro.serve.batch.BatchLayeredMinSumDecoder` calls once per
  iteration.  It is built at first use with the system C compiler and
  cached per user; without a compiler the batch kernel runs the same
  loop as numpy passes, one layer at a time, bit for bit the same.
* :mod:`repro.accel.procpool` — :class:`ProcessEngineProxy`: the
  multiprocess shard backend of
  :class:`~repro.serve.pool.DecodeService` (``backend="process"``): one
  decode process per rate-shard fed through shared-memory LLR buffers,
  with the same supervised-restart/backoff semantics as the threaded
  pool.

Quickstart::

    from repro.accel import get_plan

    plan = get_plan(code)                      # built once, cached

    from repro.serve import DecodeService
    service = DecodeService(code, backend="process")

Benchmarks: ``python -m repro accel-bench`` (see ``docs/PERFORMANCE.md``).
"""

from typing import TYPE_CHECKING

from repro.accel.plan import (
    CodePlan,
    CodePlanCache,
    LayerPlan,
    default_plan_cache,
    get_plan,
    instrument_default_cache,
    plan_key,
)

if TYPE_CHECKING:  # pragma: no cover - static-analysis imports only
    from repro.accel.procpool import ProcessEngineProxy

__all__ = [
    "CodePlan",
    "CodePlanCache",
    "LayerPlan",
    "ProcessEngineProxy",
    "default_plan_cache",
    "get_plan",
    "instrument_default_cache",
    "plan_key",
]

#: Lazily imported attributes (PEP 562).  ``repro.accel.procpool``
#: imports the serving engine, which imports the per-frame decoder,
#: which imports this package for its plan cache — resolving the proxy
#: on first attribute access instead of at package import breaks the
#: cycle.
_LAZY_ATTRS = {
    "ProcessEngineProxy": ("repro.accel.procpool",),
}


def __getattr__(name):
    if name in _LAZY_ATTRS:
        import importlib

        module = importlib.import_module(_LAZY_ATTRS[name][0])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_ATTRS))
