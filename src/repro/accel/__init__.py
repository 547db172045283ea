"""Acceleration layer: cached code-plans and the compiled kernel.

Where the paper scales throughput by widening the hardware datapath
(Fig 3's unroll sweep), this package scales the *software* datapath:

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

Quickstart::

    from repro.accel import get_plan

    plan = get_plan(code)                      # built once, cached

Benchmarks: ``python -m repro accel-bench`` (see ``docs/PERFORMANCE.md``).
"""

from repro.accel.plan import (
    CodePlan,
    CodePlanCache,
    LayerPlan,
    default_plan_cache,
    get_plan,
    instrument_default_cache,
    plan_key,
)

__all__ = [
    "CodePlan",
    "CodePlanCache",
    "LayerPlan",
    "default_plan_cache",
    "get_plan",
    "instrument_default_cache",
    "plan_key",
]
