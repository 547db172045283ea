"""CodePlan cache: key identity, invalidation, and thread-safety.

The plan cache is the accel layer's routing-table store: the layered
decoders re-derive nothing per iteration because every per-layer index
array is built once per code *structure* and shared.  These tests pin
the cache contract — structural keys (names excluded), exactly-one
build under concurrency, explicit invalidation — and the plan contents
the kernels rely on.
"""

import threading

import numpy as np
import pytest

from repro.accel.plan import (
    CodePlan,
    CodePlanCache,
    default_plan_cache,
    get_plan,
    plan_key,
)
from repro.codes import random_qc_code, wimax_code
from repro.codes.qc import QCLDPCCode
from repro.decoder import LayeredMinSumDecoder
from repro.obs import MetricsRegistry
from repro.serve import BatchLayeredMinSumDecoder

pytestmark = pytest.mark.accel


class TestPlanKey:
    def test_equivalent_constructions_share_a_key(self):
        a = wimax_code("1/2", 576)
        b = wimax_code("1/2", 576)
        assert a is not b
        assert plan_key(a) == plan_key(b)

    def test_name_is_excluded_from_the_key(self, wimax_short):
        renamed = QCLDPCCode(wimax_short.base, name="totally different")
        assert plan_key(renamed) == plan_key(wimax_short)

    def test_different_structures_differ(self, wimax_short):
        assert plan_key(wimax_short) != plan_key(wimax_code("1/2", 672))
        assert plan_key(wimax_short) != plan_key(wimax_code("3/4A", 576))

    def test_key_is_stable_and_hex(self, wimax_short):
        key = plan_key(wimax_short)
        assert key == plan_key(wimax_short)
        assert len(key) == 64 and int(key, 16) >= 0


class TestPlanContents:
    def test_layer_indexing_matches_the_code(self, medium_code):
        plan = CodePlan.build(medium_code)
        assert plan.n == medium_code.n
        assert plan.z == medium_code.z
        assert plan.num_layers == medium_code.num_layers
        assert len(plan.layers) == medium_code.num_layers
        for l, lp in enumerate(plan.layers):
            layer = medium_code.layer(l)
            assert lp.degree == layer.degree
            np.testing.assert_array_equal(lp.var_idx, layer.var_idx)
            np.testing.assert_array_equal(lp.block_cols, layer.block_cols)
            np.testing.assert_array_equal(
                lp.degree_col[:, 0], np.arange(layer.degree)
            )

    def test_decoders_share_the_default_cache_plan(self, wimax_short):
        per_frame = LayeredMinSumDecoder(wimax_short)
        batch = BatchLayeredMinSumDecoder(wimax_short)
        assert per_frame.plan is batch.plan
        assert per_frame.plan is get_plan(wimax_short)
        assert default_plan_cache().get(wimax_short) is per_frame.plan


class TestCacheBehaviour:
    def test_get_memoizes_across_equivalent_codes(self, wimax_short):
        cache = CodePlanCache()
        first = cache.get(wimax_short)
        second = cache.get(wimax_code("1/2", 576))
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1
        assert wimax_short in cache

    def test_invalidate_forces_a_rebuild(self, wimax_short):
        cache = CodePlanCache()
        first = cache.get(wimax_short)
        assert cache.invalidate(wimax_short) is True
        assert wimax_short not in cache
        rebuilt = cache.get(wimax_short)
        assert rebuilt is not first
        assert rebuilt.key == first.key
        # invalidating an uncached code is a no-op, not an error
        assert cache.invalidate(wimax_short) in (True, False)

    def test_invalidate_missing_returns_false(self, wimax_short):
        cache = CodePlanCache()
        assert cache.invalidate(wimax_short) is False

    def test_clear_drops_everything_but_keeps_counts(self, wimax_short):
        cache = CodePlanCache()
        cache.get(wimax_short)
        cache.get(wimax_code("2/3A", 576))
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 2

    def test_concurrent_cold_get_builds_exactly_once(self):
        code = random_qc_code(mb=4, nb=8, z=8, row_degree=4, seed=9)
        cache = CodePlanCache()
        workers = 8
        barrier = threading.Barrier(workers)
        plans = [None] * workers
        errors = []

        def grab(i):
            try:
                barrier.wait(timeout=10)
                plans[i] = cache.get(code)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=grab, args=(i,)) for i in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert all(p is plans[0] and p is not None for p in plans)
        assert cache.misses == 1
        assert cache.hits == workers - 1

    def test_instrumented_cache_publishes_metrics(self, wimax_short):
        registry = MetricsRegistry()
        cache = CodePlanCache(registry=registry)
        cache.get(wimax_short)
        cache.get(wimax_short)
        snapshot = registry.to_dict()
        assert "accel_plan_misses" in snapshot
        assert "accel_plan_hits" in snapshot
        assert "accel_plan_entries" in snapshot
