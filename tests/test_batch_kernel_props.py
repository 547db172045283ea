"""Property tests for the batch kernel's two-min and parity primitives.

* ``_two_min`` is core1's running comparator chain.  Against a
  ``np.sort`` reference it must return the first and second order
  statistics of every check's magnitudes, ties included.  Magnitudes
  are drawn from a tiny alphabet so ties at the minimum are the common
  case, not the corner case.
* ``syndrome_weights`` XORs every check's hard decisions layer by
  layer.  It must equal ``(H @ bits) % 2`` summed per frame, on a
  mixed-degree code and on the paper's code, for the whole state and
  for ``frames=`` subsets.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codes.registry import default_registry
from repro.serve import BatchLayeredMinSumDecoder
from repro.serve.batch import _LayerScratch

pytestmark = pytest.mark.accel

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@functools.lru_cache(maxsize=None)
def _code(code_id):
    return default_registry().get(code_id)


@functools.lru_cache(maxsize=None)
def _decoder(code_id, fixed):
    return BatchLayeredMinSumDecoder(_code(code_id), fixed=fixed)


@functools.lru_cache(maxsize=None)
def _dense_h(code_id):
    return _code(code_id).parity_check_matrix.astype(np.int64)


@_SETTINGS
@given(
    degree=st.integers(1, 20),
    z=st.integers(1, 4),
    width=st.integers(1, 16),
    fixed=st.booleans(),
    alphabet=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_min_matches_sorted_order_statistics(
    degree, z, width, fixed, alphabet, seed
):
    dec = _decoder("wimax-r12-576", fixed)
    dtype = np.int16 if fixed else np.float64
    s = _LayerScratch(degree, z, width, dtype)
    rng = np.random.default_rng(seed)
    s.mag[...] = rng.integers(0, alphabet, s.mag.shape)
    expected = np.sort(s.mag, axis=0)
    second = expected[1] if degree > 1 else expected[0]

    min1, min2 = dec._two_min(s, degree)

    assert min1.dtype == dtype and min2.dtype == dtype
    np.testing.assert_array_equal(min1, expected[0])
    np.testing.assert_array_equal(min2, second)


@_SETTINGS
@given(
    code_id=st.sampled_from(["nr-bg2-z16", "wimax-r12-2304"]),
    width=st.integers(1, 16),
    fixed=st.booleans(),
    subset=st.booleans(),
    data=st.data(),
)
def test_syndrome_weights_match_dense_parity(code_id, width, fixed, subset, data):
    code = _code(code_id)
    dec = _decoder(code_id, fixed)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    # small integers: zeros (decided 0, like a sign bit) are frequent
    p = rng.integers(-3, 4, (code.n, width)).astype(dec._dtype)
    frames = None
    cols = np.arange(width)
    if subset:
        mask = data.draw(
            st.lists(st.booleans(), min_size=width, max_size=width),
            label="mask",
        )
        cols = np.flatnonzero(mask)
        frames = cols

    weights = dec.syndrome_weights(p, frames=frames)

    bits = (p[:, cols] < 0).astype(np.int64)
    expected = ((_dense_h(code_id) @ bits) % 2).sum(axis=0)
    assert weights.shape == (cols.size,)
    np.testing.assert_array_equal(weights, expected)
