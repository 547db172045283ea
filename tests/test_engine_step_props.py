"""The engine step against the per-frame decoder, on random QC codes.

One step (:meth:`BatchLayeredMinSumDecoder.iterate_once` with a
:class:`~repro.serve.batch.Lanes`) iterates every lane, appends each
busy lane's unsatisfied-check count to its trail and retires lanes that
converged or spent their budget, until a lane retires or the doorbell
is set.  For every frame it retires, the bits, LLRs, iteration count,
convergence flag and syndrome trail must equal
:class:`~repro.decoder.layered.LayeredMinSumDecoder` at that frame's
budget, in float and in 8-bit fixed point.

Codes come from :func:`~repro.codes.construction.random_qc_code` with
random block rows thinned to random degrees from 1 to 20, and z from 1
to 100, most of which do not divide the kernel's 64-lane float tile.
Steps run at widths 1..B with random per-lane budgets, free lanes,
lanes refilled as they retire, and the doorbell rung before random
steps.  The session's kernel runs the test: the compiled one, or its
Python twin under ``-p tests.numpy_kernel``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codes.base_matrix import BaseMatrix
from repro.codes.construction import random_qc_code
from repro.codes.qc import QCLDPCCode
from repro.codes.registry import default_registry
from repro.decoder import LayeredMinSumDecoder
from repro.errors import DecodingError
from repro.serve import BatchLayeredMinSumDecoder, ContinuousBatchingEngine
from repro.serve import DecodeJob, DecodeService

pytestmark = [pytest.mark.accel, pytest.mark.serve]

MAX_ITER = 8

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def codes(draw):
    """A random_qc_code whose block rows are thinned to random degrees."""
    mb = draw(st.integers(2, 4))
    top = draw(st.integers(4, 20))   # parity blocks take up to 3
    z = draw(st.integers(1, 100))
    seed = draw(st.integers(0, 2**32 - 1))
    shifts = random_qc_code(mb, mb + top, z, row_degree=top,
                            seed=seed).base.shifts.copy()
    rng = np.random.default_rng(seed)
    for row in shifts:
        blocks = np.flatnonzero(row >= 0)
        keep = draw(st.integers(1, blocks.size))
        row[rng.choice(blocks, blocks.size - keep, replace=False)] = -1
    return QCLDPCCode(BaseMatrix(shifts, z, name=f"random z={z}"))


def _frames(rng, count, n):
    """LLRs of the all-zero codeword from clean to hopeless."""
    mean = rng.uniform(0.2, 4.0, (count, 1))
    return rng.normal(mean, 2.0, (count, n))


def _assert_decodes_like_the_reference(dec, p, lanes, lane, llrs, budget):
    ref = LayeredMinSumDecoder(
        dec.code, max_iterations=budget, fixed=dec.fixed).decode(llrs)
    used = int(lanes.iters[lane])
    trail = lanes.trail[lane, :used].tolist()
    bits, llrs = dec.frames_out(p, [lane])
    np.testing.assert_array_equal(bits[0], ref.bits)
    np.testing.assert_array_equal(llrs[0], ref.llrs)
    assert used == ref.iterations
    assert (trail[-1] == 0) == ref.converged
    assert trail == ref.iteration_syndromes


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
@_SETTINGS
@given(
    code=codes(),
    capacity=st.integers(1, 8),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_steps_decode_like_the_per_frame_decoder(fixed, code, capacity,
                                                 data, seed):
    rng = np.random.default_rng(seed)
    width = data.draw(st.integers(1, capacity), label="width")
    dec = BatchLayeredMinSumDecoder(code, max_iterations=MAX_ITER,
                                    fixed=fixed)
    llrs = _frames(rng, width, code.n)
    p, r = dec.prepare(llrs), dec.new_r_state(width)
    lanes = dec.new_lanes(capacity)
    budgets = data.draw(st.lists(st.integers(0, MAX_ITER), min_size=width,
                                 max_size=width), label="budgets")
    lanes.budgets[:width] = budgets
    frames = {lane: (llrs[lane], budgets[lane])
              for lane in range(width) if budgets[lane]}
    refills = data.draw(st.integers(0, 6), label="refills")
    rings = set(data.draw(st.lists(st.integers(0, 30), max_size=8),
                          label="rings"))

    calls = 0
    while lanes.budgets.any():
        ring = calls in rings
        lanes.doorbell[0] = ring
        before = lanes.iters.copy()
        busy = np.flatnonzero(lanes.budgets[:width])
        k, retired = dec.iterate_once(p, r, lanes, True)
        calls += 1
        assert 1 <= k <= MAX_ITER
        assert (lanes.iters[busy] == before[busy] + k).all()
        assert retired == sorted(retired) and set(retired) <= set(busy)
        if ring:
            assert k == 1
        else:
            assert retired
        for lane in retired:
            assert lanes.budgets[lane] == 0
            _assert_decodes_like_the_reference(dec, p, lanes, lane,
                                               *frames.pop(lane))
            if refills:
                refills -= 1
                fresh = _frames(rng, 1, code.n)[0]
                budget = int(rng.integers(1, MAX_ITER + 1))
                dec.load_slots(p, r, [lane], fresh[None, :])
                lanes.iters[lane], lanes.budgets[lane] = 0, budget
                frames[lane] = (fresh, budget)
    assert not frames


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
def test_one_compiled_call_per_frame_at_one_frame_in_flight(fixed):
    """With the doorbell clear, an engine decodes each lone frame in
    one kernel call, however many iterations it takes: one call into
    ``ldpc_step_*`` and none into the single-iteration entry point
    (on the numpy fallback, one ``iterate_once``)."""
    code = default_registry().get("wimax-r12-576")
    engine = ContinuousBatchingEngine(code, batch_size=16, fixed=fixed)
    kernel = engine.kernel
    calls, compiled, single = [], [], []

    def counting(name, into):
        fn = getattr(kernel, name)

        def counted(*args):
            into.append(args)
            return fn(*args)

        setattr(kernel, name, counted)

    counting("iterate_once", calls)
    if kernel._step_fn is not None:
        counting("_step_fn", compiled)
        counting("_iterate_fn", single)
    rng = np.random.default_rng(5)
    for llrs in _frames(rng, 12, code.n):
        engine.admit(DecodeJob(llrs=llrs))
        done, = engine.step()
        assert engine.in_flight == 0
        ref = LayeredMinSumDecoder(code, fixed=fixed).decode(llrs)
        assert done.result.iterations == ref.iterations
        assert done.result.iteration_syndromes == ref.iteration_syndromes
    assert len(calls) == 12
    if kernel._step_fn is not None:
        assert len(compiled) == 12 and not single
    snap = engine.metrics.snapshot()
    assert snap.engine_steps == snap.slot_iterations > 12


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
def test_a_rung_doorbell_ends_the_step_after_the_current_iteration(fixed):
    """Rung before the call, the step runs one iteration and retires
    nothing; a full engine ignores it; rung from another thread while
    frames that cannot converge iterate, the call returns long before
    their budget with every lane still busy."""
    code = default_registry().get("wimax-r12-576")
    rng = np.random.default_rng(8)
    noise = rng.normal(0.0, 1.0, (4, code.n))   # never converges

    engine = ContinuousBatchingEngine(code, batch_size=4, fixed=fixed)
    for llrs in noise[:3]:
        engine.admit(DecodeJob(llrs=llrs))
    engine.doorbell[0] = 1
    assert engine.step() == []
    assert engine.metrics.snapshot().engine_steps == 1
    engine.admit(DecodeJob(llrs=noise[3]))      # full: the bell is ignored
    assert len(engine.step()) == 3
    assert engine.in_flight == 1

    budget = 20000
    dec = BatchLayeredMinSumDecoder(code, max_iterations=budget, fixed=fixed)
    width = 16
    p = dec.prepare(rng.normal(0.0, 1.0, (width, code.n)))
    r = dec.new_r_state(width)
    lanes = dec.new_lanes(width)
    lanes.budgets[:] = budget
    out = []
    worker = threading.Thread(
        target=lambda: out.append(dec.iterate_once(p, r, lanes, True)))
    worker.start()
    threading.Event().wait(0.005)
    lanes.doorbell[0] = 1
    worker.join(timeout=120)
    assert not worker.is_alive()
    (k, retired), = out
    assert retired == [] and 1 <= k < budget
    assert (lanes.iters == k).all() and (lanes.budgets == budget).all()


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
def test_a_step_refuses_lanes_it_cannot_honour(fixed):
    """A state wider than the lanes, or a busy lane whose trail is
    full, is a typed error and leaves the state untouched."""
    code = default_registry().get("wimax-r12-576")
    dec = BatchLayeredMinSumDecoder(code, max_iterations=4, fixed=fixed)
    p = dec.prepare(np.ones((3, code.n)))
    r = dec.new_r_state(3)
    with pytest.raises(DecodingError, match="exceeds 2 lanes"):
        dec.iterate_once(p, r, dec.new_lanes(2))
    lanes = dec.new_lanes(3)
    lanes.budgets[:] = 4
    lanes.iters[1] = 4
    before = p.copy()
    with pytest.raises(DecodingError, match="no iteration left"):
        dec.iterate_once(p, r, lanes)
    assert p.tobytes() == before.tobytes()
    assert lanes.iters.tolist() == [0, 4, 0]


def test_frames_queued_during_a_step_join_the_next_one():
    """The worker reads its queue until it is empty once the doorbell
    rings, so frames submitted back to back share the engine's steps
    instead of queueing behind one frame at a time."""
    code = default_registry().get("wimax-r12-576")
    frames = _frames(np.random.default_rng(12), 12, code.n)
    with DecodeService(code, batch_size=16, queue_capacity=64) as svc:
        futures = [svc.submit(llrs) for llrs in frames]
        done = [future.result(timeout=60) for future in futures]
    for llrs, d in zip(frames, done):
        ref = LayeredMinSumDecoder(code).decode(llrs)
        assert d.result.iteration_syndromes == ref.iteration_syndromes
    snap = svc.metrics.snapshot()
    assert snap.slot_iterations / snap.engine_steps > 4   # busy per iteration
