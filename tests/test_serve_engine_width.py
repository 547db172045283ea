"""Engine width stepping: random admit/step/drain interleavings.

The engine iterates a contiguous kernel state only as wide as the
highest occupied slot, rounded up to a power of two and capped at the
batch size.  Two properties must hold for every interleaving of
``admit`` (including shed iteration budgets), ``step`` and ``drain``:

* every retired result is bit-exact with the per-frame
  :class:`~repro.decoder.layered.LayeredMinSumDecoder` run at that
  frame's budget — bits, LLRs, iterations, converged flag and syndrome
  trail — so a slot re-admitted after a shrink → grow transition can
  never inherit stale R from an earlier, wider state;
* a spy on ``engine.kernel.iterate_once`` sees one call per step, at
  exactly that width, and admission always fills the lowest free slot.

A step iterates until a frame retires, or with a free slot until the
engine's doorbell is set; the interleavings ring it at random.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.channel import AwgnChannel
from repro.codes.registry import default_registry
from repro.decoder import LayeredMinSumDecoder
from repro.obs import TraceRecorder
from repro.serve import ContinuousBatchingEngine, DecodeJob

pytestmark = pytest.mark.serve

CODE_IDS = ("wimax-r12-576", "nr-bg2-z16")
MAX_ITER = 6
POOL = 10  # distinct frames per code

_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@functools.lru_cache(maxsize=None)
def _frames(code_id):
    """Seeded frames from clean (~2 iterations) to failing (full budget)."""
    registry = default_registry()
    code = registry.get(code_id)
    encoder = registry.encoder(code_id)
    rng = np.random.default_rng([13, len(code_id)])
    frames = []
    for ebno in np.linspace(0.0, 4.0, POOL):
        message = rng.integers(0, 2, encoder.k).astype(np.uint8)
        channel = AwgnChannel.from_ebno(float(ebno), code.rate, seed=rng)
        frames.append(channel.llrs(encoder.encode(message)))
    return code, frames


@functools.lru_cache(maxsize=None)
def _reference(code_id, fixed, frame, budget):
    code, frames = _frames(code_id)
    return LayeredMinSumDecoder(
        code, max_iterations=budget, fixed=fixed
    ).decode(frames[frame])


def _expected_width(batch_size, occupied):
    hi = max(occupied) + 1
    return min(batch_size, 1 << (hi - 1).bit_length())


def _assert_matches(code_id, fixed, done, frame, budget):
    ref = _reference(code_id, fixed, frame, budget)
    got = done.result
    np.testing.assert_array_equal(got.bits, ref.bits)
    np.testing.assert_array_equal(got.llrs, ref.llrs)
    assert got.iterations == ref.iterations
    assert got.converged == ref.converged
    assert got.iteration_syndromes == ref.iteration_syndromes


def _spy(engine):
    """Record the P/R batch width of every kernel call (one per step)."""
    widths = []
    iterate = engine.kernel.iterate_once

    def spy(p, r, *lanes):
        assert all(rl.shape[-1] == p.shape[1] for rl in r)
        assert p.flags.c_contiguous
        widths.append(p.shape[1])
        return iterate(p, r, *lanes)

    engine.kernel.iterate_once = spy
    return widths


ops = st.one_of(
    st.tuples(
        st.just("admit"),
        st.integers(0, POOL - 1),
        st.one_of(st.none(), st.integers(1, MAX_ITER)),  # shed budget
    ),
    st.tuples(st.just("step")),
    st.tuples(st.just("drain")),
    st.tuples(st.just("ring")),       # the next step returns early
)


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
@pytest.mark.parametrize("code_id", CODE_IDS)
@_SETTINGS
@given(
    batch_size=st.integers(1, 12),
    program=st.lists(ops, min_size=1, max_size=40),
)
def test_random_interleavings(code_id, fixed, batch_size, program):
    code, frames = _frames(code_id)
    engine = ContinuousBatchingEngine(
        code, batch_size=batch_size, max_iterations=MAX_ITER, fixed=fixed
    )
    widths = _spy(engine)
    occupied = {}  # slot -> (job_id, frame, budget)

    def step(completed):
        for done in completed:
            slot = next(
                s for s, (job_id, _, _) in occupied.items()
                if job_id == done.job_id
            )
            _, frame, budget = occupied.pop(slot)
            _assert_matches(code_id, fixed, done, frame, budget)

    for op in program:
        if op[0] == "ring":
            engine.doorbell[0] = 1
        elif op[0] == "admit":
            if len(occupied) == batch_size:
                continue
            _, frame, budget = op
            job = DecodeJob(llrs=frames[frame], iteration_budget=budget)
            slot = engine.admit(job)
            lowest_free = min(set(range(batch_size)) - set(occupied))
            assert slot == lowest_free
            occupied[slot] = (job.job_id, frame, budget or MAX_ITER)
        elif op[0] == "step":
            if not occupied:
                assert engine.step() == []
                continue
            expected = _expected_width(batch_size, occupied)
            listening = engine.doorbell[0] and len(occupied) < batch_size
            calls = len(widths)
            iterations = engine.metrics.snapshot().engine_steps
            step(engine.step())
            assert widths[calls:] == [expected]
            if listening:   # the rung doorbell ends the first iteration
                assert engine.metrics.snapshot().engine_steps == iterations + 1
            engine.doorbell[0] = 0
        else:
            engine.doorbell[0] = 0
            while occupied:
                expected = _expected_width(batch_size, occupied)
                calls = len(widths)
                completed = engine.step()
                assert completed   # a step with the doorbell clear retires
                step(completed)
                assert widths[calls:] == [expected]
            assert engine.drain() == []
    step(engine.drain())
    assert not occupied and engine.in_flight == 0


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
def test_shrink_then_grow_reloads_fresh_state(fixed):
    """Slots dropped by a shrink come back zeroed, not with old R."""
    code_id = CODE_IDS[0]
    code, frames = _frames(code_id)
    engine = ContinuousBatchingEngine(
        code, batch_size=8, max_iterations=MAX_ITER, fixed=fixed
    )
    widths = _spy(engine)
    # fill slots 0..5 (width 8); the slow frame stays in slot 0
    jobs = [DecodeJob(llrs=frames[0])] + [
        DecodeJob(llrs=frames[POOL - 1], iteration_budget=1)
        for _ in range(5)
    ]
    for job in jobs:
        engine.admit(job)
    retired = engine.step()  # the five budget-1 frames retire
    assert len(retired) == 5 and widths == [8]
    engine.doorbell[0] = 1   # one iteration, then room for new frames
    assert engine.step() == []   # only slot 0 left: width 1
    assert widths[-1] == 1 and engine.in_flight == 1
    engine.doorbell[0] = 0
    # re-admit into slots 1..4: state grows back to width 8
    again = [DecodeJob(llrs=frames[f]) for f in (3, 5, 7, 9)]
    for job in again:
        engine.admit(job)
    results = {d.job_id: d for d in retired + engine.drain()}
    assert widths[2] == 8
    _assert_matches(code_id, fixed, results[jobs[0].job_id], 0, MAX_ITER)
    for job, frame in zip(again, (3, 5, 7, 9)):
        _assert_matches(code_id, fixed, results[job.job_id], frame, MAX_ITER)


def test_step_span_reports_width():
    """``engine.step`` carries ``width`` and the ``iterations`` of its
    one kernel call; ``batch.layer`` its ``batch``, once per layer of
    every iteration."""
    code, frames = _frames(CODE_IDS[0])
    rec = TraceRecorder()
    engine = ContinuousBatchingEngine(
        code, batch_size=16, max_iterations=MAX_ITER, recorder=rec
    )
    for frame in frames[:3]:
        engine.admit(DecodeJob(llrs=frame))
    engine.step()
    step, = rec.by_name("engine.step")
    assert step.label_dict["busy"] == 3
    assert step.label_dict["capacity"] == 16
    assert step.label_dict["width"] == 4
    iterations = step.label_dict["iterations"]
    assert iterations == engine.metrics.snapshot().engine_steps >= 1
    layers = rec.by_name("batch.layer")
    assert len(layers) == iterations * code.num_layers
    assert {span.label_dict["batch"] for span in layers} == {4}


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
@pytest.mark.parametrize("width", [1, 2, 4, 16])
@pytest.mark.parametrize("code_id", ["nr-bg1-z16", "nr-bg2-z16"])
def test_nr_layers_match_the_per_frame_decoder(code_id, width, fixed):
    """NR codes mix layer degrees; every width stays bit-exact."""
    code, frames = _frames(code_id)
    engine = ContinuousBatchingEngine(
        code, batch_size=width, max_iterations=MAX_ITER, fixed=fixed
    )
    jobs = [DecodeJob(llrs=frame) for frame in frames]
    done = {d.job_id: d for d in engine.run(jobs)}
    for frame, job in enumerate(jobs):
        _assert_matches(code_id, fixed, done[job.job_id], frame, MAX_ITER)


def test_step_spans_cover_every_layer_once():
    """One ``batch.layer`` span per layer per iteration, in order and
    nested in the step's one ``engine.step`` span."""
    code, frames = _frames("nr-bg2-z16")
    rec = TraceRecorder()
    engine = ContinuousBatchingEngine(
        code, batch_size=4, max_iterations=MAX_ITER, recorder=rec
    )
    for frame in frames[:3]:
        engine.admit(DecodeJob(llrs=frame))
    engine.step()
    step, = rec.by_name("engine.step")
    iterations = step.label_dict["iterations"]
    assert iterations > 1
    spans = rec.by_name("batch.layer")
    assert len(spans) == iterations * code.num_layers
    assert [s.label_dict["layer"] for s in spans] == list(
        range(code.num_layers)) * iterations
    for prev, span in zip(spans, spans[1:]):
        assert prev.end_s <= span.start_s
    assert all(step.start_s <= s.start_s <= s.end_s <= step.end_s
               for s in spans)


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
def test_widths_grow_and_shrink_in_two_buffers(fixed):
    """Width 1 -> 16 -> 2 -> 16 -> 2 -> 1 with frames in flight, twice:
    every frame decodes like the per-frame decoder, and after the first
    two re-layouts every state is a view into the same two buffers per
    array, taken in turn (a width change allocates nothing)."""
    code_id = CODE_IDS[0]
    code, frames = _frames(code_id)
    slow = [f for f in range(POOL)
            if _reference(code_id, fixed, f, MAX_ITER).iterations == MAX_ITER]
    assert len(slow) >= 2
    engine = ContinuousBatchingEngine(
        code, batch_size=16, max_iterations=MAX_ITER, fixed=fixed
    )
    widths = _spy(engine)
    kernel = engine.kernel
    expect = {}   # job id -> (frame, budget)
    states = []   # (width, P, R buffer) after every re-layout

    def admit(frame, budget):
        job = DecodeJob(llrs=frames[frame], iteration_budget=budget)
        engine.admit(job)
        expect[job.job_id] = (frame, budget)

    def step(ring, retires):
        before = engine._p
        engine.doorbell[0] = ring
        done = engine.step()
        assert len(done) == retires
        for d in done:
            _assert_matches(code_id, fixed, d, *expect.pop(d.job_id))
        if engine._p is not before:
            states.append((engine._width, engine._p,
                           kernel._r_buffer(engine._r, engine._width)))

    for _ in range(2):
        admit(slow[0], MAX_ITER)                    # slot 0: 6 iterations
        step(1, 0)                                  # width 1
        admit(slow[1], 4)                           # slot 1: 4 iterations
        for f in range(14):
            admit(f % POOL, 1)                      # slots 2..15: one each
        step(0, 14)                                 # width 16
        step(1, 0)                                  # width 2
        for f in range(14):
            admit((f + 3) % POOL, 1)
        step(0, 14)                                 # width 16
        step(0, 1)                                  # width 2: slot 1 out
        step(0, 1)                                  # width 1: slot 0 out
    assert not expect and engine.in_flight == 0
    assert widths == [1, 16, 2, 16, 2, 1] * 2
    assert [w for w, _, _ in states] == [1, 16, 2, 16, 2, 1, 16, 2, 16, 2, 1]
    pairs = states[:2]
    for i, (_, p, buf) in enumerate(states):
        mine, other = pairs[i % 2], pairs[(i + 1) % 2]
        assert np.shares_memory(p, mine[1]) and np.shares_memory(buf, mine[2])
        assert not np.shares_memory(p, other[1])
        assert not np.shares_memory(buf, other[2])
