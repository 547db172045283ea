"""Load-shedding edge cases: budget exhaustion, floors, restore.

Satellite coverage for the priority-class bridge: what happens when an
iteration budget actually *binds* (the frame is cut off mid-decode),
when a shed step would grant zero iterations, and that budgets recover
as soon as pressure does.
"""

import numpy as np
import pytest

from repro.accel.bench import generate_traffic
from repro.codes import wimax_code
from repro.errors import QueueFullError, ServeError
from repro.net.admission import BRONZE, AdmissionController, TenantPolicy
from repro.obs.log import EventLog
from repro.serve.pool import DecodeService
from repro.serve.shedding import NoShedPolicy, StepShedPolicy

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]

MAX_ITER = 12


def hopeless_frame(code, seed=7):
    """Random-sign near-zero LLRs: the hard decision is a random word,
    so the decoder burns its entire budget without converging."""
    rng = np.random.default_rng(seed)
    return rng.choice([-0.01, 0.01], size=code.n)


class TestBudgetExhaustion:
    def test_exhausted_budget_stops_mid_decode(self, small_code):
        # the frame would run MAX_ITER iterations; a caller budget cuts
        # it off exactly at the cap, reported unconverged
        with DecodeService(
            small_code, batch_size=2, max_iterations=MAX_ITER
        ) as svc:
            full = svc.submit(
                hopeless_frame(small_code), timeout=None
            ).result(60)
            capped = svc.submit(
                hopeless_frame(small_code), timeout=None, iteration_budget=5
            ).result(60)
        assert not full.result.converged
        assert full.result.iterations == MAX_ITER
        assert not capped.result.converged
        assert capped.result.iterations == 5

    def test_budget_does_not_change_easy_frames(self, small_code):
        # a frame converging under the cap decodes identically with and
        # without one — budgets trim the tail only
        frame = generate_traffic(small_code, 1, 6.0, seed=5)[0]
        with DecodeService(
            small_code, batch_size=2, max_iterations=MAX_ITER
        ) as svc:
            free = svc.submit(frame, timeout=None).result(60)
            capped = svc.submit(
                frame, timeout=None, iteration_budget=MAX_ITER - 2
            ).result(60)
        assert free.result.converged and capped.result.converged
        assert free.result.iterations == capped.result.iterations
        np.testing.assert_array_equal(free.result.bits, capped.result.bits)

    def test_caller_budget_tightens_but_never_loosens_shed(self, small_code):
        # with the queue nearly full the shed policy already caps the
        # budget; a looser caller budget must not win
        svc = DecodeService(
            small_code, batch_size=4, max_iterations=MAX_ITER,
            queue_capacity=8, autostart=False,
        )
        try:
            backlog = [
                svc.submit(hopeless_frame(small_code, seed=i), timeout=None)
                for i in range(7)
            ]
            # fill is now 7/8 = 0.875 -> 75% step -> budget 9
            shed_loose = svc.submit(
                hopeless_frame(small_code, seed=50), timeout=None,
                iteration_budget=MAX_ITER,
            )
            svc.start()
            assert shed_loose.result(60).result.iterations == int(
                MAX_ITER * 0.75
            )
            for future in backlog:
                future.result(60)
        finally:
            svc.close()


class TestZeroBudgetClass:
    def test_floor_rescues_zero_budget(self):
        # a 10% step on a small budget truncates to zero iterations; the
        # floor guarantees a real decode attempt instead
        policy = StepShedPolicy(steps=((1.0, 0.1),), floor_iterations=2)
        assert policy.budget(1.0, 10) == 2  # naive budget int(10*0.1) = 1
        assert policy.budget(1.0, 3) == 2

    def test_floor_never_exceeds_max_iterations(self):
        policy = StepShedPolicy(steps=((1.0, 0.5),), floor_iterations=8)
        # max_iterations 4 < floor 8: the budget is the full 4, not 8
        assert policy.budget(1.0, 4) == 4

    def test_admission_zero_budget_class_gets_floor(self):
        # bronze bias pushes fill to 1.0; with max_iterations=3 the 50%
        # step truncates to 1, floored to 2 — still below the max, so
        # the decision carries a real (not None) budget
        ctrl = AdmissionController(
            {"b": TenantPolicy(rate=100, burst=100, priority=BRONZE)},
            max_iterations=3,
        )
        decision = ctrl.admit("b", 1.0)
        assert decision.shed
        assert decision.iteration_budget == 2

    def test_invalid_steps_rejected(self):
        with pytest.raises(ServeError):
            StepShedPolicy(steps=((0.5, 1.0), (0.2, 0.5)))  # not ascending
        with pytest.raises(ServeError):
            StepShedPolicy(steps=((0.5, 1.0),))  # does not end at 1.0
        with pytest.raises(ServeError):
            StepShedPolicy(steps=((1.0, 0.0),))  # zero fraction
        with pytest.raises(ServeError):
            StepShedPolicy(floor_iterations=0)


class TestBudgetRestore:
    def test_budget_tracks_fill_down(self, small_code):
        # budgets are evaluated at submit time: frames queued while the
        # service is saturated get shed, frames after the backlog drains
        # get the full budget back
        svc = DecodeService(
            small_code, batch_size=4, max_iterations=MAX_ITER,
            queue_capacity=8, autostart=False,
        )
        try:
            backlog = [
                svc.submit(hopeless_frame(small_code, seed=i), timeout=None)
                for i in range(7)
            ]
            shed = svc.submit(
                hopeless_frame(small_code, seed=50), timeout=None
            )
            svc.start()
            for future in backlog:
                assert future.result(60).result.iterations == MAX_ITER
            assert shed.result(60).result.iterations == int(MAX_ITER * 0.75)
            # pressure is gone; the next frame gets its budget back
            restored = svc.submit(
                hopeless_frame(small_code, seed=51), timeout=None
            ).result(60)
            assert restored.result.iterations == MAX_ITER
            assert svc.metrics.snapshot().frames_shed == 1
        finally:
            svc.close()

    def test_no_shed_policy_never_sheds(self, small_code):
        svc = DecodeService(
            small_code, batch_size=4, max_iterations=MAX_ITER,
            queue_capacity=8, autostart=False, shed_policy=NoShedPolicy(),
        )
        try:
            futures = [
                svc.submit(hopeless_frame(small_code, seed=i), timeout=None)
                for i in range(8)
            ]
            svc.start()
            for future in futures:
                assert future.result(60).result.iterations == MAX_ITER
        finally:
            svc.close()


class TestRefusedFramesAreNotShed:
    def test_a_frame_refused_for_backpressure_is_not_shed(self):
        # the fifth frame meets a full queue (fill 1.0 sheds) and is
        # refused: it counts as rejected, never as shed, and no
        # pool.shed incident is logged for it
        log = EventLog()
        code = wimax_code("1/2", 576)
        svc = DecodeService(code, batch_size=2, queue_capacity=4,
                            autostart=False, log=log)
        frames = generate_traffic(code, 5, 4.0, seed=1)
        try:
            for frame in frames[:4]:
                svc.submit(frame)
            with pytest.raises(QueueFullError):
                svc.submit(frames[4])
            snap = svc.metrics.snapshot()
        finally:
            svc.close()
        assert snap.frames_rejected == 1
        assert snap.frames_shed == 0
        assert log.records(event="pool.shed") == []
