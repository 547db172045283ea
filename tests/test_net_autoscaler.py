"""Autoscaler control-loop tests: thresholds, cooldown, hysteresis.

``evaluate()`` is a synchronous decision step, so every rule is pinned
with an injected clock and a synthetic queue-fill signal — no sleeps,
no load generation.  The one thing faked is the pressure; the shard
pool being grown and shrunk is real.
"""

import dataclasses
import time

import pytest

from repro.errors import ServeError
from repro.net import Autoscaler
from repro.serve.pool import DecodeService

pytestmark = pytest.mark.net


class FakeClock(object):
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeSlo(object):
    status = "fail"


@pytest.fixture()
def service(small_code):
    svc = DecodeService(small_code, batch_size=2, queue_capacity=4)
    yield svc
    svc.close()


def make_scaler(svc, clock, **kwargs):
    kwargs.setdefault("min_shards", 1)
    kwargs.setdefault("max_shards", 3)
    kwargs.setdefault("cooldown_s", 5.0)
    kwargs.setdefault("shrink_after", 3)
    kwargs.setdefault("scale_up_fill", 0.5)
    kwargs.setdefault("scale_down_fill", 0.1)
    return Autoscaler(svc, clock=clock, **kwargs)


def set_fill(svc, value):
    """Override the pressure signal; the pool itself stays real."""
    holder = {"v": value}
    svc.queue_fill = lambda key=None: holder["v"]
    return holder


class TestScaleUp:
    def test_high_fill_grows_group(self, service):
        clock = FakeClock()
        scaler = make_scaler(service, clock)
        set_fill(service, 0.9)
        assert scaler.evaluate() == "up"
        assert service.group_size(scaler.group) == 2
        assert scaler.decisions[-1]["action"] == "up"

    def test_cooldown_blocks_back_to_back_growth(self, service):
        clock = FakeClock()
        scaler = make_scaler(service, clock, cooldown_s=5.0)
        set_fill(service, 0.9)
        assert scaler.evaluate() == "up"
        clock.advance(1.0)
        assert scaler.evaluate() is None  # still cooling
        clock.advance(4.0)
        assert scaler.evaluate() == "up"
        assert service.group_size(scaler.group) == 3

    def test_max_shards_is_a_ceiling(self, service):
        clock = FakeClock()
        scaler = make_scaler(service, clock, max_shards=2, cooldown_s=0.0)
        set_fill(service, 1.0)
        assert scaler.evaluate() == "up"
        clock.advance(1.0)
        assert scaler.evaluate() is None
        assert service.group_size(scaler.group) == 2

    def test_failing_slo_triggers_growth_at_low_fill(self, service, monkeypatch):
        clock = FakeClock()
        scaler = make_scaler(service, clock)
        set_fill(service, 0.0)
        real_health = service.health
        monkeypatch.setattr(
            service, "health",
            lambda: dataclasses.replace(real_health(), slo=FakeSlo()),
        )
        assert scaler.evaluate() == "up"
        assert scaler.decisions[-1]["action"] == "up"


class TestScaleDown:
    def test_shrink_needs_consecutive_calm_evals(self, service):
        clock = FakeClock()
        scaler = make_scaler(service, clock, cooldown_s=0.0, shrink_after=3)
        service.add_shard(scaler.group)
        fill = set_fill(service, 0.0)
        assert scaler.evaluate() is None  # calm 1
        assert scaler.evaluate() is None  # calm 2
        assert scaler.evaluate() == "down"  # calm 3
        assert service.group_size(scaler.group) == 1
        assert fill["v"] == 0.0  # the signal never moved; hysteresis did

    def test_never_shrinks_below_min(self, service):
        clock = FakeClock()
        scaler = make_scaler(service, clock, cooldown_s=0.0, shrink_after=1)
        set_fill(service, 0.0)
        for _ in range(5):
            assert scaler.evaluate() is None
        assert service.group_size(scaler.group) == 1

    def test_moderate_fill_resets_calm_streak(self, service):
        clock = FakeClock()
        scaler = make_scaler(service, clock, cooldown_s=0.0, shrink_after=3)
        service.add_shard(scaler.group)
        fill = set_fill(service, 0.0)
        scaler.evaluate()
        scaler.evaluate()  # two calm evals
        fill["v"] = 0.3  # between thresholds: neither calm nor pressed
        assert scaler.evaluate() is None
        fill["v"] = 0.0
        scaler.evaluate()
        scaler.evaluate()
        assert service.group_size(scaler.group) == 2  # streak restarted
        assert scaler.evaluate() == "down"

    def test_shrink_respects_cooldown(self, service):
        clock = FakeClock()
        scaler = make_scaler(service, clock, cooldown_s=10.0, shrink_after=1)
        set_fill(service, 0.9)
        assert scaler.evaluate() == "up"
        set_fill(service, 0.0)
        clock.advance(5.0)
        assert scaler.evaluate() is None  # calm but still cooling
        clock.advance(5.0)
        assert scaler.evaluate() == "down"


class TestReplace:
    def test_dead_shard_is_replaced_ignoring_cooldown(self, service, monkeypatch):
        clock = FakeClock()
        scaler = make_scaler(service, clock, cooldown_s=1e9)
        set_fill(service, 0.0)
        scaler._last_action = clock()  # deep in cooldown
        (dead_key,) = service.shard_keys
        real_health = service.health

        def doctored():
            snap = real_health()
            shards = dict(snap.shards)
            if dead_key in shards:
                shards[dead_key] = dataclasses.replace(
                    shards[dead_key], healthy=False
                )
            return dataclasses.replace(snap, shards=shards)

        monkeypatch.setattr(service, "health", doctored)
        assert scaler.evaluate() == "replace"
        assert dead_key not in service.shard_keys
        assert service.group_size(scaler.group) == 1  # add then remove
        assert scaler.count("replace") == 1


class TestBookkeeping:
    def test_decisions_count_and_metrics(self, service):
        clock = FakeClock()
        scaler = make_scaler(service, clock, cooldown_s=0.0, shrink_after=1)
        fill = set_fill(service, 0.9)
        scaler.evaluate()
        fill["v"] = 0.0
        clock.advance(1.0)
        scaler.evaluate()
        assert scaler.count("up") == 1
        assert scaler.count("down") == 1
        assert [d["action"] for d in scaler.decisions] == ["up", "down"]
        for decision in scaler.decisions:
            assert set(decision) >= {"action", "fill", "replicas", "at"}
        counter = service.metrics.registry.get("net_autoscale_total")
        assert counter.value(direction="up") == 1
        assert counter.value(direction="down") == 1

    def test_closed_service_is_left_alone(self, small_code):
        svc = DecodeService(small_code, batch_size=2)
        scaler = make_scaler(svc, FakeClock())
        set_fill(svc, 1.0)
        svc.close()
        assert scaler.evaluate() is None

    def test_invalid_configuration_rejected(self, service):
        with pytest.raises(ServeError):
            make_scaler(service, FakeClock(), min_shards=3, max_shards=1)
        with pytest.raises(ServeError):
            make_scaler(service, FakeClock(), shrink_after=0)
        with pytest.raises(ServeError):
            make_scaler(
                service, FakeClock(),
                scale_up_fill=0.1, scale_down_fill=0.5,
            )
        with pytest.raises(ServeError):
            Autoscaler(service, group="no-such-group")


class TestBackgroundLoop:
    def test_loop_scales_up_under_pressure(self, service):
        scaler = make_scaler(
            service, time.monotonic, cooldown_s=0.0, interval_s=0.01
        )
        set_fill(service, 0.9)
        deadline = time.monotonic() + 5.0
        with scaler:
            while scaler.count("up") == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert scaler.count("up") >= 1
        assert service.group_size(scaler.group) >= 2
