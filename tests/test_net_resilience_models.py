"""Model-based tests of the gateway dedup window and the circuit breaker.

Hypothesis drives each class through random interleavings of its
operations and an injected clock, next to a plain reference model — a
dict for :class:`DedupWindow`, an enum for :class:`CircuitBreaker` —
and demands they agree after every step.  The breaker machine includes
the "abandon the probe" step a cancelled attempt (say, a hedge that
lost) takes, so a probe that is never given back shows up as a state
mismatch.
"""

import asyncio
import enum
from typing import Any, Dict, Tuple

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.net.dedup import DedupWindow
from repro.net.resilience import CircuitBreaker

pytestmark = pytest.mark.net

_SETTINGS = settings(
    max_examples=150,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class _Mode(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    PROBING = "probing"  # half-open with the one probe out


class BreakerMachine(RuleBasedStateMachine):
    THRESHOLD = 3
    RESET_S = 2.0

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.breaker = CircuitBreaker(
            self.THRESHOLD, self.RESET_S, clock=lambda: self.now
        )
        self.mode = _Mode.CLOSED
        self.failures = 0
        self.opened_at = 0.0

    def _reopen(self) -> None:
        self.mode = _Mode.OPEN
        self.opened_at = self.now

    def _timed_out(self) -> bool:
        return self.now - self.opened_at >= self.RESET_S

    @rule(dt=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]))
    def advance(self, dt: float) -> None:
        self.now += dt

    @rule()
    def allow(self) -> None:
        expected = self.mode is _Mode.CLOSED
        if self.mode is _Mode.OPEN and self._timed_out():
            self.mode = _Mode.PROBING
            expected = True
        assert self.breaker.allow() is expected

    @rule()
    def success(self) -> None:
        self.breaker.record_success()
        self.mode = _Mode.CLOSED
        self.failures = 0

    @rule()
    def failure(self) -> None:
        self.breaker.record_failure()
        if self.mode is _Mode.PROBING:
            self._reopen()
            return
        self.failures += 1
        if self.failures >= self.THRESHOLD:
            self._reopen()

    @rule()
    def abandon_probe(self) -> None:
        # an attempt that ends with no verdict, e.g. cancelled by a hedge
        self.breaker.release()
        if self.mode is _Mode.PROBING:
            self._reopen()

    @invariant()
    def state_agrees(self) -> None:
        if self.mode is _Mode.CLOSED:
            expected = "closed"
        elif self.mode is _Mode.OPEN and not self._timed_out():
            expected = "open"
        else:
            expected = "half_open"
        assert self.breaker.to_dict() == {
            "state": expected, "failures": self.failures,
        }


class DedupMachine(RuleBasedStateMachine):
    TTL_S = 5.0
    MAX_ENTRIES = 3
    keys = st.sampled_from(["a", "b", "c", "d", "e"])

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.loop = asyncio.new_event_loop()
        self.window = DedupWindow(
            ttl_s=self.TTL_S, max_entries=self.MAX_ENTRIES,
            clock=lambda: self.now,
        )
        # key -> (expiry, value); dict order is age order
        self.model: Dict[str, Tuple[float, Any]] = {}
        self.counts = {"hits": 0, "joined": 0, "misses": 0}

    def teardown(self) -> None:
        self.loop.close()

    def _purge(self) -> None:
        expired = [k for k, (exp, _v) in self.model.items() if exp <= self.now]
        for key in expired:
            del self.model[key]
        while len(self.model) > self.MAX_ENTRIES:
            del self.model[next(iter(self.model))]

    @rule(dt=st.sampled_from([0.0, 1.0, 2.5, 5.0, 7.0]))
    def advance(self, dt: float) -> None:
        self.now += dt

    @rule(key=keys, in_flight=st.booleans())
    def put(self, key: str, in_flight: bool) -> None:
        if in_flight:
            value: Any = self.loop.create_future()
            value.set_result(("bits", key))
        else:
            value = ("bits", key)
        self.window.put(key, value)
        self.model.pop(key, None)
        self.model[key] = (self.now + self.TTL_S, value)
        self._purge()

    @rule(key=keys)
    def discard(self, key: str) -> None:
        self.window.discard(key)
        self.model.pop(key, None)

    @rule(key=keys)
    def lookup(self, key: str) -> None:
        found = self.window.lookup(key)
        self._purge()
        entry = self.model.get(key)
        if entry is None:
            self.counts["misses"] += 1
            assert found is None
            return
        assert found is entry[1]
        if isinstance(found, asyncio.Future):
            self.counts["joined"] += 1
        else:
            self.counts["hits"] += 1

    @invariant()
    def window_agrees(self) -> None:
        assert len(self.window) == len(self.model)
        assert self.window.to_dict() == {
            "entries": len(self.model), **self.counts,
        }


TestBreakerModel = BreakerMachine.TestCase
TestBreakerModel.settings = _SETTINGS
TestDedupModel = DedupMachine.TestCase
TestDedupModel.settings = _SETTINGS
