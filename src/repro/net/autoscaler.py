"""SLO-driven shard autoscaling for the decode service.

The :class:`Autoscaler` is a small control loop over the elastic pool
API (:meth:`~repro.serve.pool.DecodeService.add_shard` /
:meth:`~repro.serve.pool.DecodeService.remove_shard`): it watches the
service's SLO report (``health().slo``) and routed queue fill, and
trades replicas for latency within ``[min_shards, max_shards]``.

Stability mechanics, in order of precedence:

* **Dead-shard replacement** — a struck-out replica is swapped for a
  fresh one immediately (add first, remove second, so the group never
  loses routability), bypassing cooldown: capacity repair is not a
  scaling decision.
* **Cooldown** — after any scale action, no further action for
  ``cooldown_s``; a scale-up needs time to absorb queue backlog before
  its effect is measurable.
* **Hysteresis** — scale *up* on a single bad evaluation (fill at or
  above ``scale_up_fill``, or a failing SLO report); scale *down* only
  after ``shrink_after`` consecutive calm evaluations (fill at or
  below ``scale_down_fill`` and SLO not failing).  Growing is cheap
  and urgent; shrinking is neither.

:meth:`evaluate` is one synchronous decision step (exactly testable
with an injected clock); :meth:`start` runs it on a daemon thread every
``interval_s``.  Every action lands in ``decisions``, the
``net_autoscale_total`` counter in the service's registry, and the
event log.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import ServeError, ServeTimeoutError
from repro.net.metrics import NetMetrics
from repro.obs.log import EventLog, emit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.pool import DecodeService

__all__ = ["Autoscaler"]


class Autoscaler(object):
    """Grow/shrink one shard group between bounds, driven by SLO + fill.

    Parameters
    ----------
    service:
        The elastic :class:`~repro.serve.pool.DecodeService`.
    group:
        Shard group to scale; optional when the service has one group.
    min_shards / max_shards:
        Inclusive replica bounds.
    interval_s:
        Evaluation period of the background loop (:meth:`start`).
    cooldown_s:
        Minimum seconds between scale actions.
    shrink_after:
        Consecutive calm evaluations required before scaling down.
    scale_up_fill / scale_down_fill:
        Queue-fill thresholds (0..1) triggering growth / eligibility
        for shrink.  A failing SLO report also triggers growth.
    drain_timeout_s:
        Bound on waiting for a shrinking shard to drain.
    log:
        Optional :class:`~repro.obs.log.EventLog`.
    clock:
        Injectable monotonic clock (cooldown arithmetic in tests).
    """

    def __init__(
        self,
        service: "DecodeService",
        group: Optional[str] = None,
        min_shards: int = 1,
        max_shards: int = 4,
        interval_s: float = 1.0,
        cooldown_s: float = 5.0,
        shrink_after: int = 3,
        scale_up_fill: float = 0.5,
        scale_down_fill: float = 0.1,
        drain_timeout_s: float = 30.0,
        log: Optional[EventLog] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if group is None:
            groups = list(service.groups)
            if len(groups) != 1:
                raise ServeError(
                    f"service has {len(groups)} groups; pass one of {groups}"
                )
            group = groups[0]
        elif service.group_size(group) == 0:
            raise ServeError(f"unknown shard group {group!r}")
        if min_shards < 1 or max_shards < min_shards:
            raise ServeError(
                f"need 1 <= min_shards <= max_shards, got "
                f"{min_shards} / {max_shards}"
            )
        if shrink_after < 1:
            raise ServeError(f"shrink_after must be >= 1, got {shrink_after}")
        if not 0.0 <= scale_down_fill < scale_up_fill <= 1.0:
            raise ServeError(
                "need 0 <= scale_down_fill < scale_up_fill <= 1, got "
                f"{scale_down_fill} / {scale_up_fill}"
            )
        self.service = service
        self.group = group
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.interval_s = interval_s
        self.cooldown_s = cooldown_s
        self.shrink_after = shrink_after
        self.scale_up_fill = scale_up_fill
        self.scale_down_fill = scale_down_fill
        self.drain_timeout_s = drain_timeout_s
        #: ``net_autoscale_total`` lives in the service's registry.
        self.metrics = NetMetrics(service.metrics.registry)
        self.log = log
        self._clock = clock
        self._last_action = -float("inf")
        self._calm_streak = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Every action taken: dicts with action/fill/replicas/at keys.
        self.decisions: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def count(self, action: str) -> int:
        """How many times ``action`` (``"up"``/``"down"``/``"replace"``)
        has been taken."""
        return sum(1 for d in self.decisions if d["action"] == action)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (``repro top`` / soak reports)."""
        return {
            "group": self.group,
            "replicas": self.service.group_size(self.group),
            "min_shards": self.min_shards,
            "max_shards": self.max_shards,
            "counts": {
                action: self.count(action)
                for action in ("up", "down", "replace")
            },
            "decisions": list(self.decisions[-20:]),
        }

    # ------------------------------------------------------------------
    # the decision step
    # ------------------------------------------------------------------
    def evaluate(self) -> Optional[str]:
        """Run one control-loop step; returns the action taken (if any).

        Precedence: replace dead replicas, then scale up, then scale
        down.  Returns ``"replace"``, ``"up"``, ``"down"``, or None.
        """
        health = self.service.health()
        if health.closed:
            return None
        dead = [
            s.key for s in health.shards.values()
            if s.group == self.group and not s.healthy
        ]
        if dead:
            return self._replace(dead[0])
        fill = self.service.queue_fill(self.group)
        slo = health.slo
        slo_failing = slo is not None and slo.status == "fail"
        replicas = self.service.group_size(self.group)
        now = self._clock()
        cooled = now - self._last_action >= self.cooldown_s
        if fill >= self.scale_up_fill or slo_failing:
            self._calm_streak = 0
            if replicas >= self.max_shards:
                emit(None, self.log, "debug", "scale.limit", at="max",
                     replicas=replicas, fill=round(fill, 3))
                return None
            if not cooled:
                return None
            return self._scale_up(fill, slo_failing)
        if fill <= self.scale_down_fill and not slo_failing:
            self._calm_streak += 1
            if (
                self._calm_streak >= self.shrink_after
                and replicas > self.min_shards
                and cooled
            ):
                return self._scale_down(fill)
            return None
        self._calm_streak = 0
        return None

    # ------------------------------------------------------------------
    # background loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run :meth:`evaluate` every ``interval_s`` on a daemon thread."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name=f"autoscaler-{self.group}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background loop (idempotent; joins the thread)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(10.0, self.drain_timeout_s))
            self._thread = None

    def __enter__(self) -> "Autoscaler":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.evaluate()
            except ServeError:
                pass  # service closing under us mid-step; next tick decides
            self._stop.wait(self.interval_s)

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def _replace(self, dead_key: str) -> Optional[str]:
        try:
            added = self.service.add_shard(self.group)
            self.service.remove_shard(key=dead_key, drain=False)
        except ServeError:
            return None  # raced close/removal; next tick re-evaluates
        self._record("replace", 1.0, removed=dead_key, added=added)
        return "replace"

    def _scale_up(self, fill: float, slo_failing: bool) -> Optional[str]:
        try:
            added = self.service.add_shard(self.group)
        except ServeError:
            return None
        self._last_action = self._clock()
        self._calm_streak = 0
        self._record("up", fill, added=added, slo_failing=slo_failing)
        return "up"

    def _scale_down(self, fill: float) -> Optional[str]:
        try:
            removed = self.service.remove_shard(
                group=self.group, drain=True, timeout=self.drain_timeout_s
            )
        except (ServeError, ServeTimeoutError):
            return None
        self._last_action = self._clock()
        self._calm_streak = 0
        self._record("down", fill, removed=removed)
        return "down"

    def _record(self, action: str, fill: float, **extra: object) -> None:
        replicas = self.service.group_size(self.group)
        self.decisions.append(
            {
                "action": action,
                "fill": round(fill, 4),
                "replicas": replicas,
                "at": self._clock(),
            }
        )
        self.metrics.autoscale.inc(direction=action)
        # code_id mirrors group so `repro logs --code-id` isolates the
        # scaling history of one code alongside its request incidents
        level = "warning" if action == "replace" else "info"
        emit(None, self.log, level, f"scale.{action}", group=self.group,
             code_id=self.group, replicas=replicas, fill=round(fill, 3),
             **extra)
