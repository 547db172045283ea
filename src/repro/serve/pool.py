"""Sharded worker pool wrapping continuous-batching engines.

:class:`DecodeService` is the front door of the serving runtime: callers
submit frames (getting a future back) and a pool of worker threads — one
per code shard — drains bounded queues into per-shard
:class:`~repro.serve.engine.ContinuousBatchingEngine` instances.

Design points:

* **Per-rate sharding.**  Every configured code gets its own queue,
  worker, and engine, so mixed-rate traffic (à la CVR's continuously
  variable rate decoding) never fragments a batch: all frames sharing a
  slot matrix have the same length and layer structure.
* **Backpressure.**  Queues are bounded; ``submit`` either rejects
  immediately (:class:`~repro.errors.QueueFullError`) or waits up to a
  timeout (:class:`~repro.errors.ServeTimeoutError`), so overload is an
  explicit, typed signal rather than unbounded memory growth.
* **Supervision.**  Worker crashes fail every pending future fast with
  a typed error — nothing ever hangs — then the supervisor rebuilds the
  engine and restarts the loop under capped exponential backoff.  A
  shard that crashes ``max_strikes`` times without making progress is
  taken out of service: further submissions raise
  :class:`~repro.errors.ShardDeadError`.
* **Graceful degradation.**  A transient engine failure
  (:class:`~repro.errors.TransientDecodeError`, e.g. an injected fault)
  re-admits in-flight frames within their per-job retry budget instead
  of failing them; under overload the load-shedding policy lowers the
  iteration budget of newly admitted frames before backpressure starts
  rejecting outright; per-job deadlines stop the service from decoding
  frames nobody is waiting for anymore.
* **Elastic shard groups.**  Every configured code seeds a *group* of
  replica shards sharing one routing key; :meth:`DecodeService.add_shard`
  grows a group at runtime (the new worker starts immediately) and
  :meth:`DecodeService.remove_shard` shrinks it, draining queued and
  in-flight frames before the worker exits.  Submissions routed by
  group key (or by unique LLR length) land on the least-loaded healthy
  replica, so the SLO-driven autoscaler in :mod:`repro.net.autoscaler`
  can trade shards for latency without touching callers.
* **Threads.**  The hot loop is one compiled kernel call per engine
  step, which releases the GIL, so two shard threads decode on two
  cores; threads keep results zero-copy and the service embeddable,
  and one engine per worker means no shared mutable decode state.
* **Doorbell.**  A shard's queue is a deque under the shard's lock.
  ``submit`` takes that lock once: it checks capacity, appends and
  sets the shard engine's ``doorbell``, so a step with a free slot
  returns after its current iteration.  The worker takes its queue
  only when the doorbell is set or the engine is empty, and then in
  one acquisition of the same lock: it clears the doorbell and takes
  every frame that fits the engine's free slots, ringing the doorbell
  again if frames are left.  A frame queued after the take rings it
  anew, so no wake-up is lost, and a step that retires frames with
  nothing queued costs no lock at all.  An empty engine's worker
  waits on the lock's condition, which ``submit`` notifies.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.codes.qc import QCLDPCCode
from repro.decoder.layered import DEFAULT_MAX_ITERATIONS
from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ServeTimeoutError,
    ServiceClosedError,
    ShardDeadError,
    TransientDecodeError,
    UnknownCodeError,
)
from repro.obs.log import EventLog, emit
from repro.serve.engine import ContinuousBatchingEngine
from repro.serve.jobs import CompletedJob, DecodeJob
from repro.serve.metrics import ServeMetrics
from repro.serve.shedding import LoadShedPolicy, StepShedPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.slo import SloMonitor, SloReport
    from repro.obs.trace import TraceContext, TraceRecorder

__all__ = ["DecodeService", "ServiceHealth", "ShardHealth"]

_POLL_S = 0.05

_Item = Tuple[DecodeJob, "Future[CompletedJob]"]

@dataclass(frozen=True)
class ShardHealth(object):
    """Point-in-time health of one shard."""

    key: str
    alive: bool
    healthy: bool
    queue_depth: int
    queue_capacity: int
    in_flight: int
    restarts: int
    strikes: int
    last_error: Optional[str]
    group: str = ""

    @property
    def fill(self) -> float:
        """Queue fill fraction (0..1) of this shard."""
        if self.queue_capacity <= 0:
            return 0.0
        return min(1.0, self.queue_depth / self.queue_capacity)


@dataclass(frozen=True)
class ServiceHealth(object):
    """Point-in-time health of the whole service.

    ``slo`` carries the :class:`~repro.obs.slo.SloReport` of the
    service's SLO monitor evaluated at snapshot time (None when the
    service was built without one); ``status`` reflects shard liveness
    only, so an SLO breach degrades the report without flapping the
    routing-level health signal.
    """

    closed: bool
    shards: Dict[str, ShardHealth]
    slo: "Optional[SloReport]" = None

    @property
    def status(self) -> str:
        """``"ok"``, ``"degraded"`` (some shard down or striking), or
        ``"dead"`` (no shard can accept work)."""
        down = [s for s in self.shards.values() if not s.healthy]
        if len(down) == len(self.shards):
            return "dead"
        if down or any(s.strikes > 0 for s in self.shards.values()):
            return "degraded"
        return "ok"


class _Shard(object):
    """One replica's queue + engine + supervised worker thread."""

    def __init__(
        self,
        key: str,
        make_engine: Callable[[], ContinuousBatchingEngine],
        capacity: int,
        group: str = "",
    ) -> None:
        self.key = key
        self.group = group or key
        self.make_engine = make_engine
        self.engine = make_engine()
        # the bounded queue: frames waiting for a slot, under ``lock``;
        # the worker waits on ``ready`` for frames, blocked submitters
        # on ``space`` for room
        self.capacity = capacity
        self.pending: Deque[_Item] = deque()
        self.lock = threading.Lock()
        self.ready = threading.Condition(self.lock)
        self.space = threading.Condition(self.lock)
        self.thread: Optional[threading.Thread] = None
        # in-flight work, owned by the worker/supervisor thread
        self.futures: Dict[int, _Item] = {}
        self.healthy = True
        self.restarts = 0
        self.strikes = 0
        self.last_error: Optional[BaseException] = None
        # runtime removal: drained workers exit when this is set
        self.stopping = threading.Event()
        # chaos hook: the worker raises this at its next loop turn
        self.crash_next: Optional[BaseException] = None

    @property
    def load(self) -> int:
        """Queued + in-flight frames (the replica-routing load signal)."""
        return len(self.pending) + self.engine.in_flight


class DecodeService(object):
    """Threaded decode service with sharding, backpressure, and self-healing.

    Parameters
    ----------
    codes:
        One :class:`QCLDPCCode` or a mapping ``{key: code}``; each entry
        becomes an independent shard.  For a single code the key is the
        code's name.
    batch_size:
        Slots per shard engine.
    max_iterations / fixed:
        Decoder configuration, shared by every shard.
    schedule:
        ``"row"`` (default, bit-exact with the per-frame row-layered
        decoder) or ``"column"`` — the column-layered schedule of
        :mod:`repro.serve.column`.
    queue_capacity:
        Bound of each shard's admission queue (the backpressure knob).
    autostart:
        Start worker threads immediately; with ``False`` the service
        accepts submissions (until queues fill) but decodes nothing
        until :meth:`start` — useful for tests and staged warm-up.
    shed_policy:
        Load-shedding policy mapping queue fill to iteration budget
        (default: :class:`~repro.serve.shedding.StepShedPolicy`, which
        sheds only above 75 % fill; pass
        :class:`~repro.serve.shedding.NoShedPolicy` to disable).
    default_max_retries:
        Retry budget given to jobs whose ``submit`` call does not
        specify one: how many times a frame is re-admitted after a
        transient engine failure before its future fails.
    max_strikes:
        Consecutive worker crashes (without a successful engine step in
        between) before a shard is marked unhealthy and taken out of
        service.
    restart_backoff_s / restart_backoff_cap_s:
        Initial and maximum supervisor backoff between worker restarts
        (doubled per consecutive crash).
    recorder:
        Optional :class:`~repro.obs.trace.TraceRecorder` shared by the
        service and every shard engine: the pool emits
        ``pool.enqueue`` / ``pool.dispatch`` / ``pool.expire`` /
        ``pool.shed`` / ``pool.crash`` / ``pool.restart`` /
        ``pool.shard_dead`` events and the engines their slot-level
        spans/events, giving one timeline for the whole service.
    log:
        Optional :class:`~repro.obs.log.EventLog`: every pool lifecycle
        event is also written as a levelled structured record (crashes
        and strike-outs at ``error``, restarts/expiries/sheds at
        ``warning``, enqueue/dispatch chatter at ``debug``).
    slo:
        Optional :class:`~repro.obs.slo.SloMonitor`; when given,
        :meth:`health` evaluates it against the service's metrics
        registry and attaches the report to :class:`ServiceHealth`.
    """

    def __init__(
        self,
        codes: Union[QCLDPCCode, Mapping[str, QCLDPCCode]],
        batch_size: int = 16,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        fixed: bool = False,
        schedule: str = "row",
        queue_capacity: int = 256,
        autostart: bool = True,
        shed_policy: Optional[LoadShedPolicy] = None,
        default_max_retries: int = 1,
        max_strikes: int = 3,
        restart_backoff_s: float = 0.1,
        restart_backoff_cap_s: float = 2.0,
        recorder: "Optional[TraceRecorder]" = None,
        log: "Optional[EventLog]" = None,
        slo: "Optional[SloMonitor]" = None,
    ) -> None:
        if schedule not in ("row", "column"):
            raise ServeError(
                f"schedule must be 'row' or 'column', got {schedule!r}"
            )
        if queue_capacity < 1:
            raise ServeError(f"queue_capacity must be >= 1, got {queue_capacity}")
        if default_max_retries < 0:
            raise ServeError(
                f"default_max_retries must be >= 0, got {default_max_retries}"
            )
        if max_strikes < 1:
            raise ServeError(f"max_strikes must be >= 1, got {max_strikes}")
        if restart_backoff_s <= 0 or restart_backoff_cap_s < restart_backoff_s:
            raise ServeError(
                "need 0 < restart_backoff_s <= restart_backoff_cap_s, got "
                f"{restart_backoff_s} / {restart_backoff_cap_s}"
            )
        if isinstance(codes, QCLDPCCode):
            codes = {codes.name or "default": codes}
        if not codes:
            raise ServeError("DecodeService needs at least one code")
        #: The service's metrics; its ``registry`` is the one registry
        #: of the serving stack (gateways and autoscalers publish their
        #: ``net_*`` series into it too).
        self.metrics = ServeMetrics()
        self.recorder = recorder
        self.log = log
        self.slo = slo
        self.schedule = schedule
        self.max_iterations = max_iterations
        self.shed_policy = shed_policy if shed_policy is not None else StepShedPolicy()
        self.default_max_retries = default_max_retries
        self.max_strikes = max_strikes
        self.restart_backoff_s = restart_backoff_s
        self.restart_backoff_cap_s = restart_backoff_cap_s
        self.batch_size = batch_size
        self.fixed = fixed
        self.queue_capacity = queue_capacity
        #: Registry ids this service was built from (see from_registry).
        self.registry_ids: Tuple[str, ...] = ()
        self._shards: Dict[str, _Shard] = {}
        self._length_index: Dict[int, List[str]] = {}
        self._groups: Dict[str, List[str]] = {}
        self._group_codes: Dict[str, QCLDPCCode] = {}
        self._replica_seq: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._shard_gauge = self.metrics.registry.gauge(
            "serve_shards", "live shards per group", label_names=("group",)
        )
        for key, code in codes.items():
            self._shards[key] = _Shard(key, self._engine_factory(code),
                                       queue_capacity, group=key)
            self._length_index.setdefault(code.n, []).append(key)
            self._groups[key] = [key]
            self._group_codes[key] = code
            self._replica_seq[key] = 0
            self._shard_gauge.set(1, group=key)
        self._closing = threading.Event()
        self._started = False
        if autostart:
            self.start()

    def _engine_factory(
        self, code: QCLDPCCode
    ) -> Callable[[], ContinuousBatchingEngine]:
        def make() -> ContinuousBatchingEngine:
            engine = ContinuousBatchingEngine(
                code,
                batch_size=self.batch_size,
                max_iterations=self.max_iterations,
                fixed=self.fixed,
                schedule=self.schedule,
                metrics=self.metrics,
                recorder=self.recorder,
            )
            # a rebuilt engine replaces one whose queue may hold frames
            engine.doorbell[0] = 1
            return engine

        return make

    @classmethod
    def from_registry(
        cls,
        code_ids: Sequence[str],
        registry: Optional[object] = None,
        warm_plans: bool = True,
        **kwargs: object,
    ) -> "DecodeService":
        """Host a set of registry codes, one shard group per id.

        ``code_ids`` are ids from a :class:`~repro.codes.registry.CodeRegistry`
        (default: the process-wide zoo from
        :func:`~repro.codes.registry.default_registry`); unknown ids
        raise :class:`~repro.errors.UnknownCodeError` before any shard
        is built.  Shard groups are keyed by registry id, so the same
        string a remote client puts in the net protocol's ``code_id``
        field routes frames here — rate-aware routing across the whole
        zoo, even when several codes share a frame length.  With
        ``warm_plans`` (default) each code's :class:`~repro.accel.plan.CodePlan`
        is built into the process-global plan cache up front, so the
        first frame of every code hits a warm cache instead of paying
        plan construction on the serving path.
        """
        if registry is None:
            from repro.codes.registry import default_registry

            registry = default_registry()
        ids = list(code_ids)
        if not ids:
            raise ServeError("from_registry needs at least one code id")
        codes = {code_id: registry.get(code_id) for code_id in ids}
        if warm_plans:
            from repro.accel.plan import get_plan

            for code in codes.values():
                get_plan(code)
        service = cls(codes, **kwargs)
        service.registry_ids = tuple(ids)
        return service

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start one supervised worker thread per shard (idempotent)."""
        if self._closing.is_set():
            raise ServiceClosedError("cannot start a closed service")
        if self._started:
            return
        for shard in self._shards.values():
            self._start_worker(shard)
        self._started = True

    def _start_worker(self, shard: _Shard) -> None:
        thread = threading.Thread(
            target=self._supervise,
            args=(shard,),
            name=f"decode-worker-{shard.key}",
            daemon=True,
        )
        shard.thread = thread
        thread.start()

    def close(self, wait: bool = True) -> None:
        """Stop accepting frames; drain queued and in-flight work.

        With ``wait=True`` blocks until every worker has retired its
        remaining frames and exited; with ``wait=False`` returns
        immediately while the daemon workers finish draining in the
        background (their futures still resolve).  Safe to call more
        than once.
        """
        self._closing.set()
        if not self._started:
            # no worker will ever drain these; fail them explicitly
            for shard in self._shards.values():
                self._fail_queue(shard, ServiceClosedError("service closed"))
            return
        if wait:
            for shard in self._shards.values():
                if shard.thread is not None:
                    shard.thread.join()

    def __enter__(self) -> "DecodeService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=True)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun; submissions are refused."""
        return self._closing.is_set()

    @property
    def shard_keys(self) -> List[str]:
        """Configured shard keys, in insertion order."""
        return list(self._shards)

    @property
    def groups(self) -> Dict[str, List[str]]:
        """Replica-group membership: ``{group: [shard keys]}`` (a copy)."""
        with self._lock:
            return {g: list(keys) for g, keys in self._groups.items()}

    def group_size(self, group: str) -> int:
        """Live replica count of ``group`` (0 for an unknown group)."""
        with self._lock:
            return len(self._groups.get(group, ()))

    # ------------------------------------------------------------------
    # elastic shard pool (the autoscaler surface)
    # ------------------------------------------------------------------
    def add_shard(self, group: Optional[str] = None) -> str:
        """Grow a replica group by one shard; returns the new shard key.

        The new shard decodes the group's code with the service-wide
        engine configuration and (on a started service) begins draining
        work immediately.  With one configured code ``group`` may be
        omitted.  Replica keys are ``<group>#<seq>`` with a monotonic
        per-group sequence, so a key is never reused.
        """
        if self._closing.is_set():
            raise ServiceClosedError("cannot add shards to a closed service")
        with self._lock:
            if group is None:
                if len(self._groups) != 1:
                    raise ServeError(
                        f"service has {len(self._groups)} groups; pass one of "
                        f"{list(self._groups)}"
                    )
                group = next(iter(self._groups))
            code = self._group_codes.get(group)
            if code is None:
                raise ServeError(
                    f"unknown shard group {group!r}; have {list(self._groups)}"
                )
            self._replica_seq[group] += 1
            key = f"{group}#{self._replica_seq[group]}"
            shard = _Shard(key, self._engine_factory(code),
                           self.queue_capacity, group=group)
            self._shards[key] = shard
            self._groups[group].append(key)
            self._length_index.setdefault(code.n, []).append(key)
            self._shard_gauge.set(len(self._groups[group]), group=group)
        if self._started:
            self._start_worker(shard)
        emit(self.recorder, self.log, "info", "pool.shard_added", shard=key,
             group=group, replicas=self.group_size(group))
        return key

    def remove_shard(
        self,
        key: Optional[str] = None,
        group: Optional[str] = None,
        drain: bool = True,
        timeout: Optional[float] = None,
    ) -> str:
        """Shrink the pool by one shard; returns the removed shard key.

        Pass either an explicit shard ``key`` or a ``group`` (the most
        recently added replica is removed).  The last replica of a group
        cannot be removed — a group must always be routable.

        With ``drain=True`` (default) the shard stops accepting new
        frames, finishes its queued and in-flight work, and its worker
        exits cleanly before the shard is dropped (bounded by
        ``timeout`` seconds when given).  With ``drain=False`` queued
        frames fail fast with :class:`~repro.errors.ShardDeadError`;
        in-flight frames still retire.  Dead (struck-out) shards can be
        removed regardless of replica count via ``key``.
        """
        with self._lock:
            shard = self._resolve_removal(key, group)
            members = self._groups[shard.group]
            if len(members) <= 1 and shard.healthy:
                raise ServeError(
                    f"cannot remove {shard.key!r}: it is the last replica of "
                    f"group {shard.group!r}"
                )
            shard.stopping.set()
        if not drain:
            self._fail_queue(
                shard,
                ShardDeadError(f"shard {shard.key!r} removed without drain"),
            )
        thread = shard.thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)
            if thread.is_alive():
                raise ServeTimeoutError(
                    f"shard {shard.key!r} did not drain within {timeout}s"
                )
        else:
            # never started (or already dead): nothing will drain the queue
            self._fail_queue(
                shard, ShardDeadError(f"shard {shard.key!r} removed")
            )
        with self._lock:
            self._shards.pop(shard.key, None)
            members = self._groups.get(shard.group, [])
            if shard.key in members:
                members.remove(shard.key)
            length_keys = self._length_index.get(
                self._group_codes[shard.group].n, []
            )
            if shard.key in length_keys:
                length_keys.remove(shard.key)
            self._shard_gauge.set(len(members), group=shard.group)
        emit(self.recorder, self.log, "info", "pool.shard_removed",
             shard=shard.key, group=shard.group,
             replicas=self.group_size(shard.group), drained=drain)
        return shard.key

    def _resolve_removal(
        self, key: Optional[str], group: Optional[str]
    ) -> _Shard:
        """Pick the shard to remove (caller holds the lock)."""
        if key is not None:
            shard = self._shards.get(key)
            if shard is None:
                raise ServeError(
                    f"unknown shard key {key!r}; have {list(self._shards)}"
                )
            return shard
        if group is None:
            if len(self._groups) != 1:
                raise ServeError(
                    f"service has {len(self._groups)} groups; pass one of "
                    f"{list(self._groups)}"
                )
            group = next(iter(self._groups))
        members = self._groups.get(group)
        if not members:
            raise ServeError(
                f"unknown shard group {group!r}; have {list(self._groups)}"
            )
        return self._shards[members[-1]]

    def queue_fill(self, code_key: Optional[str] = None) -> float:
        """Mean queue fill (0..1) across the routed shards.

        ``code_key`` may be a group name or a shard key; ``None`` means
        every shard.  The gateway's admission layer feeds this into the
        load-shedding policy, so remote traffic sees the same degrade-
        before-reject behaviour as in-process callers.
        """
        with self._lock:
            if code_key is None:
                shards = list(self._shards.values())
            elif code_key in self._groups:
                shards = [self._shards[k] for k in self._groups[code_key]]
            elif code_key in self._shards:
                shards = [self._shards[code_key]]
            else:
                raise UnknownCodeError(
                    f"unknown code_key {code_key!r}; have {self.shard_keys}"
                )
        fills = [
            len(s.pending) / s.capacity
            for s in shards
            if not s.stopping.is_set()
        ]
        if not fills:
            return 1.0  # nothing routable: report saturated
        return float(sum(fills)) / len(fills)

    def inject_worker_crash(
        self, key: Optional[str] = None, exc: Optional[BaseException] = None
    ) -> str:
        """Chaos hook: make one shard's worker raise at its next turn.

        The crash takes the real supervision path — pending futures fail
        fast, the engine is rebuilt, the supervisor restarts the worker
        under backoff — exactly as an organic crash would.  The worker
        raises ``exc``, by default a typed :class:`ServeError`, so the
        futures it fails carry a typed error.  Used by the soak harness
        and resilience tests; returns the targeted key.

        A shard takes at most one pending injected crash: a second call
        that targets it before its worker's next turn changes nothing,
        logs nothing and returns the same key.
        """
        with self._lock:
            if key is None:
                candidates = [
                    s for s in self._shards.values()
                    if s.healthy and not s.stopping.is_set()
                ]
                if not candidates:
                    raise ServeError("no healthy shard to crash")
                shard = max(candidates, key=lambda s: s.load)
            else:
                shard = self._shards.get(key)
                if shard is None:
                    raise ServeError(
                        f"unknown shard key {key!r}; have {list(self._shards)}"
                    )
            if shard.crash_next is not None:
                return shard.key  # one crash, one event
            shard.crash_next = exc or ServeError(
                f"injected worker crash (shard {shard.key!r})"
            )
        emit(self.recorder, self.log, "warning", "pool.inject_crash",
             shard=shard.key)
        return shard.key

    def health(self) -> ServiceHealth:
        """Snapshot of every shard's liveness, load, and crash history."""
        shards = {}
        with self._lock:
            live = list(self._shards.values())
        for shard in live:
            thread = shard.thread
            alive = thread is not None and thread.is_alive()
            shards[shard.key] = ShardHealth(
                key=shard.key,
                alive=alive,
                healthy=shard.healthy and (alive or not self._started),
                queue_depth=len(shard.pending),
                queue_capacity=shard.capacity,
                in_flight=shard.engine.in_flight,
                restarts=shard.restarts,
                strikes=shard.strikes,
                last_error=repr(shard.last_error) if shard.last_error else None,
                group=shard.group,
            )
        slo_report = (
            self.slo.evaluate(self.metrics.registry)
            if self.slo is not None else None
        )
        return ServiceHealth(closed=self.closed, shards=shards, slo=slo_report)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        llrs: np.ndarray,
        code_key: Optional[str] = None,
        timeout: Optional[float] = 0.0,
        deadline_s: Optional[float] = None,
        max_retries: Optional[int] = None,
        iteration_budget: Optional[int] = None,
        trace: "Optional[TraceContext]" = None,
    ) -> "Future[CompletedJob]":
        """Enqueue one frame; returns a future of :class:`CompletedJob`.

        Parameters
        ----------
        llrs:
            Length-n channel LLRs for the target shard's code.
        code_key:
            Group or shard to route to; optional when the service has
            one group or when the LLR length identifies the group
            uniquely.  A group key lands on its least-loaded healthy
            replica.
        timeout:
            Seconds to wait for queue space.  ``0`` rejects immediately
            with :class:`QueueFullError` when the shard queue is full; a
            positive value waits and raises :class:`ServeTimeoutError`
            on expiry; ``None`` blocks until space is available.
        deadline_s:
            Optional per-job deadline, in seconds from now: if the frame
            is still queued when it expires, its future fails with
            :class:`DeadlineExceededError` instead of occupying a slot.
        max_retries:
            Override of the service's ``default_max_retries`` transient
            retry budget for this job.
        iteration_budget:
            Optional caller-imposed iteration cap (e.g. a gateway
            priority class); the effective budget is the tighter of this
            and the load-shedding policy's.
        trace:
            Optional distributed :class:`~repro.obs.trace.TraceContext`
            (trace id + parent span id).  The worker loop records the
            job's queue-wait and decode segments as spans under that
            parent, so a gateway-submitted frame shows up in the same
            Chrome trace as its wire request.
        """
        if self._closing.is_set():
            self.metrics.frames_rejected.inc()
            raise ServiceClosedError("service is closed to new frames")
        llrs = np.asarray(llrs, dtype=np.float64)
        shard = self._route(llrs, code_key)
        self._check_shard_alive(shard)
        fill = len(shard.pending) / shard.capacity
        shed = self.shed_policy.budget(fill, self.max_iterations)
        budget = shed if shed < self.max_iterations else None
        if iteration_budget is not None:
            budget = min(
                self.max_iterations if budget is None else budget,
                int(iteration_budget),
            )
        job = DecodeJob(
            llrs=llrs,
            code_key=shard.key,
            deadline=(
                time.monotonic() + deadline_s if deadline_s is not None else None
            ),
            max_retries=(
                self.default_max_retries if max_retries is None else max_retries
            ),
            iteration_budget=budget,
            trace=trace,
        )
        future: "Future[CompletedJob]" = Future()
        if not self._enqueue(shard, (job, future), timeout):
            self.metrics.frames_rejected.inc()
            if timeout:
                raise ServeTimeoutError(
                    f"shard {shard.key!r}: no queue space within {timeout}s"
                )
            raise QueueFullError(
                f"shard {shard.key!r}: queue full "
                f"({shard.capacity} frames waiting)"
            )
        if self.recorder is not None or self.log is not None:
            emit(self.recorder, self.log, "debug", "pool.enqueue",
                 shard=shard.key, job=job.job_id)
        if not shard.healthy:
            # the shard died between the liveness check and the enqueue;
            # its final drain may have missed this item, so fail it here
            # (first resolution wins — double handling is harmless)
            self._fail_future(
                future, ShardDeadError(f"shard {shard.key!r} is out of service")
            )
            raise ShardDeadError(f"shard {shard.key!r} is out of service")
        # counted once the frame is accepted: a refused frame is
        # rejected, not shed
        if shed < self.max_iterations:
            self.metrics.frames_shed.inc()
            emit(self.recorder, self.log, "warning", "pool.shed",
                 shard=shard.key, budget=shed, fill=round(fill, 3))
        return future

    @staticmethod
    def _enqueue(shard: _Shard, item: _Item, timeout: Optional[float]) -> bool:
        """Queue ``item`` and ring the doorbell under the shard's lock,
        waiting up to ``timeout`` seconds for room (``None``: as long as
        it takes); False when the queue stayed full."""
        pending, capacity = shard.pending, shard.capacity
        with shard.lock:
            if len(pending) >= capacity and (
                timeout == 0 or not shard.space.wait_for(
                    lambda: len(pending) < capacity, timeout)
            ):
                return False
            pending.append(item)
            shard.engine.doorbell[0] = 1   # see the module notes
            shard.ready.notify()
        return True

    def decode(
        self,
        llrs: np.ndarray,
        code_key: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> CompletedJob:
        """Synchronous convenience: submit and wait for the result.

        ``timeout=None`` (the default) means *wait as long as it takes*:
        block for queue space under backpressure, then block until the
        result arrives.  A positive timeout bounds each stage and raises
        :class:`ServeTimeoutError` on expiry.
        """
        future = self.submit(llrs, code_key=code_key, timeout=timeout)
        try:
            return future.result(timeout=timeout)
        except (FutureTimeoutError, TimeoutError):
            future.cancel()
            raise ServeTimeoutError(
                f"decode did not complete within {timeout}s"
            ) from None

    # ------------------------------------------------------------------
    # distributed-trace spans
    # ------------------------------------------------------------------
    def _trace_queue_wait(self, shard: _Shard, job: DecodeJob) -> None:
        """Record the enqueue→dispatch wait as a span under the job's trace."""
        rec = self.recorder
        if rec is None or not rec.enabled or job.trace is None:
            return
        if job.dispatched_at is None:  # pragma: no cover - set by caller
            return
        wait_s = max(0.0, job.dispatched_at - job.enqueued_at)
        rec.complete(
            "pool.queue_wait",
            time.perf_counter() - wait_s,
            parent_id=job.trace.span_id,
            trace=job.trace.trace_id,
            job=job.job_id,
            shard=shard.key,
        )

    def _trace_decode(self, shard: _Shard, done: CompletedJob) -> None:
        """Record the dispatch→retire decode segment under the job's trace."""
        rec = self.recorder
        job = done.job
        if rec is None or not rec.enabled or job.trace is None:
            return
        start = job.dispatched_at
        if start is None:
            start = job.enqueued_at
        decode_s = max(0.0, done.completed_at - start)
        rec.complete(
            "job.decode",
            time.perf_counter() - decode_s,
            parent_id=job.trace.span_id,
            trace=job.trace.trace_id,
            job=job.job_id,
            shard=shard.key,
            converged=done.result.converged,
            iterations=done.result.iterations,
        )

    def _check_shard_alive(self, shard: _Shard) -> None:
        if shard.stopping.is_set():
            raise ShardDeadError(
                f"shard {shard.key!r} is draining for removal"
            )
        if not shard.healthy:
            raise ShardDeadError(
                f"shard {shard.key!r} is out of service after "
                f"{shard.strikes} crashes (last: {shard.last_error!r})"
            )
        if self._started and (
            shard.thread is None or not shard.thread.is_alive()
        ):
            raise ShardDeadError(
                f"shard {shard.key!r}: worker thread is dead; "
                "nothing will ever drain this queue"
            )

    def _route(self, llrs: np.ndarray, code_key: Optional[str]) -> _Shard:
        with self._lock:
            if code_key is not None:
                members = self._groups.get(code_key)
                if members is not None:
                    return self._pick_replica(members, code_key)
                shard = self._shards.get(code_key)
                if shard is None:
                    raise UnknownCodeError(
                        f"unknown code_key {code_key!r}; have {self.shard_keys}"
                    )
                return shard
            if len(self._groups) == 1:
                group = next(iter(self._groups))
                return self._pick_replica(self._groups[group], group)
            keys = self._length_index.get(llrs.shape[0] if llrs.ndim else -1)
            groups = {self._shards[k].group for k in (keys or ())}
            if not groups or len(groups) != 1:
                raise ServeError(
                    f"cannot route frame of length {llrs.shape}: pass code_key "
                    f"(shards: {self.shard_keys})"
                )
            group = groups.pop()
            return self._pick_replica(self._groups[group], group)

    def _pick_replica(self, members: List[str], group: str) -> _Shard:
        """Least-loaded routable replica (caller holds the lock)."""
        if not members:
            # the last (dead) replica was removed by key
            raise ShardDeadError(f"shard group {group!r} has no replicas")
        if len(members) == 1:
            return self._shards[members[0]]
        shards = [self._shards[k] for k in members]
        routable = [
            s for s in shards if s.healthy and not s.stopping.is_set()
        ]
        if not routable:
            # every replica is dead or draining: return one so the
            # caller's liveness check raises the canonical typed error
            return shards[-1]
        return min(routable, key=lambda s: s.load)

    # ------------------------------------------------------------------
    # worker loop + supervision
    # ------------------------------------------------------------------
    def _supervise(self, shard: _Shard) -> None:
        """Run the worker loop, restarting it on crashes with backoff."""
        backoff = self.restart_backoff_s
        while True:
            try:
                self._worker_loop(shard)
                return  # clean exit: service closed and shard drained
            except Exception as exc:  # worker crash
                shard.strikes += 1
                shard.last_error = exc
                self.metrics.worker_crashes.inc()
                emit(self.recorder, self.log, "error", "pool.crash",
                     shard=shard.key, error=repr(exc), strikes=shard.strikes)
                # fail-fast: every pending future resolves *now* with a
                # typed error instead of hanging on a dead worker
                error = exc
                if not isinstance(exc, ServeError):
                    error = ServeError(
                        f"shard {shard.key!r} worker crashed: {exc!r}"
                    )
                    error.__cause__ = exc
                self._fail_in_flight(shard, error)
                self._fail_queue(shard, error)
                shard.engine = shard.make_engine()
                if shard.stopping.is_set():
                    # crashed while draining for removal: don't restart,
                    # just make sure nothing is left hanging
                    self._fail_queue(
                        shard,
                        ShardDeadError(
                            f"shard {shard.key!r} crashed while draining"
                        ),
                    )
                    return
                if shard.strikes >= self.max_strikes:
                    shard.healthy = False
                    emit(self.recorder, self.log, "error", "pool.shard_dead",
                         shard=shard.key, strikes=shard.strikes)
                    # final drain: catch items that raced the flag flip
                    self._fail_queue(
                        shard,
                        ShardDeadError(
                            f"shard {shard.key!r} disabled after "
                            f"{shard.strikes} consecutive crashes"
                        ),
                    )
                    return
                if self._closing.wait(backoff):
                    # closing: skip the rest of the backoff and make one
                    # final drain pass so close(wait=True) never hangs
                    pass
                backoff = min(backoff * 2.0, self.restart_backoff_cap_s)
                shard.restarts += 1
                self.metrics.worker_restarts.inc()
                emit(self.recorder, self.log, "warning", "pool.restart",
                     shard=shard.key, restarts=shard.restarts)

    def _worker_loop(self, shard: _Shard) -> None:
        while True:
            if shard.crash_next is not None:
                exc, shard.crash_next = shard.crash_next, None
                raise exc
            engine = shard.engine
            # the queue is read when the doorbell rang or the engine is
            # empty, and then as far as the free slots go
            if engine.in_flight == 0 or (engine.free_slots
                                         and engine.doorbell[0]):
                self._admit_queued(shard, engine)
            if engine.in_flight == 0:
                if (
                    (self._closing.is_set() or shard.stopping.is_set())
                    and not shard.pending
                ):
                    return
                continue
            try:
                completed = engine.step()
                for done in completed:
                    item = shard.futures.pop(done.job_id, None)
                    if item is not None:
                        self._trace_decode(shard, done)
                        item[1].set_result(done)
                if completed:
                    # forward progress (frames actually retired): clear
                    # the consecutive-crash counter.  Steps that retire
                    # nothing don't count, so a worker that keeps
                    # crashing before any frame finishes strikes out.
                    shard.strikes = 0
            except TransientDecodeError as exc:
                # recoverable corruption: rebuild the engine and retry
                # in-flight frames within their budget
                self._recover_transient(shard, exc)

    def _admit_queued(self, shard: _Shard,
                      engine: ContinuousBatchingEngine) -> None:
        """Admit the queued frames that fit the engine's free slots.

        They are taken in one acquisition of the shard's lock, which
        also clears the doorbell (and rings it again if frames are
        left): a frame queued after the take rings it anew, so the step
        that follows returns for it.  An empty engine waits up to
        ``_POLL_S`` for a frame first."""
        pending = shard.pending
        with shard.lock:
            if not pending and engine.in_flight == 0:
                shard.ready.wait(_POLL_S)
            engine.doorbell[0] = 0
            take = min(len(pending), engine.free_slots)
            if not take:
                return
            items = [pending.popleft() for _ in range(take)]
            if pending:
                engine.doorbell[0] = 1   # the slots ran out first
            shard.space.notify(take)
        observed = self.recorder is not None or self.log is not None
        now = time.monotonic()
        for job, future in items:
            if not future.set_running_or_notify_cancel():
                continue  # caller cancelled while queued
            if job.expired:
                self.metrics.frames_expired.inc()
                self.metrics.frames_errored.inc()
                emit(self.recorder, self.log, "warning", "pool.expire",
                     shard=shard.key, job=job.job_id)
                future.set_exception(
                    DeadlineExceededError(
                        f"job {job.job_id}: deadline passed after "
                        f"{now - job.enqueued_at:.3f}s in queue"
                    )
                )
                continue
            try:
                engine.admit(job)
            except Exception as exc:  # bad frame: fail just this job
                self.metrics.frames_errored.inc()
                future.set_exception(exc)
                continue
            job.dispatched_at = now
            shard.futures[job.job_id] = (job, future)
            if observed:
                emit(self.recorder, self.log, "debug", "pool.dispatch",
                     shard=shard.key, job=job.job_id)
                self._trace_queue_wait(shard, job)

    def _recover_transient(self, shard: _Shard, exc: Exception) -> None:
        shard.last_error = exc
        emit(self.recorder, self.log, "warning", "pool.transient",
             shard=shard.key, error=repr(exc))
        shard.engine = shard.make_engine()
        survivors: Dict[int, _Item] = {}
        for job_id, (job, future) in shard.futures.items():
            if job.attempts < job.max_retries and not job.expired:
                job.attempts += 1
                self.metrics.frames_retried.inc()
                try:
                    shard.engine.admit(job)
                except Exception as admit_exc:
                    self.metrics.frames_errored.inc()
                    future.set_exception(admit_exc)
                else:
                    survivors[job_id] = (job, future)
            else:
                self.metrics.frames_errored.inc()
                future.set_exception(exc)
        shard.futures = survivors

    def _fail_in_flight(self, shard: _Shard, exc: Exception) -> None:
        for _job, future in shard.futures.values():
            try:
                future.set_exception(exc)
                self.metrics.frames_errored.inc()
            except InvalidStateError:
                pass  # already resolved
        shard.futures.clear()

    def _fail_queue(self, shard: _Shard, exc: Exception) -> None:
        with shard.lock:
            items = list(shard.pending)
            shard.pending.clear()
            shard.space.notify_all()
        for _job, future in items:
            self._fail_future(future, exc)

    def _fail_future(self, future: "Future", exc: Exception) -> None:
        try:
            if future.set_running_or_notify_cancel():
                future.set_exception(exc)
                self.metrics.frames_errored.inc()
        except InvalidStateError:
            pass  # resolved elsewhere; first resolution wins
