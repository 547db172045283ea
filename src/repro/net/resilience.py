"""Client-side resilience: retry, hedging, circuit breaking, liveness.

:class:`ResilientDecodeClient` wraps one or more gateway endpoints and
turns the raw per-connection :class:`~repro.net.client.AsyncDecodeClient`
into something that survives a hostile wire:

* **Reconnect** — a dead connection is replaced lazily on the next
  request; every reconnect backs off exponentially (capped, jittered)
  so a flapping gateway is not hammered.
* **Bounded retries with idempotency** — each logical job gets one
  client-generated idempotency key, reused verbatim across retries and
  hedges, so the gateway's dedup window guarantees the job never
  decodes twice however many times its frames cross the wire.  Retries
  are bounded by :class:`RetryPolicy` and only typed-retryable failures
  (connection loss, timeouts, backpressure, frame corruption) are
  retried — quota exhaustion is the caller's problem.
* **Circuit breaking** — each endpoint has a :class:`CircuitBreaker`;
  consecutive failures open it, opening redirects traffic to the other
  endpoints, and a half-open probe closes it once the endpoint heals.
  When *every* endpoint is open the client fails fast with
  :class:`~repro.errors.CircuitOpenError` instead of queueing doomed
  work.
* **Hedging** — when more than one endpoint exists and the primary
  attempt has not answered within ``hedge_delay_s``, the same job
  (same idempotency key) is raced on another endpoint; first answer
  wins, the loser is cancelled.
* **Dead-peer detection** — an optional heartbeat task PINGs every
  connected endpoint on a cadence; ``heartbeat_misses`` consecutive
  unanswered pings tear the connection down so the next request
  reconnects instead of waiting on a half-open TCP session.

The client is asyncio-native and deterministic under test: backoff
jitter comes from a seeded generator and idempotency keys from a
counter under a caller-chosen tag.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import uuid
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import (
    CircuitOpenError,
    GatewayClosedError,
    NetProtocolError,
    QueueFullError,
    QuotaExceededError,
    ServeError,
    ServeTimeoutError,
    ShardDeadError,
)
from repro.net.admission import GOLD
from repro.net.client import AsyncDecodeClient, RemoteResult
from repro.obs.trace import TraceContext, new_trace_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder

__all__ = [
    "CircuitBreaker",
    "ResilientDecodeClient",
    "RetryPolicy",
    "RETRYABLE_ERRORS",
]

#: Failures worth retrying elsewhere/later.  Everything transport- or
#: capacity-shaped retries; semantic refusals (quota) do not.
RETRYABLE_ERRORS = (
    GatewayClosedError,
    ServeTimeoutError,
    QueueFullError,
    NetProtocolError,  # includes FrameCorruptionError
    ShardDeadError,
    ConnectionError,
    OSError,
)


@dataclass(frozen=True)
class RetryPolicy(object):
    """Capped exponential backoff with jitter.

    Attempt ``k`` (1-based) sleeps ``base_delay_s * 2**(k-1)`` capped at
    ``max_delay_s``, then shrunk by up to ``jitter`` (fraction) so a
    fleet of clients does not reconnect in lockstep.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def delay_s(self, attempt: int, rng: "np.random.Generator") -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = min(self.max_delay_s, self.base_delay_s * (2.0 ** (attempt - 1)))
        return raw * (1.0 - self.jitter * float(rng.random()))


class CircuitBreaker(object):
    """Per-endpoint closed / open / half-open breaker.

    ``failure_threshold`` *consecutive* failures open the circuit;
    while open, :meth:`allow` refuses instantly.  After
    ``reset_timeout_s`` one probe request is let through (half-open):
    success closes the circuit, failure re-opens it for another full
    timeout, and a probe abandoned without a verdict (:meth:`release`)
    re-opens it too, so the endpoint is probed again after another
    timeout.  The clock is injectable so tests need no real sleeping.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"`` (time-aware)."""
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            return "half_open"
        return self._state

    def allow(self) -> bool:
        """May a request be sent to this endpoint right now?"""
        state = self.state
        if state == "closed":
            return True
        if state == "half_open":
            if self._probing:
                return False  # one probe at a time
            self._state = "half_open"
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        """The endpoint answered: close the circuit."""
        self._state = "closed"
        self._failures = 0
        self._probing = False

    def record_failure(self) -> None:
        """The endpoint failed: count toward (re)opening."""
        self._probing = False
        if self._state == "half_open":
            self._state = "open"
            self._opened_at = self._clock()
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._state = "open"
            self._opened_at = self._clock()

    def release(self) -> None:
        """An attempt ended with no verdict on the endpoint (cancelled,
        say, because a hedge won): give back the half-open probe."""
        if self._probing:
            self._probing = False
            self._state = "open"
            self._opened_at = self._clock()

    def to_dict(self) -> dict:
        return {"state": self.state, "failures": self._failures}


class _Endpoint(object):
    """One gateway address with its connection + breaker."""

    __slots__ = ("host", "port", "breaker", "client", "lock", "missed")

    def __init__(self, host: str, port: int,
                 breaker: CircuitBreaker) -> None:
        self.host = host
        self.port = port
        self.breaker = breaker
        self.client: Optional[AsyncDecodeClient] = None
        self.lock = asyncio.Lock()
        self.missed = 0

    @property
    def name(self) -> str:
        return f"{self.host}:{self.port}"


class ResilientDecodeClient(object):
    """Retrying, hedging, breaker-guarded client over N gateways.

    Parameters
    ----------
    endpoints:
        ``(host, port)`` pairs of (replica) gateways; one is fine.
    retry:
        The :class:`RetryPolicy`; ``max_attempts`` bounds wire attempts
        per logical job (hedges count as attempts).
    hedge_delay_s:
        When set and 2+ endpoints exist, an attempt that has not
        answered within this many seconds is raced on another endpoint
        with the same idempotency key.
    request_timeout_s:
        Per-attempt decode timeout (feeds the retry loop, not the
        caller's overall deadline).
    heartbeat_s / heartbeat_misses:
        When set, a background task PINGs each live connection every
        ``heartbeat_s``; ``heartbeat_misses`` consecutive failures tear
        the connection down (next request reconnects).
    breaker_failures / breaker_reset_s:
        Circuit-breaker tuning, per endpoint.
    seed / tag:
        Determinism knobs: backoff jitter RNG seed and the idempotency
        key prefix (keys are ``"{tag}-{n}"``).  The default tag is a
        fresh random token per client instance — two clients of the
        same tenant must never share a key space, or one would replay
        the other's cached results from the gateway's dedup window.
    recorder:
        Optional :class:`~repro.obs.trace.TraceRecorder`.  When set,
        every logical job opens a ``client.job`` span under a fresh
        distributed trace id and each wire attempt (retries and hedges
        alike) becomes a sibling ``client.attempt`` span labelled with
        the shared idempotency key — so one Chrome trace shows the
        whole race, not just the winning attempt.  The recorder is
        also handed to every underlying connection, whose
        ``client.request`` spans parent under the attempt spans.
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        tenant: str = "default",
        code_id: str = "",
        priority: int = GOLD,
        retry: Optional[RetryPolicy] = None,
        hedge_delay_s: Optional[float] = None,
        request_timeout_s: float = 30.0,
        heartbeat_s: Optional[float] = None,
        heartbeat_misses: int = 3,
        breaker_failures: int = 5,
        breaker_reset_s: float = 2.0,
        seed: int = 0,
        tag: Optional[str] = None,
        recorder: "Optional[TraceRecorder]" = None,
    ) -> None:
        if not endpoints:
            raise ValueError("ResilientDecodeClient needs >= 1 endpoint")
        self.tenant = tenant
        self.code_id = code_id
        self.priority = priority
        self.retry = retry if retry is not None else RetryPolicy()
        self.hedge_delay_s = hedge_delay_s
        self.request_timeout_s = request_timeout_s
        self.heartbeat_s = heartbeat_s
        self.heartbeat_misses = heartbeat_misses
        self._rng = np.random.default_rng(seed)
        self.recorder = recorder
        self._tag = tag if tag is not None else uuid.uuid4().hex[:12]
        self._key_seq = itertools.count(1)
        self._endpoints: List[_Endpoint] = [
            _Endpoint(h, p, CircuitBreaker(breaker_failures,
                                           breaker_reset_s))
            for h, p in endpoints
        ]
        self._rr = itertools.count()
        self._closed = False
        self.stats: Dict[str, int] = {
            "jobs": 0,
            "requests_sent": 0,
            "retries": 0,
            "hedges": 0,
            "reconnects": 0,
            "breaker_refusals": 0,
            "dead_peers": 0,
        }
        self._heartbeat_task: Optional["asyncio.Task"] = None
        if heartbeat_s is not None:
            self._heartbeat_task = asyncio.ensure_future(
                self._heartbeat_loop()
            )

    async def __aenter__(self) -> "ResilientDecodeClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # endpoint management
    # ------------------------------------------------------------------
    async def _client_for(self, ep: _Endpoint) -> AsyncDecodeClient:
        """The live connection for ``ep``, (re)connecting if needed."""
        async with ep.lock:
            if ep.client is None or ep.client.closed:
                if ep.client is not None:
                    await ep.client.close()
                    self.stats["reconnects"] += 1
                # a failed HELLO raises a retryable typed error
                ep.client = await AsyncDecodeClient.connect(
                    ep.host, ep.port,
                    tenant=self.tenant, code_id=self.code_id,
                    priority=self.priority, recorder=self.recorder,
                )
                ep.missed = 0
            return ep.client

    def _pick(self, exclude: Optional[_Endpoint] = None) -> Optional[_Endpoint]:
        """Next breaker-approved endpoint (round robin), else None."""
        n = len(self._endpoints)
        start = next(self._rr)
        for i in range(n):
            ep = self._endpoints[(start + i) % n]
            if ep is exclude and n > 1:
                continue
            if ep.breaker.allow():
                return ep
        return None

    async def _drop(self, ep: _Endpoint) -> None:
        """Tear down ``ep``'s connection (next request reconnects)."""
        async with ep.lock:
            client, ep.client = ep.client, None
            ep.missed = 0
        if client is not None:
            await client.close()

    # ------------------------------------------------------------------
    # the decode path
    # ------------------------------------------------------------------
    async def _attempt(
        self,
        ep: _Endpoint,
        llrs: np.ndarray,
        key: str,
        code_id: Optional[str],
        priority: Optional[int],
        trace: Optional[TraceContext] = None,
        attempt: int = 1,
        hedge: bool = False,
    ) -> RemoteResult:
        """One wire attempt on one endpoint; updates its breaker.

        An exit that says nothing about the endpoint (cancellation, an
        error outside the retryable and quota families) records no
        verdict but releases a half-open probe, so the endpoint is not
        shut out for good.

        With a trace context, the attempt is its own ``client.attempt``
        span (a sibling of any hedge racing it, all sharing the
        idempotency ``key`` label) and the wire hop parents under it.
        """
        rec = self.recorder
        tracing = (
            rec is not None and rec.enabled
            and trace is not None and bool(trace.trace_id)
        )
        span_id = rec.allocate_span_id() if tracing else 0
        wire_trace = (
            TraceContext(trace.trace_id, span_id) if tracing else None
        )
        t0 = time.perf_counter()

        def span(ok: bool, **extra: object) -> None:
            if tracing:
                rec.complete(
                    "client.attempt", t0,
                    span_id=span_id, parent_id=trace.span_id,
                    trace=trace.trace_id, key=key, attempt=attempt,
                    endpoint=ep.name, hedge=hedge, ok=ok, **extra
                )

        try:
            client = await self._client_for(ep)
            self.stats["requests_sent"] += 1
            result = await client.decode(
                llrs, code_id=code_id, priority=priority,
                timeout=self.request_timeout_s, idempotency_key=key,
                trace=wire_trace,
            )
        except asyncio.CancelledError:
            span(False, error="cancelled")
            ep.breaker.release()
            raise
        except RETRYABLE_ERRORS as exc:
            span(False, error=type(exc).__name__)
            ep.breaker.record_failure()
            if isinstance(exc, (GatewayClosedError, ConnectionError,
                                OSError, NetProtocolError)):
                await self._drop(ep)
            raise
        except QuotaExceededError as exc:
            # a healthy endpoint refusing on quota is not a failure
            span(False, error=type(exc).__name__)
            ep.breaker.record_success()
            raise
        except Exception:
            ep.breaker.release()
            raise
        span(True)
        ep.breaker.record_success()
        return result

    async def decode(
        self,
        llrs: np.ndarray,
        code_id: Optional[str] = None,
        priority: Optional[int] = None,
        idempotency_key: Optional[str] = None,
    ) -> RemoteResult:
        """Decode one frame with retries/hedging across the endpoints.

        Raises :class:`~repro.errors.CircuitOpenError` when every
        endpoint's breaker refuses, :class:`~repro.errors.ServeError`
        (the last typed failure) when the retry budget runs out, and
        terminal errors (quota) immediately.
        """
        if self._closed:
            raise GatewayClosedError("resilient client is closed")
        self.stats["jobs"] += 1
        key = idempotency_key or f"{self._tag}-{next(self._key_seq)}"
        llrs = np.asarray(llrs, dtype=np.float64)
        rec = self.recorder
        recording = rec is not None and rec.enabled
        trace: Optional[TraceContext] = None
        job_span = 0
        if recording:
            job_span = rec.allocate_span_id()
            trace = TraceContext(new_trace_id(), job_span)
        t0 = time.perf_counter()

        def job_done(ok: bool, attempts: int, **extra: object) -> None:
            if recording:
                rec.complete(
                    "client.job", t0,
                    span_id=job_span, parent_id=None,
                    trace=trace.trace_id, key=key,
                    tenant=self.tenant, attempts=attempts, ok=ok,
                    **extra
                )

        last_exc: Optional[Exception] = None
        attempt = 0
        while attempt < self.retry.max_attempts:
            attempt += 1
            ep = self._pick()
            if ep is None:
                self.stats["breaker_refusals"] += 1
                job_done(False, attempt - 1, error="CircuitOpenError")
                raise CircuitOpenError(
                    "all gateway endpoints have open circuit breakers"
                )
            if attempt > 1:
                self.stats["retries"] += 1
            try:
                result = await self._attempt_hedged(
                    ep, llrs, key, code_id, priority,
                    trace=trace, attempt=attempt,
                )
            except asyncio.CancelledError:
                job_done(False, attempt, error="cancelled")
                raise
            except QuotaExceededError as exc:
                job_done(False, attempt, error=type(exc).__name__)
                raise
            except RETRYABLE_ERRORS as exc:
                last_exc = exc
                if attempt < self.retry.max_attempts:
                    await asyncio.sleep(
                        self.retry.delay_s(attempt, self._rng)
                    )
            else:
                job_done(True, attempt)
                return result
        job_done(False, attempt,
                 error=type(last_exc).__name__ if last_exc else "unknown")
        if isinstance(last_exc, ServeError):
            raise last_exc
        raise GatewayClosedError(
            f"decode failed after {self.retry.max_attempts} attempts: "
            f"{last_exc}"
        )

    async def _attempt_hedged(
        self,
        ep: _Endpoint,
        llrs: np.ndarray,
        key: str,
        code_id: Optional[str],
        priority: Optional[int],
        trace: Optional[TraceContext] = None,
        attempt: int = 1,
    ) -> RemoteResult:
        """Primary attempt on ``ep``; hedge elsewhere if it dawdles."""
        primary = asyncio.ensure_future(
            self._attempt(ep, llrs, key, code_id, priority,
                          trace=trace, attempt=attempt)
        )
        if self.hedge_delay_s is None or len(self._endpoints) < 2:
            return await primary
        try:
            done, _pending = await asyncio.wait(
                {primary}, timeout=self.hedge_delay_s
            )
        except asyncio.CancelledError:
            # asyncio.wait leaves its tasks running when it is cancelled
            primary.cancel()
            raise
        if done:
            return primary.result()  # raises the attempt's error, if any
        other = self._pick(exclude=ep)
        if other is None:
            return await primary
        self.stats["hedges"] += 1
        hedge = asyncio.ensure_future(
            self._attempt(other, llrs, key, code_id, priority,
                          trace=trace, attempt=attempt, hedge=True)
        )
        racers = {primary, hedge}
        result: Optional[RemoteResult] = None
        last_exc: Optional[BaseException] = None
        try:
            while racers and result is None:
                done, racers = await asyncio.wait(
                    racers, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    exc = task.exception()
                    if exc is None:
                        result = task.result()
                    else:
                        last_exc = exc
        finally:
            for task in racers:
                task.cancel()
            if racers:
                await asyncio.gather(*racers, return_exceptions=True)
        if result is not None:
            return result
        assert last_exc is not None
        raise last_exc

    async def ping(self, timeout: float = 5.0) -> Dict[str, float]:
        """PING every reachable endpoint; returns ``{name: rtt_s}``."""
        out: Dict[str, float] = {}
        for ep in self._endpoints:
            try:
                client = await self._client_for(ep)
                out[ep.name] = await client.ping(timeout)
            except Exception:
                continue
        return out

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        interval = float(self.heartbeat_s or 0.0)
        try:
            while not self._closed:
                await asyncio.sleep(interval)
                for ep in self._endpoints:
                    client = ep.client
                    if client is None or client.closed:
                        continue
                    try:
                        await client.ping(timeout=interval)
                        ep.missed = 0
                    except asyncio.CancelledError:
                        raise
                    except Exception:
                        ep.missed += 1
                        if ep.missed >= self.heartbeat_misses:
                            self.stats["dead_peers"] += 1
                            ep.breaker.record_failure()
                            await self._drop(ep)
        except asyncio.CancelledError:
            raise

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Close every connection and stop the heartbeat. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except (asyncio.CancelledError, Exception):
                pass
        for ep in self._endpoints:
            if ep.client is not None:
                await ep.client.close()
                ep.client = None

    def to_dict(self) -> dict:
        """Stats + per-endpoint breaker states (for soak reports)."""
        amplification = (
            self.stats["requests_sent"] / self.stats["jobs"]
            if self.stats["jobs"] else 0.0
        )
        return {
            "stats": dict(self.stats),
            "amplification": amplification,
            "endpoints": {
                ep.name: ep.breaker.to_dict() for ep in self._endpoints
            },
        }
