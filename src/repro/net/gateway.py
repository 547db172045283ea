"""Asyncio TCP gateway bridging framed clients onto a decode service.

:class:`DecodeGateway` is the network front door of the serving stack —
the router layer of Condo & Masera's NoC-based decoder recast in
asyncio: many concurrent connections multiplex decode requests onto the
heterogeneous shard pool of a
:class:`~repro.serve.pool.DecodeService`.

Per connection, frames are read off the stream and each REQUEST becomes
an independent task, so results *stream back in completion order*, not
request order (the job id in every frame is the correlation key).  The
bridge from asyncio to the thread-world service is
``asyncio.wrap_future`` over the ``concurrent.futures.Future`` that
``DecodeService.submit`` returns — the event loop never blocks on a
decode.

Admission runs before submission: the
:class:`~repro.net.admission.AdmissionController` meters the tenant's
token bucket and converts its priority class into an iteration budget
(fed to ``submit(iteration_budget=...)``), so quota exhaustion and
degradation both happen at the door.  Every failure — protocol, quota,
backpressure, shard death — is one typed ``ServeError`` member, shipped
as an ERROR frame and re-raised as the same type client-side.

Wire-level resilience (one wire format; a client's HELLO is answered
only at :data:`~repro.net.protocol.VERSION`, and a frame of any other
version is a connection-scoped error):

* **Frame integrity** — every frame carries a CRC-32 trailer; a corrupt
  frame raises :class:`~repro.errors.FrameCorruptionError`, is counted
  (``net_crc_corrupt_total``), answered with a connection-scoped ERROR,
  and the connection is closed so both sides resync from a clean slate.
* **Idempotent retries** — a REQUEST may carry a client-generated
  idempotency key; the gateway's :class:`~repro.net.dedup.DedupWindow`
  replays finished results and *joins* in-flight decodes, so a retried
  or hedged job never decodes twice within the TTL window.
* **Dead-peer detection** — when ``heartbeat_interval_s`` is set, an
  idle connection is PINGed on that cadence (every client answers);
  ``heartbeat_misses`` unanswered pings close it
  (``net_dead_peer_total``), so half-open TCP sessions cannot pin
  gateway state forever.

Graceful drain: :meth:`close` stops the listener, lets in-flight
requests finish streaming their results (bounded by
``drain_timeout_s``), refuses new requests with
:class:`~repro.errors.GatewayClosedError`, then closes connections.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, Optional, Set, Tuple

from repro.errors import (
    FrameCorruptionError,
    GatewayClosedError,
    NetProtocolError,
    QueueFullError,
    QuotaExceededError,
    ServeError,
    ServiceClosedError,
)
from repro.net.admission import AdmissionController
from repro.net.dedup import DedupWindow
from repro.net.metrics import NetMetrics
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    VERSION,
    Hello,
    Ping,
    Pong,
    Request,
    TraceContext,
    decode_frame,
    encode_error,
    encode_hello,
    encode_ping,
    encode_pong,
    encode_result,
    read_raw,
)
from repro.obs.log import EventLog, emit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder
    from repro.serve.pool import DecodeService

__all__ = ["DecodeGateway"]

#: Rejection reasons, keyed by the typed error that caused them.
_REJECT_REASONS = {
    QuotaExceededError: "quota",
    QueueFullError: "backpressure",
    GatewayClosedError: "drain",
    ServiceClosedError: "drain",
}


class _ConnState(object):
    """Per-connection liveness state."""

    __slots__ = ("writer", "lock", "peer",
                 "last_rx", "missed_pings", "ping_seq", "closed")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.peer = str(writer.get_extra_info("peername"))
        self.last_rx = time.monotonic()
        self.missed_pings = 0
        self.ping_seq = 0
        self.closed = False

    def saw_frame(self) -> None:
        self.last_rx = time.monotonic()
        self.missed_pings = 0


class DecodeGateway(object):
    """Framed TCP server in front of a :class:`DecodeService`.

    Parameters
    ----------
    service:
        The (already running) decode service to bridge onto.  The
        gateway never owns it — lifecycle stays with the caller so one
        service can sit behind several listeners.
    admission:
        The tenant quota/priority gate consulted per request.
    host / port:
        Listen address; port 0 (default) lets the OS pick — read the
        bound address back from :attr:`address` after :meth:`start`.
    log / recorder:
        Optional structured :class:`~repro.obs.log.EventLog` and
        :class:`~repro.obs.trace.TraceRecorder` for lifecycle events.
    max_frame_bytes:
        Upper bound on accepted frame size (protocol abuse guard).
    drain_timeout_s:
        How long :meth:`close` waits for in-flight requests to finish
        before force-closing connections.
    dedup:
        Optional :class:`DedupWindow` for idempotency keys; pass one
        shared instance to several replica gateways so hedged requests
        dedup across all of them.  A private window with the default
        TTL is created when None.
    heartbeat_interval_s:
        PING cadence for idle connections; None (default) disables
        gateway-side pings.
    heartbeat_misses:
        Unanswered pings after which a peer is declared dead.
    """

    def __init__(
        self,
        service: "DecodeService",
        admission: AdmissionController,
        host: str = "127.0.0.1",
        port: int = 0,
        log: "Optional[EventLog]" = None,
        recorder: "Optional[TraceRecorder]" = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        drain_timeout_s: float = 10.0,
        dedup: Optional[DedupWindow] = None,
        heartbeat_interval_s: Optional[float] = None,
        heartbeat_misses: int = 3,
    ) -> None:
        self.service = service
        self.admission = admission
        self.host = host
        self.port = port
        #: ``net_*`` instruments in the service's registry.
        self.metrics = NetMetrics(service.metrics.registry)
        self.log = log
        self.recorder = recorder
        self.max_frame_bytes = max_frame_bytes
        self.drain_timeout_s = drain_timeout_s
        self.dedup = dedup if dedup is not None else DedupWindow()
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_misses = heartbeat_misses
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._closed = False
        self._writers: Set[asyncio.StreamWriter] = set()
        self._inflight: Set["asyncio.Task"] = set()
        self._conn_tasks: Set["asyncio.Task"] = set()
        self._heartbeats: Set["asyncio.Task"] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        if self._server is not None:
            return self.address
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        emit(self.recorder, self.log, "info", "net.listen", host=self.host,
             port=self.port)
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (final once :meth:`start` returned)."""
        return self.host, self.port

    @property
    def draining(self) -> bool:
        """True once :meth:`close` has begun refusing new requests."""
        return self._draining

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has completed."""
        return self._closed

    async def close(self, drain: bool = True) -> None:
        """Stop the listener and shut connections down.

        With ``drain=True`` (default) in-flight requests finish and
        stream their results first (bounded by ``drain_timeout_s``);
        with ``drain=False`` they are cancelled and their clients see
        the connection drop.  Idempotent.
        """
        if self._closed:
            return
        self._draining = True
        emit(self.recorder, self.log, "info", "net.drain",
             inflight=len(self._inflight), drain=drain)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._heartbeats):
            task.cancel()
        if drain:
            if self._inflight:
                await asyncio.wait(
                    list(self._inflight), timeout=self.drain_timeout_s
                )
        else:
            for task in list(self._inflight):
                task.cancel()
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(
                list(self._conn_tasks), timeout=self.drain_timeout_s
            )
        self._closed = True
        emit(self.recorder, self.log, "info", "net.closed")

    async def __aenter__(self) -> "DecodeGateway":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close(drain=True)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        self.metrics.connections.inc()
        self.metrics.connections_total.inc()
        conn = _ConnState(writer)
        emit(self.recorder, self.log, "debug", "net.conn_open", peer=conn.peer)
        conn_tasks: Set["asyncio.Task"] = set()
        heartbeat_task: Optional["asyncio.Task"] = None
        if self.heartbeat_interval_s:
            heartbeat_task = asyncio.ensure_future(self._heartbeat(conn))
            self._heartbeats.add(heartbeat_task)
            heartbeat_task.add_done_callback(self._heartbeats.discard)
        try:
            while True:
                try:
                    payload = await read_raw(reader, self.max_frame_bytes)
                except NetProtocolError as exc:
                    await self._conn_fatal(conn, exc)
                    break
                if payload is None:
                    break  # client closed cleanly
                self.metrics.bytes_in.inc(len(payload) + 4)
                try:
                    frame = decode_frame(payload)
                except NetProtocolError as exc:
                    await self._conn_fatal(conn, exc)
                    break
                conn.saw_frame()
                if isinstance(frame, Hello):
                    # decode_frame already checked the version
                    self.metrics.hello.inc(version=str(VERSION))
                    emit(self.recorder, self.log, "debug", "net.hello",
                         peer=conn.peer, version=VERSION)
                    await self._send_quiet(conn, encode_hello(frame.job_id))
                    continue
                if isinstance(frame, Ping):
                    await self._send_quiet(conn, encode_pong(frame.job_id))
                    continue
                if isinstance(frame, Pong):
                    continue  # liveness bookkeeping happened in saw_frame
                if not isinstance(frame, Request):
                    exc = NetProtocolError(
                        f"clients may not send {type(frame).__name__} frames"
                    )
                    emit(self.recorder, self.log, "warning",
                         "net.protocol_error", peer=conn.peer, error=str(exc))
                    await self._send_quiet(
                        conn, encode_error(frame.job_id, exc)
                    )
                    break
                req_task = asyncio.ensure_future(
                    self._serve_request(frame, conn)
                )
                conn_tasks.add(req_task)
                self._inflight.add(req_task)
                req_task.add_done_callback(conn_tasks.discard)
                req_task.add_done_callback(self._inflight.discard)
        finally:
            conn.closed = True
            if heartbeat_task is not None:
                heartbeat_task.cancel()
                self._heartbeats.discard(heartbeat_task)
            if conn_tasks:
                # let this connection's tail of results flush before the
                # socket goes away (drain-on-close already bounded these)
                await asyncio.gather(*conn_tasks, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
            self.metrics.connections.dec()
            emit(self.recorder, self.log, "debug", "net.conn_close",
                 peer=conn.peer)
            if task is not None:
                self._conn_tasks.discard(task)

    async def _heartbeat(self, conn: _ConnState) -> None:
        """PING an idle peer on a cadence; close it after missed pongs."""
        interval = float(self.heartbeat_interval_s or 0.0)
        try:
            while not conn.closed:
                await asyncio.sleep(interval)
                if conn.closed:
                    return
                if time.monotonic() - conn.last_rx <= interval:
                    continue  # traffic is liveness; no ping needed
                if conn.missed_pings >= self.heartbeat_misses:
                    self.metrics.dead_peers.inc()
                    emit(self.recorder, self.log, "warning", "net.dead_peer",
                         peer=conn.peer, missed=conn.missed_pings)
                    conn.writer.close()
                    return
                conn.missed_pings += 1
                conn.ping_seq += 1
                await self._send_quiet(conn, encode_ping(conn.ping_seq))
        except asyncio.CancelledError:
            raise

    async def _conn_fatal(
        self, conn: _ConnState, exc: NetProtocolError
    ) -> None:
        """Report a connection-scoped protocol failure (ERROR, job 0)."""
        if isinstance(exc, FrameCorruptionError):
            self.metrics.crc_corrupt.inc()
            emit(self.recorder, self.log, "warning", "net.crc_corrupt",
                 peer=conn.peer, error=str(exc))
        else:
            emit(self.recorder, self.log, "warning", "net.protocol_error",
                 peer=conn.peer, error=str(exc))
        await self._send_quiet(conn, encode_error(0, exc))

    async def _serve_request(self, req: Request, conn: _ConnState) -> None:
        """Admit, submit, await, and stream back one request.

        When the request carries a trace context (a tracing client),
        the gateway *adopts* it:
        one ``gateway.request`` span parented under the client's wire
        span, with ``gateway.dedup`` / ``gateway.queue_probe`` /
        ``gateway.admission`` / ``gateway.submit`` / ``gateway.respond``
        children, the waterfall split recorded as span attributes, and
        the same context threaded into ``DecodeService.submit`` so the
        pool's queue-wait/decode spans join the tree.  Spans use
        explicit parent ids rather than the thread-local stack because
        every request interleaves on one event-loop thread.
        """
        t0 = time.monotonic()
        t0_pc = time.perf_counter()
        tenant = req.tenant or "anonymous"
        code_key = req.code_id or None
        code_label = req.code_id or "default"
        rec = self.recorder
        req_trace_id = req.trace.trace_id if req.trace is not None else 0
        tracing = rec is not None and rec.enabled and bool(req_trace_id)
        serve_span = rec.allocate_span_id() if tracing else 0
        remote_parent = req.trace.span_id if tracing else 0
        # echo the trace id (plus our span) so the client can join the
        # reply to its own tree even without a shared recorder
        reply_trace = (
            TraceContext(req_trace_id, serve_span) if req_trace_id else None
        )

        def child(name: str, start_pc: float, **labels: object) -> None:
            if tracing:
                rec.complete(
                    name, start_pc, parent_id=serve_span,
                    trace=req_trace_id, **labels
                )

        def finish(outcome: str, **extra: object) -> None:
            if tracing:
                rec.complete(
                    "gateway.request", t0_pc, span_id=serve_span,
                    parent_id=remote_parent or None, trace=req_trace_id,
                    tenant=tenant, code_id=code_label, job=req.job_id,
                    outcome=outcome, **extra
                )

        metrics = self.metrics
        metrics.requests.inc(tenant=tenant)
        emit(self.recorder, self.log, "debug", "net.request", tenant=tenant,
             job=req.job_id, priority=req.priority)
        dedup_key = None
        owner: "Optional[asyncio.Future]" = None
        if req.idempotency_key:
            dedup_key = (tenant, req.idempotency_key)
            t_dedup = time.perf_counter()
            entry = self.dedup.lookup(dedup_key)
            if entry is not None:
                outcome = (
                    "joined" if isinstance(entry, asyncio.Future) else "cached"
                )
                value = await self.dedup.resolve(entry)
                if value is not None:
                    child("gateway.dedup", t_dedup, outcome=outcome)
                    converged, iterations, bits = value
                    t_respond = time.perf_counter()
                    await self._send_quiet(
                        conn,
                        encode_result(req.job_id, converged, iterations,
                                      bits, trace=reply_trace),
                    )
                    child("gateway.respond", t_respond)
                    total_s = time.monotonic() - t0
                    metrics.dedup_hits.inc(outcome=outcome)
                    metrics.results.inc(tenant=tenant)
                    metrics.latency.observe(total_s, tenant=tenant)
                    metrics.phases.observe(total_s, tenant=tenant,
                                           code_id=code_label, phase="total")
                    emit(self.recorder, self.log, "debug", "net.dedup",
                         tenant=tenant, job=req.job_id, outcome=outcome)
                    finish("dedup", dedup=outcome, total_s=round(total_s, 6))
                    return
                # the original attempt failed: fall through and decode
            child("gateway.dedup", t_dedup, outcome="miss")
            owner = asyncio.get_running_loop().create_future()
            self.dedup.put(dedup_key, owner)
        admission_s = queue_wait_s = decode_s = 0.0
        try:
            if self._draining:
                raise GatewayClosedError(
                    "gateway is draining; resubmit elsewhere"
                )
            t_probe = time.perf_counter()
            fill = self.service.queue_fill(code_key)
            child("gateway.queue_probe", t_probe, fill=round(fill, 4))
            t_admit = time.perf_counter()
            decision = self.admission.admit(tenant, fill, req.priority)
            admission_s = time.perf_counter() - t_probe
            child("gateway.admission", t_admit,
                  shed=decision.shed, budget=decision.iteration_budget)
            t_submit = time.perf_counter()
            future = self.service.submit(
                req.llrs(),
                code_key=code_key,
                timeout=0.0,
                iteration_budget=decision.iteration_budget,
                trace=(
                    TraceContext(req_trace_id, serve_span)
                    if tracing else None
                ),
            )
            # counted once submitted: a refused request is rejected,
            # not shed
            if decision.shed:
                metrics.shed.inc(tenant=tenant)
            done = await asyncio.wrap_future(future)
            child("gateway.submit", t_submit, job=req.job_id)
            job = done.job
            if job.dispatched_at is not None:
                queue_wait_s = max(0.0, job.dispatched_at - job.enqueued_at)
                decode_s = max(0.0, done.completed_at - job.dispatched_at)
            result = done.result
            value = (
                bool(result.converged), int(result.iterations), result.bits
            )
            if dedup_key is not None:
                self.dedup.put(dedup_key, value)
            if owner is not None and not owner.done():
                owner.set_result(value)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if dedup_key is not None:
                self.dedup.discard(dedup_key)
            await self._reply_error(req, tenant, conn, exc,
                                    trace=reply_trace)
            metrics.phases.observe(time.monotonic() - t0, tenant=tenant,
                                   code_id=code_label, phase="total")
            finish("error", error=type(exc).__name__)
            return
        finally:
            # failures are never cached: joiners of a future that never
            # produced a value decode fresh when they see None
            if owner is not None and not owner.done():
                owner.set_result(None)
        t_respond = time.perf_counter()
        await self._send_quiet(
            conn,
            encode_result(req.job_id, value[0], value[1], value[2],
                          trace=reply_trace),
        )
        respond_s = time.perf_counter() - t_respond
        child("gateway.respond", t_respond)
        total_s = time.monotonic() - t0
        metrics.results.inc(tenant=tenant)
        metrics.latency.observe(total_s, tenant=tenant)
        # phase="total" is observed for every request; the split phases
        # only for requests that decoded, so per-phase p99s are not
        # diluted by fail-fast rejections
        for phase, seconds in (
            ("total", total_s), ("admission", admission_s),
            ("queue_wait", queue_wait_s), ("decode", decode_s),
            ("respond", respond_s),
        ):
            metrics.phases.observe(seconds, tenant=tenant,
                                   code_id=code_label, phase=phase)
        emit(self.recorder, self.log, "debug", "net.result", tenant=tenant,
             job=req.job_id, converged=value[0], iterations=value[1])
        finish(
            "ok", converged=value[0], iterations=value[1],
            admission_s=round(admission_s, 6),
            queue_wait_s=round(queue_wait_s, 6),
            decode_s=round(decode_s, 6),
            respond_s=round(respond_s, 6),
            total_s=round(total_s, 6),
        )

    async def _reply_error(
        self,
        req: Request,
        tenant: str,
        conn: _ConnState,
        exc: BaseException,
        trace: Optional[TraceContext] = None,
    ) -> None:
        reason = _REJECT_REASONS.get(type(exc))
        if reason is not None:
            self.metrics.rejected.inc(tenant=tenant, reason=reason)
            emit(self.recorder, self.log, "warning", "net.reject",
                 tenant=tenant, job=req.job_id, reason=reason, error=str(exc))
        else:
            self.metrics.errors.inc(tenant=tenant, kind=type(exc).__name__)
            emit(self.recorder, self.log, "warning", "net.error",
                 tenant=tenant, job=req.job_id, kind=type(exc).__name__,
                 error=str(exc))
        if not isinstance(exc, ServeError):
            exc = ServeError(f"{type(exc).__name__}: {exc}")
        await self._send_quiet(
            conn,
            encode_error(req.job_id, exc, trace=trace),
        )

    async def _send_quiet(self, conn: _ConnState, data: bytes) -> None:
        """Write one frame; a torn connection is the client's problem."""
        try:
            async with conn.lock:
                conn.writer.write(data)
                await conn.writer.drain()
            self.metrics.bytes_out.inc(len(data))
        except (ConnectionError, RuntimeError, OSError):
            pass
