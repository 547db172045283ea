"""Asyncio TCP gateway bridging framed clients onto a decode service.

:class:`DecodeGateway` is the network front door of the serving stack —
the router layer of Condo & Masera's NoC-based decoder recast in
asyncio: many concurrent connections multiplex decode requests onto the
heterogeneous shard pool of a
:class:`~repro.serve.pool.DecodeService`.

One task per connection reads frames off the stream; a REQUEST costs no
task and no asyncio future of its own.  The reader runs dedup lookup,
queue probe, admission and ``DecodeService.submit`` inline and hangs
one done-callback on the ``concurrent.futures.Future`` that ``submit``
returns.  On the worker thread that callback only appends the request
to one gateway-wide completion list; the first completion after a
drain wakes the loop with one ``call_soon_threadsafe``, and the loop
then encodes every finished result and writes each connection's
frames with one ``write`` per loop turn.  Results therefore *stream
back in completion order*, not request order (the job id in every
frame is the correlation key), and the event loop never blocks on a
decode.  Result writes never await ``drain()``; the connection's
reader does, before it reads the next frame, so a client that stops
reading stops being read instead of growing the gateway's buffers.

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
import functools
import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

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
    from concurrent.futures import Future

    from repro.obs.trace import TraceRecorder
    from repro.serve.jobs import CompletedJob
    from repro.serve.pool import DecodeService

__all__ = ["DecodeGateway"]

#: Rejection reasons, keyed by the typed error that caused them.
_REJECT_REASONS = {
    QuotaExceededError: "quota",
    QueueFullError: "backpressure",
    GatewayClosedError: "drain",
    ServiceClosedError: "drain",
}

#: Errors a write or drain on a torn connection raises.
_TORN = (ConnectionError, RuntimeError, OSError)


def _wake(waiter: "Optional[asyncio.Future]") -> None:
    if waiter is not None and not waiter.done():
        waiter.set_result(None)


class _ConnState(object):
    """Per-connection liveness and in-flight state."""

    __slots__ = ("writer", "peer", "last_rx", "missed_pings", "ping_seq",
                 "closed", "task", "heartbeat", "inflight", "idle")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.peer = str(writer.get_extra_info("peername"))
        self.last_rx = time.monotonic()
        self.missed_pings = 0
        self.ping_seq = 0
        self.closed = False
        self.task: "Optional[asyncio.Task]" = asyncio.current_task()
        self.heartbeat: "Optional[asyncio.Task]" = None
        #: requests read off this connection and not yet answered
        self.inflight = 0
        #: resolved when ``inflight`` falls to 0 while the reader waits
        self.idle: "Optional[asyncio.Future]" = None

    def saw_frame(self) -> None:
        self.last_rx = time.monotonic()
        self.missed_pings = 0


class _Pending(object):
    """One request between its arrival and its reply frame.

    Never holds the service future it waits on: the future's
    done-callback holds this object, and a reference back would make a
    cycle that keeps every finished job alive until the cyclic GC runs.
    """

    __slots__ = ("req", "conn", "tenant", "code_label", "t0", "t0_pc",
                 "trace_id", "serve_span", "remote_parent", "reply_trace",
                 "dedup_key", "owner", "admission_s", "t_submit")

    def __init__(self, req: Request, conn: _ConnState,
                 rec: "Optional[TraceRecorder]") -> None:
        self.t0 = time.monotonic()
        self.t0_pc = time.perf_counter()
        self.req = req
        self.conn = conn
        self.tenant = req.tenant or "anonymous"
        self.code_label = req.code_id or "default"
        self.trace_id = req.trace.trace_id if req.trace is not None else 0
        tracing = rec is not None and rec.enabled and bool(self.trace_id)
        #: nonzero exactly when the gateway records this request's spans
        self.serve_span = rec.allocate_span_id() if tracing else 0
        self.remote_parent = req.trace.span_id if tracing else 0
        # echo the trace id (plus our span) so the client can join the
        # reply to its own tree even without a shared recorder
        self.reply_trace = (
            TraceContext(self.trace_id, self.serve_span)
            if self.trace_id else None
        )
        self.dedup_key: Optional[Tuple[str, str]] = None
        self.owner: "Optional[asyncio.Future]" = None
        self.admission_s = 0.0
        self.t_submit = 0.0


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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._closed = False
        self._conns: Set[_ConnState] = set()
        #: requests read and not yet answered, over every connection
        self._inflight = 0
        #: resolved when ``_inflight`` falls to 0 while :meth:`close` waits
        self._drained: "Optional[asyncio.Future]" = None
        # finished service futures waiting for the loop; appended by
        # worker threads, swapped out whole by _complete
        self._done: "List[Tuple[_Pending, Future]]" = []
        self._done_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        if self._server is not None:
            return self.address
        self._loop = asyncio.get_running_loop()
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
        with ``drain=False`` they are dropped and their clients see
        the connection drop.  Idempotent.
        """
        if self._closed:
            return
        self._draining = True
        emit(self.recorder, self.log, "info", "net.drain",
             inflight=self._inflight, drain=drain)
        if self._server is not None:
            self._server.close()
        for conn in list(self._conns):
            if conn.heartbeat is not None:
                conn.heartbeat.cancel()
        if drain and self._inflight:
            self._drained = asyncio.get_running_loop().create_future()
            await asyncio.wait([self._drained], timeout=self.drain_timeout_s)
        conn_tasks = []
        for conn in list(self._conns):
            conn.writer.close()  # results still decoding are dropped
            _wake(conn.idle)
            if conn.task is not None:
                conn_tasks.append(conn.task)
        if conn_tasks:
            await asyncio.wait(conn_tasks, timeout=self.drain_timeout_s)
        if self._server is not None:
            await self._server.wait_closed()
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
        conn = _ConnState(writer)
        self._conns.add(conn)
        self.metrics.connections.inc()
        self.metrics.connections_total.inc()
        emit(self.recorder, self.log, "debug", "net.conn_open", peer=conn.peer)
        if self.heartbeat_interval_s:
            conn.heartbeat = asyncio.ensure_future(self._heartbeat(conn))
        try:
            while True:
                try:
                    # replies are written without awaiting; a client
                    # that stops reading stalls this reader instead
                    await writer.drain()
                except _TORN:
                    break
                try:
                    payload = await read_raw(reader, self.max_frame_bytes)
                except NetProtocolError as exc:
                    self._conn_fatal(conn, exc)
                    break
                if payload is None:
                    break  # client closed cleanly
                self.metrics.bytes_in.inc(len(payload) + 4)
                try:
                    frame = decode_frame(payload)
                except NetProtocolError as exc:
                    self._conn_fatal(conn, exc)
                    break
                conn.saw_frame()
                if isinstance(frame, Request):
                    self._request(frame, conn)
                    continue
                if isinstance(frame, Hello):
                    # decode_frame already checked the version
                    self.metrics.hello.inc(version=str(VERSION))
                    emit(self.recorder, self.log, "debug", "net.hello",
                         peer=conn.peer, version=VERSION)
                    self._send_quiet(conn, encode_hello(frame.job_id))
                    continue
                if isinstance(frame, Ping):
                    self._send_quiet(conn, encode_pong(frame.job_id))
                    continue
                if isinstance(frame, Pong):
                    continue  # liveness bookkeeping happened in saw_frame
                exc = NetProtocolError(
                    f"clients may not send {type(frame).__name__} frames"
                )
                emit(self.recorder, self.log, "warning",
                     "net.protocol_error", peer=conn.peer, error=str(exc))
                self._send_quiet(conn, encode_error(frame.job_id, exc))
                break
        finally:
            conn.closed = True
            if conn.heartbeat is not None:
                conn.heartbeat.cancel()
            if conn.inflight and not writer.is_closing():
                # let this connection's tail of results flush before the
                # socket goes away (drain-on-close already bounded these)
                conn.idle = asyncio.get_running_loop().create_future()
                await conn.idle
            self._conns.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
            self.metrics.connections.dec()
            emit(self.recorder, self.log, "debug", "net.conn_close",
                 peer=conn.peer)

    async def _heartbeat(self, conn: _ConnState) -> None:
        """PING an idle peer on a cadence; close it after missed pongs."""
        interval = float(self.heartbeat_interval_s or 0.0)
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
            self._send_quiet(conn, encode_ping(conn.ping_seq))

    def _conn_fatal(self, conn: _ConnState, exc: NetProtocolError) -> None:
        """Report a connection-scoped protocol failure (ERROR, job 0)."""
        if isinstance(exc, FrameCorruptionError):
            self.metrics.crc_corrupt.inc()
            emit(self.recorder, self.log, "warning", "net.crc_corrupt",
                 peer=conn.peer, error=str(exc))
        else:
            emit(self.recorder, self.log, "warning", "net.protocol_error",
                 peer=conn.peer, error=str(exc))
        self._send_quiet(conn, encode_error(0, exc))

    # ------------------------------------------------------------------
    # the request path
    #
    # A request carrying a trace context (a tracing client) is adopted:
    # one ``gateway.request`` span parented under the client's wire
    # span, with ``gateway.dedup`` / ``gateway.queue_probe`` /
    # ``gateway.admission`` / ``gateway.submit`` / ``gateway.respond``
    # children, the waterfall split recorded as span attributes, and the
    # same context threaded into ``DecodeService.submit`` so the pool's
    # queue-wait/decode spans join the tree.  Spans use explicit parent
    # ids because every request interleaves on one event-loop thread.
    # ------------------------------------------------------------------
    def _child(self, p: _Pending, name: str, start_pc: float,
               **labels: object) -> None:
        if p.serve_span:
            self.recorder.complete(name, start_pc, parent_id=p.serve_span,
                                   trace=p.trace_id, **labels)

    def _root_span(self, p: _Pending, outcome: str,
                   **extra: object) -> None:
        """Record ``gateway.request``; callers check ``p.serve_span``."""
        self.recorder.complete(
            "gateway.request", p.t0_pc, span_id=p.serve_span,
            parent_id=p.remote_parent or None, trace=p.trace_id,
            tenant=p.tenant, code_id=p.code_label, job=p.req.job_id,
            outcome=outcome, **extra
        )

    def _settle(self, p: _Pending) -> None:
        """Release the request's in-flight slot."""
        conn = p.conn
        conn.inflight -= 1
        if not conn.inflight:
            _wake(conn.idle)
        self._inflight -= 1
        if not self._inflight:
            _wake(self._drained)

    def _request(self, req: Request, conn: _ConnState) -> None:
        """Take one REQUEST off the reader: replay, join or submit it."""
        p = _Pending(req, conn, self.recorder)
        conn.inflight += 1
        self._inflight += 1
        self.metrics.requests.inc(tenant=p.tenant)
        emit(self.recorder, self.log, "debug", "net.request",
             tenant=p.tenant, job=req.job_id, priority=req.priority)
        if not req.idempotency_key:
            self._submit(p, 0.0)
            return
        p.dedup_key = (p.tenant, req.idempotency_key)
        t_dedup = time.perf_counter()
        entry = self.dedup.lookup(p.dedup_key)
        if entry is None:
            self._submit(p, t_dedup)
        elif isinstance(entry, asyncio.Future):
            entry.add_done_callback(
                functools.partial(self._joined, p, t_dedup)
            )
        else:
            self._replay(p, t_dedup, "cached", entry)

    def _joined(self, p: _Pending, t_dedup: float,
                owner: "asyncio.Future") -> None:
        value = owner.result()
        if value is None:
            # the original attempt failed: decode fresh
            self._submit(p, t_dedup)
        else:
            self._replay(p, t_dedup, "joined", value)

    def _replay(self, p: _Pending, t_dedup: float, outcome: str,
                value: Tuple[bool, int, object]) -> None:
        """Answer from the dedup window under the retry's own job id."""
        self._child(p, "gateway.dedup", t_dedup, outcome=outcome)
        converged, iterations, bits = value
        t_respond = time.perf_counter()
        self._send_quiet(
            p.conn,
            encode_result(p.req.job_id, converged, iterations, bits,
                          trace=p.reply_trace),
        )
        self._child(p, "gateway.respond", t_respond)
        total_s = time.monotonic() - p.t0
        metrics = self.metrics
        metrics.dedup_hits.inc(outcome=outcome)
        metrics.results.inc(tenant=p.tenant)
        metrics.latency.observe(total_s, tenant=p.tenant)
        metrics.phases.observe(total_s, tenant=p.tenant,
                               code_id=p.code_label, phase="total")
        emit(self.recorder, self.log, "debug", "net.dedup",
             tenant=p.tenant, job=p.req.job_id, outcome=outcome)
        if p.serve_span:
            self._root_span(p, "dedup", dedup=outcome,
                            total_s=round(total_s, 6))
        self._settle(p)

    def _submit(self, p: _Pending, t_dedup: float) -> None:
        """Admit and submit; the reply comes from :meth:`_complete`."""
        req = p.req
        if p.dedup_key is not None:
            self._child(p, "gateway.dedup", t_dedup, outcome="miss")
            p.owner = self._loop.create_future()
            self.dedup.put(p.dedup_key, p.owner)
        code_key = req.code_id or None
        try:
            if self._draining:
                raise GatewayClosedError(
                    "gateway is draining; resubmit elsewhere"
                )
            t_probe = time.perf_counter()
            fill = self.service.queue_fill(code_key)
            self._child(p, "gateway.queue_probe", t_probe,
                        fill=round(fill, 4))
            t_admit = time.perf_counter()
            decision = self.admission.admit(p.tenant, fill, req.priority)
            p.admission_s = time.perf_counter() - t_probe
            self._child(p, "gateway.admission", t_admit,
                        shed=decision.shed, budget=decision.iteration_budget)
            p.t_submit = time.perf_counter()
            future = self.service.submit(
                req.llrs(),
                code_key=code_key,
                timeout=0.0,
                iteration_budget=decision.iteration_budget,
                trace=p.reply_trace if p.serve_span else None,
            )
        except Exception as exc:
            self._failed(p, exc)
            return
        # counted once submitted: a refused request is rejected, not shed
        if decision.shed:
            self.metrics.shed.inc(tenant=p.tenant)
        future.add_done_callback(functools.partial(self._retired, p))

    def _retired(self, p: _Pending, future: "Future") -> None:
        """Done-callback, on the worker thread: hand the job to the loop.

        Only the first completion after :meth:`_complete` took the list
        wakes the loop; the rest ride along in the same turn.
        """
        with self._done_lock:
            self._done.append((p, future))
            if len(self._done) > 1:
                return
        try:
            self._loop.call_soon_threadsafe(self._complete)
        except RuntimeError:
            pass  # the loop is gone: nobody is left to answer

    def _complete(self) -> None:
        """Answer every finished job: one write per connection."""
        with self._done_lock:
            done_list, self._done = self._done, []
        out: Dict[_ConnState, List[tuple]] = {}
        for p, future in done_list:
            if p.conn.writer.is_closing():
                # dropped by close(drain=False) or a torn connection
                self._forget(p)
                if p.serve_span:
                    self._root_span(p, "dropped")
                self._settle(p)
                continue
            try:
                done = future.result()
                result = done.result
                value = (bool(result.converged), int(result.iterations),
                         result.bits)
                t_respond = time.perf_counter()
                frame = encode_result(p.req.job_id, *value,
                                      trace=p.reply_trace)
            except Exception as exc:
                self._failed(p, exc)
                continue
            if p.dedup_key is not None:
                self.dedup.put(p.dedup_key, value)
                p.owner.set_result(value)
            out.setdefault(p.conn, []).append(
                (p, done, value, t_respond, frame)
            )
        written = []
        for conn, answered in out.items():
            self._send_quiet(conn, b"".join([entry[4] for entry in answered]))
            written.append((answered, time.perf_counter()))
        # account only once every connection has its frames
        for answered, t_written in written:
            for p, done, value, t_respond, _frame in answered:
                self._answered(p, done, value, t_respond,
                               t_written - t_respond)

    def _answered(self, p: _Pending, done: "CompletedJob",
                  value: Tuple[bool, int, object], t_respond: float,
                  respond_s: float) -> None:
        """Account one result frame handed to the transport."""
        if p.serve_span:
            self._child(p, "gateway.submit", p.t_submit, job=p.req.job_id)
            self._child(p, "gateway.respond", t_respond)
        total_s = time.monotonic() - p.t0
        job = done.job
        queue_wait_s = decode_s = 0.0
        if job.dispatched_at is not None:
            queue_wait_s = max(0.0, job.dispatched_at - job.enqueued_at)
            decode_s = max(0.0, done.completed_at - job.dispatched_at)
        tenant = p.tenant
        metrics = self.metrics
        metrics.results.inc(tenant=tenant)
        metrics.latency.observe(total_s, tenant=tenant)
        # phase="total" is observed for every request; the split phases
        # only for requests that decoded, so per-phase p99s are not
        # diluted by fail-fast rejections
        for phase, seconds in (
            ("total", total_s), ("admission", p.admission_s),
            ("queue_wait", queue_wait_s), ("decode", decode_s),
            ("respond", respond_s),
        ):
            metrics.phases.observe(seconds, tenant=tenant,
                                   code_id=p.code_label, phase=phase)
        emit(self.recorder, self.log, "debug", "net.result", tenant=tenant,
             job=p.req.job_id, converged=value[0], iterations=value[1])
        if p.serve_span:
            self._root_span(
                p, "ok", converged=value[0], iterations=value[1],
                admission_s=round(p.admission_s, 6),
                queue_wait_s=round(queue_wait_s, 6),
                decode_s=round(decode_s, 6),
                respond_s=round(respond_s, 6),
                total_s=round(total_s, 6),
            )
        self._settle(p)

    def _forget(self, p: _Pending) -> None:
        """Failures are never cached: joiners of an owner that never
        produced a value see None and decode fresh."""
        if p.dedup_key is not None:
            self.dedup.discard(p.dedup_key)
        if p.owner is not None:
            p.owner.set_result(None)

    def _failed(self, p: _Pending, exc: BaseException) -> None:
        """Reply with the typed error."""
        self._forget(p)
        req, tenant = p.req, p.tenant
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
        wire_exc = exc if isinstance(exc, ServeError) else ServeError(
            f"{type(exc).__name__}: {exc}"
        )
        self._send_quiet(
            p.conn, encode_error(req.job_id, wire_exc, trace=p.reply_trace)
        )
        self.metrics.phases.observe(time.monotonic() - p.t0, tenant=tenant,
                                    code_id=p.code_label, phase="total")
        if p.serve_span:
            self._root_span(p, "error", error=type(exc).__name__)
        self._settle(p)

    def _send_quiet(self, conn: _ConnState, data: bytes) -> None:
        """Write frames; a torn connection is the client's problem."""
        writer = conn.writer
        if writer.is_closing():
            return
        try:
            writer.write(data)
        except _TORN:
            return
        self.metrics.bytes_out.inc(len(data))
