"""Clients for the decode gateway: asyncio-native and blocking.

:class:`AsyncDecodeClient` multiplexes any number of outstanding
requests over one connection: every request gets a connection-local job
id, results stream back in completion order, and a background reader
task routes each RESULT/ERROR frame to the awaiting caller.  Server
errors re-raise as the *same* typed
:class:`~repro.errors.ServeError` member the gateway hit (quota
exhaustion as :class:`~repro.errors.QuotaExceededError`, backpressure
as :class:`~repro.errors.QueueFullError`, ...), so remote and
in-process callers handle failure identically.

Every connection opens with a HELLO version check: the gateway must
answer with a HELLO of the same :data:`~repro.net.protocol.VERSION`
within ``hello_timeout``, or :meth:`AsyncDecodeClient.connect` fails
with a typed error.  There is one wire format, so nothing else is
settled: every frame carries its CRC-32 trailer, every request its
idempotency key and trace context fields, and the read loop answers
gateway heartbeat PINGs.

:class:`DecodeClient` is the blocking facade: it runs a private event
loop on a daemon thread and forwards calls, so synchronous code (and
``ThreadPoolExecutor`` load generators) can use the gateway without
touching asyncio.  Its :meth:`~DecodeClient.close` is idempotent, and
every blocking call fails fast with
:class:`~repro.errors.ClientClosedError` — instead of hanging on a
dead executor — once the client is closed or its loop thread has died.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.errors import (
    ClientClosedError,
    GatewayClosedError,
    NetProtocolError,
    ServeTimeoutError,
)
from repro.net.admission import GOLD
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    ErrorFrame,
    Hello,
    Ping,
    Pong,
    Result,
    TraceContext,
    encode_hello,
    encode_ping,
    encode_pong,
    encode_request,
    read_frame,
)
from repro.obs.trace import new_trace_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder

__all__ = ["AsyncDecodeClient", "DecodeClient", "RemoteResult"]


@dataclass(frozen=True)
class RemoteResult(object):
    """One decoded frame as seen by a client.

    ``bits`` is the full hard-decision codeword; ``latency_s`` is the
    client-observed round trip (request write to result frame).
    """

    job_id: int
    bits: np.ndarray
    converged: bool
    iterations: int
    latency_s: float
    #: the distributed trace id the request travelled under (0 when the
    #: connection or client is untraced)
    trace_id: int = 0


async def _hello(
    host: str, port: int, max_frame_bytes: int, hello_timeout: float,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a connection and check the gateway speaks :data:`VERSION`.

    A reply of another version or type, a garbled reply, or a closed
    connection raises :class:`~repro.errors.NetProtocolError`; no reply
    within ``hello_timeout`` (a mangled length prefix stalls the read
    forever) raises :class:`~repro.errors.ServeTimeoutError`.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_hello())
        await writer.drain()
        reply = await asyncio.wait_for(
            read_frame(reader, max_frame_bytes), hello_timeout
        )
        if reply is None:
            raise NetProtocolError("peer closed the connection at HELLO")
        if isinstance(reply, ErrorFrame):
            raise NetProtocolError(
                f"peer refused HELLO: {reply.kind}: {reply.message}"
            )
        if not isinstance(reply, Hello):
            raise NetProtocolError(
                f"peer answered HELLO with {type(reply).__name__}"
            )
    except BaseException as exc:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
        if isinstance(exc, asyncio.TimeoutError):
            raise ServeTimeoutError(
                f"HELLO not answered within {hello_timeout}s"
            ) from None
        if isinstance(exc, OSError):
            raise NetProtocolError(
                f"connection lost during HELLO: {exc!r}"
            ) from None
        raise
    return reader, writer


class AsyncDecodeClient(object):
    """Asyncio client for one gateway connection.

    Build with :meth:`connect`; close with :meth:`close` (or use it as
    an async context manager).  Defaults (tenant, code id, priority)
    set at connect time apply per request unless overridden.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        tenant: str = "default",
        code_id: str = "",
        priority: int = GOLD,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        recorder: "Optional[TraceRecorder]" = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.tenant = tenant
        self.code_id = code_id
        self.priority = priority
        self.max_frame_bytes = max_frame_bytes
        self.recorder = recorder
        self._job_seq = 0
        self._pending: Dict[int, "asyncio.Future"] = {}
        self._send_lock = asyncio.Lock()
        self._closed = False
        self._conn_error: Optional[BaseException] = None
        self.pings_answered = 0
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        tenant: str = "default",
        code_id: str = "",
        priority: int = GOLD,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        hello_timeout: float = 10.0,
        recorder: "Optional[TraceRecorder]" = None,
    ) -> "AsyncDecodeClient":
        """Open a gateway connection, check its version, start the reader.

        A failed HELLO check raises :class:`~repro.errors.NetProtocolError`
        or, after ``hello_timeout`` seconds without an answer,
        :class:`~repro.errors.ServeTimeoutError`.  ``recorder`` enables
        client-side request spans (one ``client.request`` span per
        decode, carrying the distributed trace id).
        """
        reader, writer = await _hello(
            host, port, max_frame_bytes, hello_timeout
        )
        return cls(
            reader, writer,
            tenant=tenant, code_id=code_id, priority=priority,
            max_frame_bytes=max_frame_bytes, recorder=recorder,
        )

    async def __aenter__(self) -> "AsyncDecodeClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    @property
    def pending(self) -> int:
        """Requests in flight on this connection."""
        return len(self._pending)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran or the connection died."""
        return self._closed or self._conn_error is not None

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    async def decode(
        self,
        llrs: np.ndarray,
        code_id: Optional[str] = None,
        priority: Optional[int] = None,
        timeout: Optional[float] = None,
        idempotency_key: str = "",
        trace: Optional[TraceContext] = None,
    ) -> RemoteResult:
        """Send one frame and await its result.

        ``idempotency_key`` marks retries of one logical job for the
        gateway's dedup window.  ``trace`` is an inherited trace
        context — the resilient client passes its per-attempt span here
        so the wire hop parents under it; with a recorder attached and
        no inherited context, each decode starts a fresh distributed
        trace.  Raises
        the typed error the gateway shipped, or
        :class:`~repro.errors.ServeTimeoutError` when ``timeout``
        seconds pass first, or
        :class:`~repro.errors.GatewayClosedError` when the connection
        drops with the request unanswered.
        """
        if self._closed:
            raise GatewayClosedError("client is closed")
        if self._conn_error is not None:
            raise GatewayClosedError(
                f"connection is down: {self._conn_error}"
            )
        self._job_seq += 1
        job_id = self._job_seq
        code = self.code_id if code_id is None else code_id
        rec = self.recorder
        recording = rec is not None and rec.enabled
        # establish the trace id (inherited or fresh) and this hop's span
        trace_id = 0
        parent_span: Optional[int] = None
        if trace is not None and trace.trace_id:
            trace_id, parent_span = trace.trace_id, trace.span_id
        elif recording:
            trace_id = new_trace_id()
        span_id = rec.allocate_span_id() if recording and trace_id else 0
        # the parent the gateway adopts is our request span when we
        # record one, else the inherited span, else nothing
        wire_trace = (
            TraceContext(trace_id, span_id or (parent_span or 0))
            if trace_id else None
        )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._pending[job_id] = future
        t0 = time.monotonic()
        t0_pc = time.perf_counter()
        frame = encode_request(
            job_id,
            self.tenant,
            code,
            self.priority if priority is None else priority,
            llrs=np.asarray(llrs, dtype=np.float64),
            idempotency_key=idempotency_key,
            trace=wire_trace,
        )
        try:
            try:
                async with self._send_lock:
                    self._writer.write(frame)
                    await self._writer.drain()
            except (ConnectionError, RuntimeError, OSError) as exc:
                self._pending.pop(job_id, None)
                raise GatewayClosedError(f"send failed: {exc}") from None
            try:
                if timeout is not None:
                    result = await asyncio.wait_for(future, timeout)
                else:
                    result = await future
            except asyncio.TimeoutError:
                self._pending.pop(job_id, None)
                raise ServeTimeoutError(
                    f"no result for job {job_id} within {timeout}s"
                ) from None
        except BaseException as exc:
            if span_id:
                rec.complete(
                    "client.request", t0_pc, span_id=span_id,
                    parent_id=parent_span, trace=trace_id, job=job_id,
                    tenant=self.tenant, code_id=code, ok=False,
                    error=type(exc).__name__,
                )
            raise
        if isinstance(result, Result):
            if span_id:
                labels = dict(
                    trace=trace_id, job=job_id, tenant=self.tenant,
                    code_id=code, ok=True, converged=result.converged,
                    iterations=result.iterations,
                )
                if result.trace is not None:
                    labels["gateway_span"] = result.trace.span_id
                rec.complete(
                    "client.request", t0_pc, span_id=span_id,
                    parent_id=parent_span, **labels
                )
            return RemoteResult(
                job_id=job_id,
                bits=result.bits,
                converged=result.converged,
                iterations=result.iterations,
                latency_s=time.monotonic() - t0,
                trace_id=trace_id,
            )
        raise NetProtocolError(f"unexpected reply {type(result).__name__}")

    async def ping(self, timeout: Optional[float] = 5.0) -> float:
        """Round-trip a PING; returns the RTT in seconds."""
        if self._closed:
            raise GatewayClosedError("client is closed")
        self._job_seq += 1
        job_id = self._job_seq
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._pending[job_id] = future
        t0 = time.monotonic()
        async with self._send_lock:
            self._writer.write(encode_ping(job_id))
            await self._writer.drain()
        try:
            await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(job_id, None)
            raise ServeTimeoutError(f"no pong within {timeout}s") from None
        return time.monotonic() - t0

    async def close(self) -> None:
        """Close the connection; unanswered requests fail fast."""
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass
        self._fail_pending(GatewayClosedError("client closed"))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await read_frame(self._reader, self.max_frame_bytes)
                if frame is None:
                    self._conn_error = GatewayClosedError(
                        "gateway closed the connection"
                    )
                    break
                if isinstance(frame, (Result, Pong)):
                    future = self._pending.pop(frame.job_id, None)
                    if future is not None and not future.done():
                        future.set_result(frame)
                elif isinstance(frame, Ping):
                    # gateway heartbeat: answer so it knows we are alive
                    try:
                        async with self._send_lock:
                            self._writer.write(encode_pong(frame.job_id))
                            await self._writer.drain()
                        self.pings_answered += 1
                    except (ConnectionError, RuntimeError, OSError):
                        pass
                elif isinstance(frame, ErrorFrame):
                    exc = frame.to_exception()
                    if frame.job_id == 0:
                        # connection-scoped error: poisons every request
                        self._conn_error = exc
                        break
                    future = self._pending.pop(frame.job_id, None)
                    if future is not None and not future.done():
                        future.set_exception(exc)
                # anything else (a stray Request/Hello) is ignored
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._conn_error = exc
        finally:
            error = self._conn_error or GatewayClosedError(
                "connection reader exited"
            )
            if not isinstance(error, Exception):
                error = GatewayClosedError(str(error))
            self._fail_pending(error)

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                if not isinstance(exc, GatewayClosedError):
                    exc = GatewayClosedError(str(exc))
                future.set_exception(exc)


class DecodeClient(object):
    """Blocking gateway client (private event loop on a daemon thread).

    Usable as a context manager::

        with DecodeClient(host, port, tenant="gold") as client:
            result = client.decode(llrs)

    Lifecycle: :meth:`close` is idempotent, and once the client is
    closed — or its private loop thread has died for any reason — every
    blocking call raises :class:`~repro.errors.ClientClosedError`
    immediately rather than queueing work for an executor that will
    never run it.
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        code_id: str = "",
        priority: int = GOLD,
        connect_timeout: float = 10.0,
        recorder: "Optional[TraceRecorder]" = None,
    ) -> None:
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name=f"decode-client-{host}:{port}",
            daemon=True,
        )
        self._thread.start()
        try:
            self._client: AsyncDecodeClient = self._call(
                AsyncDecodeClient.connect(
                    host, port,
                    tenant=tenant, code_id=code_id, priority=priority,
                    recorder=recorder,
                ),
                timeout=connect_timeout,
            )
        except BaseException:
            self._stop_loop()
            raise

    def _call(self, coro, timeout: Optional[float] = None):
        if (
            self._closed
            or self._loop.is_closed()
            or not self._thread.is_alive()
        ):
            coro.close()  # suppress the never-awaited warning
            raise ClientClosedError(
                "DecodeClient is closed (or its event-loop thread died); "
                "open a new client"
            )
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout)
        except asyncio.TimeoutError:
            future.cancel()
            raise ServeTimeoutError(
                f"gateway call did not finish within {timeout}s"
            ) from None

    def decode(
        self,
        llrs: np.ndarray,
        code_id: Optional[str] = None,
        priority: Optional[int] = None,
        timeout: Optional[float] = None,
        idempotency_key: str = "",
    ) -> RemoteResult:
        """Blocking :meth:`AsyncDecodeClient.decode`."""
        slack = None if timeout is None else timeout + 5.0
        return self._call(
            self._client.decode(
                llrs, code_id=code_id, priority=priority, timeout=timeout,
                idempotency_key=idempotency_key,
            ),
            timeout=slack,
        )

    def ping(self, timeout: float = 5.0) -> float:
        """Blocking :meth:`AsyncDecodeClient.ping`."""
        return self._call(self._client.ping(timeout), timeout=timeout + 5.0)

    def close(self) -> None:
        """Close the connection and stop the private loop.

        Idempotent, and never hangs: when the loop thread has already
        died, the calling thread runs the asyncio-side close on the
        stopped loop itself (bounded like the normal close), so the
        connection's socket is closed either way.
        """
        if self._closed:
            return
        self._closed = True
        if self._loop.is_closed():
            pass
        elif self._thread.is_alive():
            try:
                future = asyncio.run_coroutine_threadsafe(
                    self._client.close(), self._loop
                )
                future.result(10.0)
            except Exception:
                pass
        else:
            try:
                self._loop.run_until_complete(
                    asyncio.wait_for(self._client.close(), 10.0)
                )
            except Exception:
                pass  # e.g. called from inside another running loop
        self._stop_loop()

    def _stop_loop(self) -> None:
        if self._thread.is_alive() and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:
                pass
        self._thread.join(timeout=10.0)
        if not self._thread.is_alive() and not self._loop.is_closed():
            self._loop.close()

    def __enter__(self) -> "DecodeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
