"""repro.net: the network face of the decode service.

The paper's decoder is scaled up in three layers here: the decoder
kernels (``repro.decoder`` / ``repro.accel``), the continuous-batching
shard pool (``repro.serve``), and — this package — a framed asyncio TCP
gateway with multi-tenant admission control and SLO-driven autoscaling.

* :mod:`repro.net.protocol` — the length-prefixed wire format (packed
  int8 LLR payloads, streaming result frames, typed error transport,
  a CRC-32 trailer on every frame).
* :mod:`repro.net.admission` — per-tenant token buckets plus priority
  classes (:data:`GOLD`/:data:`SILVER`/:data:`BRONZE`) mapped onto the
  serve layer's step-shed iteration budgets.
* :mod:`repro.net.gateway` — :class:`DecodeGateway`, the asyncio server
  bridging connections onto :class:`~repro.serve.pool.DecodeService`.
* :mod:`repro.net.client` — :class:`AsyncDecodeClient` (asyncio) and
  :class:`DecodeClient` (blocking).
* :mod:`repro.net.autoscaler` — :class:`Autoscaler`, the control loop
  growing/shrinking shards off ``health().slo`` and queue fill.
* :mod:`repro.net.resilience` — :class:`ResilientDecodeClient` with
  retries, hedging, circuit breakers, and heartbeat liveness.
* :mod:`repro.net.dedup` — :class:`DedupWindow`, the gateway-side
  idempotency window that makes retries decode-once.
* :mod:`repro.net.soak` — :func:`run_net_soak`, the self-verifying
  diurnal-traffic soak harness behind ``repro net-soak`` (with
  ``--chaos`` it drives everything through :mod:`repro.chaos` proxies;
  with ``trace=True`` it verifies every request's distributed span
  chain).
* :mod:`repro.net.console` — the ``repro top`` live ops console and
  the JSON status endpoint (:class:`ObsEndpoint`) a gateway serves it
  from.
"""

from repro.net.admission import (
    BRONZE,
    GOLD,
    SILVER,
    AdmissionController,
    AdmissionDecision,
    TenantPolicy,
    TokenBucket,
)
from repro.net.autoscaler import Autoscaler
from repro.net.client import AsyncDecodeClient, DecodeClient, RemoteResult
from repro.net.console import (
    ObsEndpoint,
    build_status,
    fetch_status,
    render_top,
    run_top,
)
from repro.net.dedup import DedupWindow
from repro.net.gateway import DecodeGateway
from repro.net.harq import (
    HarqCodeStats,
    HarqConfig,
    HarqReport,
    HarqRung,
    default_ladder,
    run_harq_session,
)
from repro.net.metrics import NetMetrics
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    MAGIC,
    VERSION,
    ErrorFrame,
    FrameReader,
    Hello,
    Ping,
    Pong,
    Request,
    Result,
    decode_frame,
    encode_error,
    encode_hello,
    encode_ping,
    encode_pong,
    encode_request,
    encode_result,
    pack_llrs,
    read_frame,
    read_raw,
    unpack_llrs,
    write_frame,
)
from repro.net.resilience import (
    CircuitBreaker,
    ResilientDecodeClient,
    RetryPolicy,
)
from repro.net.soak import SoakConfig, run_net_soak

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AsyncDecodeClient",
    "Autoscaler",
    "BRONZE",
    "build_status",
    "CircuitBreaker",
    "decode_frame",
    "DecodeClient",
    "DecodeGateway",
    "DedupWindow",
    "default_ladder",
    "DEFAULT_MAX_FRAME_BYTES",
    "encode_error",
    "encode_hello",
    "encode_ping",
    "encode_pong",
    "encode_request",
    "encode_result",
    "ErrorFrame",
    "fetch_status",
    "FrameReader",
    "GOLD",
    "HarqCodeStats",
    "HarqConfig",
    "HarqReport",
    "HarqRung",
    "Hello",
    "MAGIC",
    "NetMetrics",
    "ObsEndpoint",
    "pack_llrs",
    "Ping",
    "Pong",
    "read_frame",
    "read_raw",
    "RemoteResult",
    "render_top",
    "Request",
    "ResilientDecodeClient",
    "Result",
    "RetryPolicy",
    "run_harq_session",
    "run_net_soak",
    "run_top",
    "SILVER",
    "SoakConfig",
    "TenantPolicy",
    "TokenBucket",
    "unpack_llrs",
    "VERSION",
    "write_frame",
]
