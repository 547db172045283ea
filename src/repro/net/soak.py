"""Synthetic diurnal-traffic soak harness for the network gateway.

One soak run is a complete, self-verifying exercise of the serving
stack's network story: a real TCP gateway in front of a real
:class:`~repro.serve.pool.DecodeService`, hundreds of concurrent client
connections spread over several tenants (one of them deliberately
under-quota'd), a load curve shaped like a day — quiet night, traffic
peak, quiet evening — a worker crash injected mid-peak, and an
:class:`~repro.net.autoscaler.Autoscaler` expected to both grow the
shard pool into the peak and shrink it afterwards.

The harness is *checked*, not just timed:

* every successfully decoded frame's bits are re-derived with
  :func:`repro.decoder.decode_many` on the **canonical dequantized
  LLRs** (exactly what travelled the wire), and any mismatch on a
  converged frame is a hard failure — the network path must be
  bit-exact with the in-process path;
* the run finishes with the service's SLO report attached, so a soak
  that "worked" while quietly violating its latency/crash/error
  objectives is visible as such;
* the autoscaler's decision log and the per-tenant admission counters
  are part of the report.

``repro net-soak`` runs it from the CLI; ``benchmarks/bench_net.py``
freezes its throughput as ``BENCH_net.json`` for the perf gate; the
acceptance test in ``tests/test_net_soak.py`` runs the 500-connection
configuration from the issue.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel import AwgnChannel
from repro.chaos import ChaosConfig, ChaosProxy
from repro.codes import wifi_code, wimax_code
from repro.codes.qc import QCLDPCCode
from repro.decoder import decode_many
from repro.encoder import RuEncoder
from repro.errors import (
    CircuitOpenError,
    GatewayClosedError,
    QuotaExceededError,
    ServeError,
)
from repro.net.admission import (
    BRONZE,
    GOLD,
    SILVER,
    AdmissionController,
    TenantPolicy,
)
from repro.net.autoscaler import Autoscaler
from repro.net.client import AsyncDecodeClient
from repro.net.dedup import DedupWindow
from repro.net.gateway import DecodeGateway
from repro.net.metrics import NetMetrics
from repro.net.protocol import pack_llrs, unpack_llrs
from repro.net.resilience import ResilientDecodeClient, RetryPolicy
from repro.obs.log import EventLog
from repro.obs.slo import default_serve_slos
from repro.obs.trace import TraceRecorder
from repro.serve.metrics import ServeMetrics
from repro.serve.pool import DecodeService
from repro.utils.provenance import bench_meta

__all__ = ["SoakConfig", "run_net_soak"]

#: Default tenant mix: three paying classes plus a free tier whose tiny
#: bucket is guaranteed to exhaust during the peak.
DEFAULT_TENANTS: Dict[str, Dict[str, float]] = {
    "gold": {"share": 0.4, "rate": 1e6, "burst": 1e6, "priority": GOLD},
    "silver": {"share": 0.3, "rate": 1e6, "burst": 1e6, "priority": SILVER},
    "bronze": {"share": 0.2, "rate": 1e6, "burst": 1e6, "priority": BRONZE},
    "free": {"share": 0.1, "rate": 0.2, "burst": 2.0, "priority": BRONZE},
}

#: Diurnal load curve: (phase name, load fraction of peak, seconds).
DEFAULT_PHASES: Tuple[Tuple[str, float, float], ...] = (
    ("night", 0.15, 1.0),
    ("peak", 1.0, 2.5),
    ("evening", 0.08, 1.5),
)


@dataclass(frozen=True)
class SoakConfig(object):
    """Everything one soak run depends on (JSON-serializable, so the
    perf gate can re-run a committed baseline's exact configuration)."""

    family: str = "wimax"
    rate_class: str = "1/2"
    length: int = 576
    iterations: int = 10
    fixed: bool = False
    backend: str = "thread"
    batch: int = 8
    queue_capacity: int = 16
    connections: int = 60
    peak_frames_per_conn: int = 6
    phases: Tuple[Tuple[str, float, float], ...] = DEFAULT_PHASES
    tenants: Dict[str, Dict[str, float]] = field(
        default_factory=lambda: {
            k: dict(v) for k, v in DEFAULT_TENANTS.items()
        }
    )
    ebno_db: float = 4.0
    seed: int = 0
    inject_crash: bool = True
    min_shards: int = 1
    max_shards: int = 3
    scale_up_fill: float = 0.25
    scale_down_fill: float = 0.05
    autoscale_interval_s: float = 0.1
    cooldown_s: float = 0.5
    shrink_after: int = 3
    shrink_wait_s: float = 10.0
    request_timeout_s: float = 60.0
    max_retries: int = 6
    slo_p99_s: float = 5.0
    slo_crash_rate: float = 0.05
    slo_error_rate: float = 0.15
    #: Distributed tracing: a recorder on every client, so
    #: each request yields one client→gateway→shard span chain under a
    #: single trace id; the report gains a ``trace_verify`` block and
    #: the throughput mode is renamed ``*-traced`` (separate perf-gate
    #: baseline — tracing is measured overhead, not noise).
    trace: bool = False
    # --- chaos mode (``repro net-soak --chaos``) ---------------------
    # Chaos is asymmetric by design: only the first replica's proxy
    # corrupts/truncates/resets, so the circuit breaker has somewhere
    # clean to shift traffic and retry amplification stays bounded —
    # exactly how a real multi-AZ deployment degrades.
    chaos: bool = False
    replicas: int = 2
    chaos_corrupt_p: float = 1e-3
    chaos_truncate_p: float = 0.002
    chaos_latency_p: float = 0.05
    chaos_latency_s: float = 0.02
    chaos_reset_p: float = 0.002
    chaos_partial_p: float = 0.05
    partition_s: float = 0.5
    kill_gateway: bool = True
    hedge_delay_s: float = 1.0
    heartbeat_s: float = 0.5
    client_max_attempts: int = 6
    dedup_ttl_s: float = 30.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (phases become lists)."""
        return {
            "family": self.family,
            "rate_class": self.rate_class,
            "length": self.length,
            "iterations": self.iterations,
            "fixed": self.fixed,
            "backend": self.backend,
            "batch": self.batch,
            "queue_capacity": self.queue_capacity,
            "connections": self.connections,
            "peak_frames_per_conn": self.peak_frames_per_conn,
            "phases": [list(p) for p in self.phases],
            "tenants": {k: dict(v) for k, v in self.tenants.items()},
            "ebno_db": self.ebno_db,
            "seed": self.seed,
            "inject_crash": self.inject_crash,
            "min_shards": self.min_shards,
            "max_shards": self.max_shards,
            "scale_up_fill": self.scale_up_fill,
            "scale_down_fill": self.scale_down_fill,
            "autoscale_interval_s": self.autoscale_interval_s,
            "cooldown_s": self.cooldown_s,
            "shrink_after": self.shrink_after,
            "shrink_wait_s": self.shrink_wait_s,
            "request_timeout_s": self.request_timeout_s,
            "max_retries": self.max_retries,
            "slo_p99_s": self.slo_p99_s,
            "slo_crash_rate": self.slo_crash_rate,
            "slo_error_rate": self.slo_error_rate,
            "trace": self.trace,
            "chaos": self.chaos,
            "replicas": self.replicas,
            "chaos_corrupt_p": self.chaos_corrupt_p,
            "chaos_truncate_p": self.chaos_truncate_p,
            "chaos_latency_p": self.chaos_latency_p,
            "chaos_latency_s": self.chaos_latency_s,
            "chaos_reset_p": self.chaos_reset_p,
            "chaos_partial_p": self.chaos_partial_p,
            "partition_s": self.partition_s,
            "kill_gateway": self.kill_gateway,
            "hedge_delay_s": self.hedge_delay_s,
            "heartbeat_s": self.heartbeat_s,
            "client_max_attempts": self.client_max_attempts,
            "dedup_ttl_s": self.dedup_ttl_s,
        }

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "SoakConfig":
        """Inverse of :meth:`to_dict` (unknown keys are ignored)."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        kwargs = {k: v for k, v in obj.items() if k in known}
        if "phases" in kwargs:
            kwargs["phases"] = tuple(
                (str(n), float(l), float(d)) for n, l, d in kwargs["phases"]
            )
        return cls(**kwargs)

    def build_code(self) -> QCLDPCCode:
        """The QC-LDPC code this soak decodes."""
        if self.family == "wifi":
            return wifi_code(self.rate_class, self.length)
        return wimax_code(self.rate_class, self.length)


class _TenantStats(object):
    """Per-tenant client-side accounting for one soak run."""

    __slots__ = ("ok", "quota_rejected", "retries", "failed", "dropped",
                 "unconverged")

    def __init__(self) -> None:
        self.ok = 0
        self.quota_rejected = 0
        self.retries = 0
        self.failed = 0
        self.dropped = 0
        self.unconverged = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


def _assign_tenants(cfg: SoakConfig) -> List[str]:
    """Tenant name per connection index, honouring the share mix."""
    names = list(cfg.tenants)
    counts = {
        name: int(round(cfg.tenants[name].get("share", 0.0) * cfg.connections))
        for name in names
    }
    for name in names:  # every configured tenant appears at least once
        if counts[name] == 0 and cfg.tenants[name].get("share", 0.0) > 0:
            counts[name] = 1
    # reconcile rounding drift by trimming the largest tenants first, so
    # the min-one-connection guarantee survives small connection counts
    total = sum(counts.values())
    while total > cfg.connections:
        biggest = max(names, key=lambda n: counts[n])
        if counts[biggest] <= 1:
            break
        counts[biggest] -= 1
        total -= 1
    while total < cfg.connections:
        counts[names[0]] += 1
        total += 1
    assignment: List[str] = []
    for name in names:
        assignment.extend([name] * counts[name])
    return assignment[: cfg.connections]


def _crash_at(cfg: SoakConfig) -> float:
    """Seconds into the run at which the worker crash is injected:
    the middle of the heaviest-load phase."""
    if not cfg.phases:
        return 0.0
    peak_idx = max(
        range(len(cfg.phases)), key=lambda i: cfg.phases[i][1]
    )
    before = sum(d for _n, _l, d in cfg.phases[:peak_idx])
    return before + cfg.phases[peak_idx][2] * 0.5


async def _send_one(
    client: AsyncDecodeClient,
    llrs: np.ndarray,
    cfg: SoakConfig,
    stats: _TenantStats,
    records: List[Tuple[np.ndarray, np.ndarray, bool]],
) -> None:
    """One frame through the gateway, with typed-error retry."""
    for attempt in range(cfg.max_retries + 1):
        try:
            result = await client.decode(llrs, timeout=cfg.request_timeout_s)
        except QuotaExceededError:
            stats.quota_rejected += 1
            return
        except GatewayClosedError:
            stats.dropped += 1
            return
        except ServeError:
            # backpressure, a crashed shard, a drained replica: all
            # retryable — the typed family is the contract that lets a
            # client distinguish "try again" from "stop asking"
            stats.retries += 1
            await asyncio.sleep(0.05 * (attempt + 1))
            continue
        stats.ok += 1
        if result.converged:
            records.append((llrs, result.bits, True))
        else:
            stats.unconverged += 1
            records.append((llrs, result.bits, False))
        return
    stats.failed += 1


async def _connection_task(
    index: int,
    tenant: str,
    cfg: SoakConfig,
    host: str,
    port: int,
    encoder: RuEncoder,
    code: QCLDPCCode,
    stats: _TenantStats,
    records: List[Tuple[np.ndarray, np.ndarray, bool]],
    latencies: List[float],
    recorder: Optional[TraceRecorder] = None,
) -> None:
    """One client connection living through the whole diurnal curve."""
    rng = np.random.default_rng(cfg.seed * 100003 + index)
    priority = int(cfg.tenants[tenant].get("priority", GOLD))
    client = await AsyncDecodeClient.connect(
        host, port, tenant=tenant, priority=priority, recorder=recorder
    )
    try:
        # stagger connection ramp-up so the accept loop is not a spike
        await asyncio.sleep((index % 97) / 97 * 0.25)
        for _phase, load, duration in cfg.phases:
            frames = int(round(cfg.peak_frames_per_conn * load))
            if frames == 0:
                await asyncio.sleep(duration)
                continue
            spacing = duration / frames
            for _ in range(frames):
                message = rng.integers(0, 2, encoder.k).astype(np.uint8)
                codeword = encoder.encode(message)
                channel = AwgnChannel.from_ebno(
                    cfg.ebno_db, code.rate, seed=rng
                )
                raw = channel.llrs(codeword)
                i8, scale = pack_llrs(raw)
                canonical = unpack_llrs(i8, scale)
                t0 = time.monotonic()
                await _send_one(client, canonical, cfg, stats, records)
                latencies.append(time.monotonic() - t0)
                await asyncio.sleep(spacing * (0.5 + rng.random() * 0.5))
    finally:
        await client.close()


async def _chaos_send_one(
    client: ResilientDecodeClient,
    llrs: np.ndarray,
    stats: _TenantStats,
    records: List[Tuple[np.ndarray, np.ndarray, bool]],
) -> None:
    """One frame through the resilient client (retries live inside it)."""
    try:
        result = await client.decode(llrs)
    except QuotaExceededError:
        stats.quota_rejected += 1
        return
    except CircuitOpenError:
        # every endpoint's breaker open: shed locally, no wire traffic
        stats.dropped += 1
        return
    except ServeError:
        stats.failed += 1
        return
    stats.ok += 1
    if result.converged:
        records.append((llrs, result.bits, True))
    else:
        stats.unconverged += 1
        records.append((llrs, result.bits, False))


async def _chaos_connection_task(
    index: int,
    tenant: str,
    cfg: SoakConfig,
    endpoints: List[Tuple[str, int]],
    encoder: RuEncoder,
    code: QCLDPCCode,
    stats: _TenantStats,
    records: List[Tuple[np.ndarray, np.ndarray, bool]],
    latencies: List[float],
    clients: List[ResilientDecodeClient],
    recorder: Optional[TraceRecorder] = None,
) -> None:
    """One resilient client living through the whole diurnal curve."""
    rng = np.random.default_rng(cfg.seed * 100003 + index)
    priority = int(cfg.tenants[tenant].get("priority", GOLD))
    client = ResilientDecodeClient(
        endpoints,
        tenant=tenant,
        priority=priority,
        recorder=recorder,
        retry=RetryPolicy(
            max_attempts=cfg.client_max_attempts,
            base_delay_s=0.05, max_delay_s=1.0,
        ),
        hedge_delay_s=cfg.hedge_delay_s if len(endpoints) > 1 else None,
        request_timeout_s=cfg.request_timeout_s,
        heartbeat_s=cfg.heartbeat_s,
        breaker_failures=4,
        breaker_reset_s=1.0,
        seed=cfg.seed * 7919 + index,
        tag=f"conn{index}",
    )
    clients.append(client)  # stats outlive the connection
    try:
        await asyncio.sleep((index % 97) / 97 * 0.25)
        for _phase, load, duration in cfg.phases:
            frames = int(round(cfg.peak_frames_per_conn * load))
            if frames == 0:
                await asyncio.sleep(duration)
                continue
            spacing = duration / frames
            for _ in range(frames):
                message = rng.integers(0, 2, encoder.k).astype(np.uint8)
                codeword = encoder.encode(message)
                channel = AwgnChannel.from_ebno(
                    cfg.ebno_db, code.rate, seed=rng
                )
                raw = channel.llrs(codeword)
                i8, scale = pack_llrs(raw)
                canonical = unpack_llrs(i8, scale)
                t0 = time.monotonic()
                await _chaos_send_one(client, canonical, stats, records)
                latencies.append(time.monotonic() - t0)
                await asyncio.sleep(spacing * (0.5 + rng.random() * 0.5))
    finally:
        await client.close()


def _phase_offset(cfg: SoakConfig, index: int, fraction: float) -> float:
    """Seconds into the run at ``fraction`` of phase ``index``."""
    phases = cfg.phases
    if not phases:
        return 0.0
    index = max(0, min(index, len(phases) - 1))
    before = sum(d for _n, _l, d in phases[:index])
    return before + phases[index][2] * fraction


async def _drive_chaos(
    cfg: SoakConfig,
    service: DecodeService,
    gateways: List[DecodeGateway],
    chaos_cfgs: List[ChaosConfig],
    scaler: Autoscaler,
    encoder: RuEncoder,
    code: QCLDPCCode,
    stats: Dict[str, _TenantStats],
    records: List[Tuple[np.ndarray, np.ndarray, bool]],
    latencies: List[float],
    progress: Callable[[str], None],
    recorder: Optional[TraceRecorder] = None,
) -> Dict[str, Any]:
    """The chaos topology: clients -> chaos proxies -> gateway replicas.

    Only proxy 0 injects corruption/truncation/resets (see the config
    docstring); during the peak it is additionally partitioned for
    ``partition_s`` seconds, and in the final phase gateway replica N-1
    is killed without drain.  The resilient clients must ride all of it
    out with zero silent corruption and bounded retry amplification.
    """
    for gateway in gateways:
        await gateway.start()
    proxies = [
        ChaosProxy(gw.host, gw.port, chaos_cfg)
        for gw, chaos_cfg in zip(gateways, chaos_cfgs)
    ]
    for proxy in proxies:
        await proxy.start()
    endpoints = [proxy.address for proxy in proxies]
    progress(
        "chaos topology up: "
        + ", ".join(
            f"proxy {p.address[1]} -> gateway {g.address[1]}"
            for p, g in zip(proxies, gateways)
        )
    )
    scaler.start()
    crash_info: Dict[str, Any] = {"injected": False, "shard": None}
    chaos_info: Dict[str, Any] = {
        "partitioned": False, "gateway_killed": False,
    }

    async def _crash() -> None:
        await asyncio.sleep(_crash_at(cfg))
        try:
            shard = service.inject_worker_crash()
        except ServeError:
            return
        crash_info["injected"] = True
        crash_info["shard"] = shard
        progress(f"injected worker crash on shard {shard!r}")

    async def _partition() -> None:
        peak_idx = max(
            range(len(cfg.phases)), key=lambda i: cfg.phases[i][1]
        )
        await asyncio.sleep(_phase_offset(cfg, peak_idx, 0.25))
        proxies[0].partition()
        chaos_info["partitioned"] = True
        progress(f"partitioned proxy 0 for {cfg.partition_s}s (mid-peak)")
        await asyncio.sleep(cfg.partition_s)
        proxies[0].heal()
        progress("healed proxy 0")

    async def _kill_gateway() -> None:
        await asyncio.sleep(_phase_offset(cfg, len(cfg.phases) - 1, 0.25))
        victim = gateways[-1]
        await victim.close(drain=False)
        chaos_info["gateway_killed"] = True
        progress(f"killed gateway replica on port {victim.address[1]}")

    fault_tasks = [asyncio.ensure_future(_partition())]
    if cfg.inject_crash:
        fault_tasks.append(asyncio.ensure_future(_crash()))
    if cfg.kill_gateway and len(gateways) > 1:
        fault_tasks.append(asyncio.ensure_future(_kill_gateway()))

    assignment = _assign_tenants(cfg)
    clients: List[ResilientDecodeClient] = []
    t_start = time.monotonic()
    tasks = [
        asyncio.ensure_future(
            _chaos_connection_task(
                i, tenant, cfg, endpoints, encoder, code,
                stats[tenant], records, latencies, clients,
                recorder=recorder,
            )
        )
        for i, tenant in enumerate(assignment)
    ]
    await asyncio.gather(*tasks)
    traffic_s = time.monotonic() - t_start
    progress(
        f"chaos traffic done in {traffic_s:.1f}s "
        f"({sum(s.ok for s in stats.values())} frames decoded)"
    )
    for task in fault_tasks:
        task.cancel()
    await asyncio.gather(*fault_tasks, return_exceptions=True)
    deadline = time.monotonic() + cfg.shrink_wait_s
    while scaler.count("down") == 0 and time.monotonic() < deadline:
        await asyncio.sleep(0.2)
    for proxy in proxies:
        await proxy.close()
    for gateway in gateways:
        await gateway.close(drain=True)
    client_stats: Dict[str, int] = {
        "jobs": 0, "requests_sent": 0, "retries": 0, "hedges": 0,
        "reconnects": 0, "breaker_refusals": 0, "dead_peers": 0,
    }
    for client in clients:
        for key in client_stats:
            client_stats[key] += client.stats[key]
    return {
        "traffic_s": traffic_s,
        "crash": crash_info,
        "chaos": chaos_info,
        "clients": client_stats,
        "proxies": [proxy.injected() for proxy in proxies],
    }


async def _drive(
    cfg: SoakConfig,
    service: DecodeService,
    gateway: DecodeGateway,
    scaler: Autoscaler,
    encoder: RuEncoder,
    code: QCLDPCCode,
    stats: Dict[str, _TenantStats],
    records: List[Tuple[np.ndarray, np.ndarray, bool]],
    latencies: List[float],
    progress: Callable[[str], None],
    recorder: Optional[TraceRecorder] = None,
) -> Dict[str, Any]:
    host, port = await gateway.start()
    progress(f"gateway listening on {host}:{port}")
    scaler.start()
    crash_info: Dict[str, Any] = {"injected": False, "shard": None}

    async def _crash() -> None:
        await asyncio.sleep(_crash_at(cfg))
        try:
            shard = service.inject_worker_crash()
        except ServeError:
            return
        crash_info["injected"] = True
        crash_info["shard"] = shard
        progress(f"injected worker crash on shard {shard!r}")

    crash_task = (
        asyncio.ensure_future(_crash()) if cfg.inject_crash else None
    )
    assignment = _assign_tenants(cfg)
    t_start = time.monotonic()
    tasks = [
        asyncio.ensure_future(
            _connection_task(
                i, tenant, cfg, host, port, encoder, code,
                stats[tenant], records, latencies,
                recorder=recorder,
            )
        )
        for i, tenant in enumerate(assignment)
    ]
    await asyncio.gather(*tasks)
    traffic_s = time.monotonic() - t_start
    progress(
        f"traffic done in {traffic_s:.1f}s "
        f"({sum(s.ok for s in stats.values())} frames decoded)"
    )
    if crash_task is not None:
        crash_task.cancel()
        try:
            await crash_task
        except (asyncio.CancelledError, Exception):
            pass
    # idle tail: give the autoscaler the calm it needs to scale down
    deadline = time.monotonic() + cfg.shrink_wait_s
    while scaler.count("down") == 0 and time.monotonic() < deadline:
        await asyncio.sleep(0.2)
    await gateway.close(drain=True)
    return {"traffic_s": traffic_s, "crash": crash_info}


def _verify_trace_chains(recorder: TraceRecorder) -> Dict[str, Any]:
    """Audit the span chains of every successful request.

    Groups spans by their ``trace`` label and, for each trace whose
    client half reported success (``client.request``/``client.job``
    with ``ok=True``), demands the distributed story is complete: at
    least one ``gateway.request`` span joined the trace, and — unless
    the gateway answered from the dedup window — a ``job.decode`` span
    proves a shard actually decoded the frame.  A broken chain means
    trace propagation dropped context somewhere on the wire path.
    """
    by_trace: Dict[int, List[Any]] = {}
    for span in recorder.records():
        trace = span.label_dict.get("trace")
        if trace:
            by_trace.setdefault(int(trace), []).append(span)
    checked = 0
    broken: List[int] = []
    for trace_id in sorted(by_trace):
        group = by_trace[trace_id]
        client_ok = any(
            span.name in ("client.request", "client.job")
            and span.label_dict.get("ok")
            for span in group
        )
        if not client_ok:
            continue
        checked += 1
        names = {span.name for span in group}
        outcomes = {
            span.label_dict.get("outcome")
            for span in group if span.name == "gateway.request"
        }
        if not outcomes:
            broken.append(trace_id)
        elif "ok" in outcomes and "job.decode" not in names:
            broken.append(trace_id)
        elif "ok" not in outcomes and "dedup" not in outcomes:
            broken.append(trace_id)
    return {
        "traces": len(by_trace),
        "checked": checked,
        "broken": len(broken),
        "broken_ids": broken[:10],
        "ok": not broken,
    }


def run_net_soak(
    config: Optional[SoakConfig] = None,
    log_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    top_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one gateway soak; returns the full JSON-ready report.

    ``log_path`` tees the structured event log to a JSONL file (tail it
    live with ``repro logs --follow``); ``trace_path`` writes the
    Chrome trace; ``top_path`` writes the final ``repro top`` status
    document (the same JSON a live ``--obs-port`` endpoint would
    serve).  The report carries the standard provenance header
    (``bench: "net"``) plus throughput (``modes``), per-tenant
    admission stats, the autoscaler decision log, the final SLO report,
    and the decode-vs-reference verification outcome.  With
    ``config.trace`` the clients record their spans and the report
    gains a ``trace_verify`` block proving every successful request
    left a complete client→gateway→decode span chain.
    """
    cfg = config if config is not None else SoakConfig()
    note = progress if progress is not None else (lambda _msg: None)
    code = cfg.build_code()
    encoder = RuEncoder(code)
    recorder = TraceRecorder()
    registry_metrics = ServeMetrics()
    log = EventLog(path=log_path, recorder=recorder, min_level="debug")
    monitor = default_serve_slos(
        p99_latency_s=cfg.slo_p99_s,
        crash_rate=cfg.slo_crash_rate,
        error_rate=cfg.slo_error_rate,
    )
    service = DecodeService(
        code,
        batch_size=cfg.batch,
        max_iterations=cfg.iterations,
        fixed=cfg.fixed,
        backend=cfg.backend,
        queue_capacity=cfg.queue_capacity,
        metrics=registry_metrics,
        recorder=recorder,
        log=log,
        slo=monitor,
    )
    net_metrics = NetMetrics(registry=registry_metrics.registry)
    admission = AdmissionController(
        {
            name: TenantPolicy(
                rate=float(spec.get("rate", 1e6)),
                burst=float(spec.get("burst", 1e6)),
                priority=int(spec.get("priority", GOLD)),
            )
            for name, spec in cfg.tenants.items()
        },
        max_iterations=cfg.iterations,
    )
    dedup = DedupWindow(ttl_s=cfg.dedup_ttl_s)
    if cfg.chaos:
        # replica gateways share the service, metrics, AND the dedup
        # window, so a hedge landing on replica 1 still joins replica
        # 0's in-flight decode
        gateways = [
            DecodeGateway(
                service, admission,
                metrics=net_metrics, log=log, recorder=recorder,
                dedup=dedup, heartbeat_interval_s=cfg.heartbeat_s,
            )
            for _ in range(max(1, cfg.replicas))
        ]
        gateway = gateways[0]
    else:
        gateway = DecodeGateway(
            service, admission,
            metrics=net_metrics, log=log, recorder=recorder,
        )
        gateways = [gateway]
    scaler = Autoscaler(
        service,
        min_shards=cfg.min_shards,
        max_shards=cfg.max_shards,
        interval_s=cfg.autoscale_interval_s,
        cooldown_s=cfg.cooldown_s,
        shrink_after=cfg.shrink_after,
        scale_up_fill=cfg.scale_up_fill,
        scale_down_fill=cfg.scale_down_fill,
        metrics=net_metrics,
        log=log,
    )
    stats = {name: _TenantStats() for name in cfg.tenants}
    records: List[Tuple[np.ndarray, np.ndarray, bool]] = []
    latencies: List[float] = []
    slo_report = None
    try:
        if cfg.chaos:
            hostile = ChaosConfig(
                seed=cfg.seed,
                corrupt_p=cfg.chaos_corrupt_p,
                truncate_p=cfg.chaos_truncate_p,
                reset_p=cfg.chaos_reset_p,
                latency_p=cfg.chaos_latency_p,
                latency_s=cfg.chaos_latency_s,
                partial_write_p=cfg.chaos_partial_p,
            )
            benign = ChaosConfig(
                seed=cfg.seed + 1,
                latency_p=cfg.chaos_latency_p,
                latency_s=cfg.chaos_latency_s,
                partial_write_p=cfg.chaos_partial_p,
            )
            chaos_cfgs = [hostile] + [benign] * (len(gateways) - 1)
            drive_out = asyncio.run(
                _drive_chaos(
                    cfg, service, gateways, chaos_cfgs, scaler, encoder,
                    code, stats, records, latencies, note,
                    recorder=recorder if cfg.trace else None,
                )
            )
        else:
            drive_out = asyncio.run(
                _drive(
                    cfg, service, gateway, scaler, encoder, code,
                    stats, records, latencies, note,
                    recorder=recorder if cfg.trace else None,
                )
            )
        scaler.stop()
        slo_report = service.health().slo
    finally:
        scaler.stop()
        service.close(wait=True)
        log.close()
    if trace_path:
        recorder.write_chrome_trace(trace_path)
    if top_path:
        from repro.net.console import build_status

        with open(top_path, "w") as handle:
            json.dump(
                build_status(gateway, autoscaler=scaler), handle,
                sort_keys=True,
            )

    # ------------------------------------------------------------------
    # verification: the wire path must agree with decode_many bit-exactly
    # ------------------------------------------------------------------
    converged_records = [r for r in records if r[2]]
    mismatches = 0
    if converged_records:
        llr_matrix = np.stack([r[0] for r in converged_records])
        reference = decode_many(
            code, llr_matrix,
            max_iterations=cfg.iterations, fixed=cfg.fixed,
        )
        for i, (_llrs, bits, _conv) in enumerate(converged_records):
            if not np.array_equal(reference.bits[i], bits):
                mismatches += 1

    total_ok = sum(s.ok for s in stats.values())
    traffic_s = drive_out["traffic_s"]
    fps = total_ok / traffic_s if traffic_s > 0 else 0.0
    lat = np.asarray(latencies, dtype=np.float64)
    snap = registry_metrics.snapshot()
    doc = bench_meta("net")
    doc.update(
        {
            "code": code.name,
            "n": code.n,
            "config": cfg.to_dict(),
            "modes": [
                {
                    "mode": (
                        ("net-chaos" if cfg.chaos else "net-gateway")
                        + ("-traced" if cfg.trace else "")
                    ),
                    "frames_per_s": fps,
                    "frames": total_ok,
                    "time_s": traffic_s,
                    "p50_latency_s": (
                        float(np.percentile(lat, 50)) if lat.size else 0.0
                    ),
                    "p99_latency_s": (
                        float(np.percentile(lat, 99)) if lat.size else 0.0
                    ),
                }
            ],
            "tenants": {name: s.to_dict() for name, s in stats.items()},
            "verify": {
                "decoded": total_ok,
                "checked": len(converged_records),
                "unconverged": sum(1 for r in records if not r[2]),
                "mismatches": mismatches,
            },
            "autoscaler": {
                "up": scaler.count("up"),
                "down": scaler.count("down"),
                "replace": scaler.count("replace"),
                "decisions": [dict(d) for d in scaler.decisions],
            },
            "crash": {
                "injected": bool(drive_out["crash"]["injected"]),
                "shard": drive_out["crash"]["shard"],
                "worker_crashes": snap.worker_crashes,
                "worker_restarts": snap.worker_restarts,
            },
            "trace_verify": (
                _verify_trace_chains(recorder) if cfg.trace else None
            ),
            "slo": slo_report.to_dict() if slo_report is not None else None,
            "serve": {
                "frames_in": snap.frames_in,
                "frames_out": snap.frames_out,
                "frames_errored": snap.frames_errored,
                "frames_rejected": snap.frames_rejected,
                "frames_shed": snap.frames_shed,
            },
        }
    )
    if cfg.chaos:
        client_stats = drive_out["clients"]
        jobs = client_stats["jobs"]
        doc["chaos"] = {
            "partitioned": bool(drive_out["chaos"]["partitioned"]),
            "gateway_killed": bool(drive_out["chaos"]["gateway_killed"]),
            "proxies": drive_out["proxies"],
            "crc_detected": int(
                net_metrics.registry.get("net_crc_corrupt_total").total()
            ),
            "dedup": dedup.to_dict(),
            "clients": client_stats,
            "amplification": (
                client_stats["requests_sent"] / jobs if jobs else 0.0
            ),
        }
    return doc
