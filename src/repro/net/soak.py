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

The plain and the chaos soak (``chaos=True``: fault-injecting proxies
in front of gateway replicas, resilient clients) are one code path: one
driver, one connection loop and one send function, with the topology as
data.

``repro net-soak`` runs it from the CLI, and ``repro net-soak --json -o
BENCH_net.json`` freezes its throughput for the perf gate; the
acceptance test in ``tests/test_net_soak.py`` runs the 500-connection
configuration.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from dataclasses import asdict, dataclass, field, fields
from types import SimpleNamespace
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

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
from repro.net.protocol import pack_llrs, unpack_llrs
from repro.net.resilience import ResilientDecodeClient, RetryPolicy
from repro.obs.log import EventLog
from repro.obs.slo import default_serve_slos
from repro.obs.trace import TraceRecorder
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

#: Autoscaler tuning, fast enough to act inside a seconds-long curve.
MIN_SHARDS = 1
SCALE_UP_FILL = 0.25
SCALE_DOWN_FILL = 0.05
AUTOSCALE_INTERVAL_S = 0.1
COOLDOWN_S = 0.5
SHRINK_AFTER = 3
#: Crash-rate objective of the final SLO report.
SLO_CRASH_RATE = 0.05


@dataclass(frozen=True)
class SoakConfig(object):
    """Everything one soak run depends on (JSON-serializable, so the
    perf gate can re-run a committed baseline's exact configuration)."""

    family: str = "wimax"
    rate_class: str = "1/2"
    length: int = 576
    iterations: int = 10
    fixed: bool = False
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
    max_shards: int = 3
    shrink_wait_s: float = 10.0
    request_timeout_s: float = 60.0
    max_retries: int = 6
    slo_p99_s: float = 5.0
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

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (phases become lists)."""
        doc = asdict(self)
        doc["phases"] = [list(p) for p in self.phases]
        return doc

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "SoakConfig":
        """Inverse of :meth:`to_dict` (unknown keys are ignored)."""
        known = {f.name for f in fields(cls)}
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


def _phase_offset(cfg: SoakConfig, index: int, fraction: float) -> float:
    """Seconds into the run at ``fraction`` of phase ``index``."""
    phases = cfg.phases
    if not phases:
        return 0.0
    index = max(0, min(index, len(phases) - 1))
    before = sum(d for _n, _l, d in phases[:index])
    return before + phases[index][2] * fraction


def _peak_index(cfg: SoakConfig) -> int:
    """Index of the heaviest-load phase."""
    return max(
        range(len(cfg.phases)), key=lambda i: cfg.phases[i][1], default=0
    )


def _crash_at(cfg: SoakConfig) -> float:
    """Seconds into the run at which the worker crash is injected:
    the middle of the heaviest-load phase."""
    return _phase_offset(cfg, _peak_index(cfg), 0.5)


async def _send_one(
    client: Any,
    llrs: np.ndarray,
    stats: _TenantStats,
    records: List[Tuple[np.ndarray, np.ndarray, bool]],
    max_retries: int,
    retryable: Tuple[type, ...],
    dropped: type,
) -> None:
    """One frame through ``client``, sorted into the tenant's counters.

    Quota refusal and a ``dropped`` error end the frame at once.  A
    ``retryable`` error counts a retry and backs off linearly, for at
    most ``max_retries + 1`` attempts; any other typed failure, or the
    last retryable one, fails the frame.
    """
    for attempt in range(max_retries + 1):
        try:
            result = await client.decode(llrs)
        except QuotaExceededError:
            stats.quota_rejected += 1
            return
        except dropped:
            stats.dropped += 1
            return
        except retryable:
            stats.retries += 1
            await asyncio.sleep(0.05 * (attempt + 1))
            continue
        except ServeError:
            break
        stats.ok += 1
        if not result.converged:
            stats.unconverged += 1
        records.append((llrs, result.bits, bool(result.converged)))
        return
    stats.failed += 1


async def _connection_task(
    index: int,
    tenant: str,
    cfg: SoakConfig,
    connect: Callable[[int, str, int], Awaitable[Any]],
    policy: Dict[str, Any],
    encoder: RuEncoder,
    code: QCLDPCCode,
    stats: _TenantStats,
    records: List[Tuple[np.ndarray, np.ndarray, bool]],
    latencies: List[float],
) -> None:
    """One client connection living through the whole diurnal curve.

    ``connect(index, tenant, priority)`` builds the topology's client
    (anything with ``decode(llrs)`` and ``close()``); ``policy`` is the
    topology's keyword arguments to :func:`_send_one`.
    """
    rng = np.random.default_rng(cfg.seed * 100003 + index)
    priority = int(cfg.tenants[tenant].get("priority", GOLD))
    client = await connect(index, tenant, priority)
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
                await _send_one(client, canonical, stats, records, **policy)
                latencies.append(time.monotonic() - t0)
                await asyncio.sleep(spacing * (0.5 + rng.random() * 0.5))
    finally:
        await client.close()


def _proxy_configs(cfg: SoakConfig, count: int) -> List[ChaosConfig]:
    """Proxy 0 is hostile; the others only delay and split writes."""
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
    return [hostile] + [benign] * (count - 1)


async def _drive(
    cfg: SoakConfig,
    service: DecodeService,
    gateways: List[DecodeGateway],
    scaler: Autoscaler,
    encoder: RuEncoder,
    code: QCLDPCCode,
    stats: Dict[str, _TenantStats],
    records: List[Tuple[np.ndarray, np.ndarray, bool]],
    latencies: List[float],
    progress: Callable[[str], None],
    recorder: Optional[TraceRecorder] = None,
) -> Dict[str, Any]:
    """Start ``gateways``, run every connection, inject the faults.

    The plain topology is one gateway dialled by
    :class:`AsyncDecodeClient` connections, which the soak itself
    retries.  The chaos topology puts a :class:`ChaosProxy` in front of
    every replica and dials them with :class:`ResilientDecodeClient`,
    which retries on its own.  Only proxy 0 injects
    corruption/truncation/resets (see the config docstring); during the
    peak it is additionally partitioned for ``partition_s`` seconds, and
    in the final phase gateway replica N-1 is killed without drain.
    The resilient clients must ride all of it out with zero silent
    corruption and bounded retry amplification.
    """
    for gateway in gateways:
        await gateway.start()
    proxies: List[ChaosProxy] = []
    clients: List[ResilientDecodeClient] = []
    if cfg.chaos:
        proxies = [
            ChaosProxy(gw.host, gw.port, chaos_cfg)
            for gw, chaos_cfg in zip(
                gateways, _proxy_configs(cfg, len(gateways))
            )
        ]
        for proxy in proxies:
            await proxy.start()
        progress(
            "chaos topology up: "
            + ", ".join(
                f"proxy {p.address[1]} -> gateway {g.address[1]}"
                for p, g in zip(proxies, gateways)
            )
        )
        endpoints = [proxy.address for proxy in proxies]

        async def connect(index: int, tenant: str, priority: int) -> Any:
            client = ResilientDecodeClient(
                endpoints,
                tenant=tenant,
                priority=priority,
                recorder=recorder,
                retry=RetryPolicy(
                    max_attempts=cfg.client_max_attempts,
                    base_delay_s=0.05, max_delay_s=1.0,
                ),
                hedge_delay_s=(
                    cfg.hedge_delay_s if len(endpoints) > 1 else None
                ),
                request_timeout_s=cfg.request_timeout_s,
                heartbeat_s=cfg.heartbeat_s,
                breaker_failures=4,
                breaker_reset_s=1.0,
                seed=cfg.seed * 7919 + index,
                tag=f"conn{index}",
            )
            clients.append(client)  # stats outlive the connection
            return client

        # the client retried already; every breaker open is a local shed
        policy: Dict[str, Any] = {
            "max_retries": 0, "retryable": (), "dropped": CircuitOpenError,
        }
    else:
        host, port = gateways[0].address
        progress(f"gateway listening on {host}:{port}")

        async def connect(index: int, tenant: str, priority: int) -> Any:
            client = await AsyncDecodeClient.connect(
                host, port, tenant=tenant, priority=priority,
                recorder=recorder,
            )
            # the request timeout rides on every decode, as it does
            # inside the resilient client
            return SimpleNamespace(
                decode=functools.partial(
                    client.decode, timeout=cfg.request_timeout_s
                ),
                close=client.close,
            )

        # backpressure, a crashed shard, a drained replica: all
        # retryable — the typed family is the contract that lets a
        # client distinguish "try again" from "stop asking"
        policy = {
            "max_retries": cfg.max_retries, "retryable": (ServeError,),
            "dropped": GatewayClosedError,
        }
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
        await asyncio.sleep(_phase_offset(cfg, _peak_index(cfg), 0.25))
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

    faults = []
    if cfg.inject_crash:
        faults.append(_crash())
    if proxies:
        faults.append(_partition())
        if cfg.kill_gateway and len(gateways) > 1:
            faults.append(_kill_gateway())
    fault_tasks = [asyncio.ensure_future(fault) for fault in faults]

    assignment = _assign_tenants(cfg)
    t_start = time.monotonic()
    await asyncio.gather(*(
        _connection_task(
            i, tenant, cfg, connect, policy, encoder, code,
            stats[tenant], records, latencies,
        )
        for i, tenant in enumerate(assignment)
    ))
    traffic_s = time.monotonic() - t_start
    progress(
        f"{'chaos ' if proxies else ''}traffic done in {traffic_s:.1f}s "
        f"({sum(s.ok for s in stats.values())} frames decoded)"
    )
    for task in fault_tasks:
        task.cancel()
    await asyncio.gather(*fault_tasks, return_exceptions=True)
    # idle tail: give the autoscaler the calm it needs to scale down
    deadline = time.monotonic() + cfg.shrink_wait_s
    while scaler.count("down") == 0 and time.monotonic() < deadline:
        await asyncio.sleep(0.2)
    for proxy in proxies:
        await proxy.close()
    for gateway in gateways:
        await gateway.close(drain=True)
    client_stats = {
        key: sum(client.stats[key] for client in clients)
        for key in ("jobs", "requests_sent", "retries", "hedges",
                    "reconnects", "breaker_refusals", "dead_peers")
    }
    for client in clients:  # each connection's retries, to its tenant
        stats[client.tenant].retries += client.stats["retries"]
    return {
        "traffic_s": traffic_s,
        "crash": crash_info,
        "chaos": chaos_info,
        "clients": client_stats,
        "proxies": [proxy.injected() for proxy in proxies],
    }


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
    log = EventLog(path=log_path, recorder=recorder, min_level="debug")
    monitor = default_serve_slos(
        p99_latency_s=cfg.slo_p99_s,
        crash_rate=SLO_CRASH_RATE,
        error_rate=cfg.slo_error_rate,
    )
    service = DecodeService(
        code,
        batch_size=cfg.batch,
        max_iterations=cfg.iterations,
        fixed=cfg.fixed,
        queue_capacity=cfg.queue_capacity,
        recorder=recorder,
        log=log,
        slo=monitor,
    )
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
    # chaos replica gateways share the service (and so its registry) AND
    # the dedup window, so a hedge landing on replica 1 still joins
    # replica 0's in-flight decode
    dedup = DedupWindow()
    gateways = [
        DecodeGateway(
            service, admission,
            log=log, recorder=recorder, dedup=dedup,
            heartbeat_interval_s=cfg.heartbeat_s if cfg.chaos else None,
        )
        for _ in range(max(1, cfg.replicas) if cfg.chaos else 1)
    ]
    scaler = Autoscaler(
        service,
        min_shards=MIN_SHARDS,
        max_shards=cfg.max_shards,
        interval_s=AUTOSCALE_INTERVAL_S,
        cooldown_s=COOLDOWN_S,
        shrink_after=SHRINK_AFTER,
        scale_up_fill=SCALE_UP_FILL,
        scale_down_fill=SCALE_DOWN_FILL,
        log=log,
    )
    stats = {name: _TenantStats() for name in cfg.tenants}
    records: List[Tuple[np.ndarray, np.ndarray, bool]] = []
    latencies: List[float] = []
    slo_report = None
    try:
        drive_out = asyncio.run(
            _drive(
                cfg, service, gateways, scaler, encoder, code,
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
                build_status(gateways[0], autoscaler=scaler), handle,
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
    snap = service.metrics.snapshot()
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
                service.metrics.registry.get("net_crc_corrupt_total").total()
            ),
            "dedup": dedup.to_dict(),
            "clients": client_stats,
            "amplification": (
                client_stats["requests_sent"] / jobs if jobs else 0.0
            ),
        }
    return doc
