"""Live ops console for a running gateway: ``repro top`` + its endpoint.

Two halves:

* :class:`ObsEndpoint` — a tiny asyncio TCP server a gateway process
  attaches next to its serving port (``repro net-serve --obs-port``).
  Each connection receives one JSON status document and is closed:
  no framing, no protocol negotiation, ``curl``-able with netcat.  The
  document bundles everything the observability layer already knows —
  the shared :class:`~repro.obs.metrics.MetricsRegistry` snapshot, a
  Prometheus text rendition, per-tenant RED rollups computed from the
  exact ``net_*``/``serve_*`` counters, shard health, dedup-window and
  autoscaler state, and a fresh gateway-SLO evaluation.
* :func:`run_top` — the client: fetch, render, repeat.  An ANSI
  alternate-screen live view by default; ``--once`` prints a single
  frame (``--json`` the raw document) so tests and scripts get the
  same numbers the human sees.

The RED rollups are *derived server-side from the counters at snapshot
time*, never re-aggregated client-side, so ``repro top --once --json``
agrees with ``repro obs-report`` and the Prometheus scrape to the last
increment.
"""

from __future__ import annotations

import json
import socket
import sys
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.obs.slo import default_gateway_slos
from repro.utils.tables import render_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

    from repro.net.autoscaler import Autoscaler
    from repro.net.gateway import DecodeGateway

__all__ = [
    "ObsEndpoint",
    "build_status",
    "fetch_status",
    "render_top",
    "run_top",
]

#: JSON document schema version (bump on breaking shape changes).
STATUS_SCHEMA = 1

_MAX_STATUS_BYTES = 8 * 1024 * 1024


def _tenants(registry_dict: Dict[str, Any]) -> List[str]:
    """Every tenant with at least one request counted."""
    inst = registry_dict.get("net_requests_total") or {}
    out = set()
    for series in inst.get("series", ()):
        tenant = series.get("labels", {}).get("tenant")
        if tenant is not None:
            out.add(tenant)
    return sorted(out)


def _counter_by(
    registry_dict: Dict[str, Any], metric: str, label: str
) -> Dict[str, float]:
    """``{label_value: summed_value}`` for one counter's series."""
    inst = registry_dict.get(metric) or {}
    out: Dict[str, float] = {}
    for series in inst.get("series", ()):
        key = series.get("labels", {}).get(label)
        if key is None:
            continue
        out[key] = out.get(key, 0.0) + float(series.get("value", 0.0))
    return out


def build_status(
    gateway: "DecodeGateway",
    autoscaler: "Optional[Autoscaler]" = None,
    slo_p99_latency_s: float = 1.0,
) -> Dict[str, Any]:
    """One JSON-ready status document for a live gateway.

    Reads the gateway's registry — its service's, so ``serve_*``
    series ride along with ``net_*`` — then layers the derived views on
    top.  Cheap enough to call per connection.
    """
    registry = gateway.metrics.registry
    reg_dict = registry.to_dict()
    tenants = _tenants(reg_dict)

    latency = registry.get("net_request_latency_seconds")
    phases = registry.get("net_request_seconds")
    requests = _counter_by(reg_dict, "net_requests_total", "tenant")
    results = _counter_by(reg_dict, "net_results_total", "tenant")
    errors = _counter_by(reg_dict, "net_errors_total", "tenant")
    rejected = _counter_by(reg_dict, "net_rejected_total", "tenant")
    shed = _counter_by(reg_dict, "net_shed_total", "tenant")

    tenant_rows: Dict[str, Dict[str, Any]] = {}
    for tenant in tenants:
        row: Dict[str, Any] = {
            "requests": int(requests.get(tenant, 0)),
            "results": int(results.get(tenant, 0)),
            "errors": int(errors.get(tenant, 0)),
            "rejected": int(rejected.get(tenant, 0)),
            "shed": int(shed.get(tenant, 0)),
        }
        if latency is not None and latency.count(tenant=tenant):
            row["p50_s"] = latency.percentile(50.0, tenant=tenant)
            row["p99_s"] = latency.percentile(99.0, tenant=tenant)
        tenant_rows[tenant] = row

    # per-(tenant, code) request counts from the phase histogram's
    # "total" series — the only labelled view that splits by code
    codes: Dict[str, Dict[str, Any]] = {}
    if phases is not None:
        for key, state in phases.series():
            labels = dict(zip(phases.label_names, key))
            if labels.get("phase") != "total":
                continue
            code = labels.get("code_id", "default")
            entry = codes.setdefault(
                code, {"requests": 0, "tenants": set()}
            )
            entry["requests"] += state.count
            entry["tenants"].add(labels.get("tenant", ""))
        for entry in codes.values():
            entry["tenants"] = sorted(entry["tenants"])

    health = gateway.service.health()
    shards = {
        key: {
            "alive": sh.alive,
            "healthy": sh.healthy,
            "queue_depth": sh.queue_depth,
            "queue_capacity": sh.queue_capacity,
            "fill": round(sh.fill, 4),
            "in_flight": sh.in_flight,
            "restarts": sh.restarts,
            "strikes": sh.strikes,
            "group": sh.group,
        }
        for key, sh in health.shards.items()
    }

    slo_report = default_gateway_slos(
        p99_latency_s=slo_p99_latency_s, tenants=tenants
    ).evaluate(registry)

    status: Dict[str, Any] = {
        "schema_version": STATUS_SCHEMA,
        "ts": time.time(),
        "gateway": {
            "address": list(gateway.address),
            "closed": gateway.closed,
            "draining": gateway.draining,
        },
        "service": {"status": health.status, "closed": health.closed},
        "tenants": tenant_rows,
        "codes": codes,
        "shards": shards,
        "dedup": gateway.dedup.to_dict(),
        "autoscaler": autoscaler.to_dict() if autoscaler else None,
        "slo": slo_report.to_dict(),
        "metrics": reg_dict,
        "prometheus": registry.render_prometheus(),
    }
    if health.slo is not None:
        status["service"]["slo"] = health.slo.to_dict()
    return status


class ObsEndpoint(object):
    """One-shot JSON status server riding next to a gateway.

    Serves :func:`build_status` to every connection and closes it —
    the transport equivalent of a ``/statusz`` page.  Lifecycle mirrors
    :class:`~repro.net.gateway.DecodeGateway` (``start``/``close`` or
    ``async with``); binds ``port=0`` by default so tests read the
    OS-assigned port back from :attr:`address`.
    """

    def __init__(
        self,
        gateway: "DecodeGateway",
        host: str = "127.0.0.1",
        port: int = 0,
        autoscaler: "Optional[Autoscaler]" = None,
    ) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port
        self.autoscaler = autoscaler
        self._server: "Optional[asyncio.base_events.Server]" = None

    @property
    def address(self) -> tuple:
        """``(host, port)`` actually bound (valid after :meth:`start`)."""
        if self._server is None:
            raise ReproError("ObsEndpoint is not started")
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    async def start(self) -> "ObsEndpoint":
        import asyncio

        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "ObsEndpoint":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def _handle(self, reader, writer) -> None:
        try:
            doc = build_status(self.gateway, autoscaler=self.autoscaler)
            writer.write(json.dumps(doc, sort_keys=True).encode("utf-8"))
            writer.write(b"\n")
            await writer.drain()
        except Exception:
            pass  # a half-closed scrape must never hurt the gateway
        finally:
            try:
                writer.close()
            except Exception:
                pass


def fetch_status(
    host: str, port: int, timeout: float = 5.0
) -> Dict[str, Any]:
    """Blocking fetch of one status document from an :class:`ObsEndpoint`."""
    chunks: List[bytes] = []
    total = 0
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            total += len(chunk)
            if total > _MAX_STATUS_BYTES:
                raise ReproError(
                    f"status document exceeds {_MAX_STATUS_BYTES} bytes"
                )
            chunks.append(chunk)
    raw = b"".join(chunks)
    if not raw.strip():
        raise ReproError(f"empty status from {host}:{port}")
    return json.loads(raw.decode("utf-8"))


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_ms(value: Any) -> str:
    if value is None:
        return "-"
    return f"{float(value) * 1e3:.2f}ms"


def render_top(status: Dict[str, Any]) -> str:
    """One status document as the console's text frame (no ANSI)."""
    parts: List[str] = []
    stamp = time.strftime(
        "%Y-%m-%dT%H:%M:%S", time.localtime(status.get("ts", 0.0))
    )
    gw = status.get("gateway") or {}
    svc = status.get("service") or {}
    addr = gw.get("address")
    head = (
        f"repro top — gateway "
        f"{addr[0]}:{addr[1]}" if addr else "repro top — gateway (unbound)"
    )
    parts.append(
        f"{head}  service={svc.get('status', '?')}  {stamp}"
    )

    tenants = status.get("tenants") or {}
    if tenants:
        rows = []
        for tenant in sorted(tenants):
            row = tenants[tenant]
            rows.append([
                tenant,
                row.get("requests", 0),
                row.get("results", 0),
                row.get("errors", 0),
                row.get("rejected", 0),
                row.get("shed", 0),
                _fmt_ms(row.get("p50_s")),
                _fmt_ms(row.get("p99_s")),
            ])
        parts.append(render_table(
            ["tenant", "req", "ok", "err", "rej", "shed", "p50", "p99"],
            rows, title="tenants (RED)",
        ))

    codes = status.get("codes") or {}
    if codes:
        rows = [
            [code, codes[code].get("requests", 0),
             ",".join(codes[code].get("tenants", ()))]
            for code in sorted(codes)
        ]
        parts.append(render_table(
            ["code", "req", "tenants"], rows, title="codes",
        ))

    shards = status.get("shards") or {}
    if shards:
        rows = []
        for key in sorted(shards):
            sh = shards[key]
            state = "ok" if sh.get("healthy") else "DOWN"
            rows.append([
                key, state,
                f"{sh.get('queue_depth', 0)}/{sh.get('queue_capacity', 0)}",
                f"{100.0 * sh.get('fill', 0.0):.0f}%",
                sh.get("in_flight", 0),
                sh.get("restarts", 0),
                sh.get("strikes", 0),
            ])
        parts.append(render_table(
            ["shard", "state", "queue", "fill", "busy", "restarts",
             "strikes"],
            rows, title="shards",
        ))

    dedup = status.get("dedup")
    auto = status.get("autoscaler")
    line: List[str] = []
    if dedup:
        line.append(
            "dedup: entries={entries} hits={hits} joined={joined} "
            "misses={misses}".format(
                entries=dedup.get("entries", dedup.get("size", 0)),
                hits=dedup.get("hits", 0),
                joined=dedup.get("joined", 0),
                misses=dedup.get("misses", 0),
            )
        )
    if auto:
        counts = auto.get("counts") or {}
        line.append(
            f"autoscaler[{auto.get('group', '?')}]: "
            f"replicas={auto.get('replicas', '?')} "
            f"up={counts.get('up', 0)} down={counts.get('down', 0)} "
            f"replace={counts.get('replace', 0)}"
        )
    if line:
        parts.append("  ".join(line))

    slo = status.get("slo") or {}
    verdicts = slo.get("verdicts") or ()
    if verdicts:
        rows = [
            [v.get("name") or v.get("metric", "?"),
             ("%.6g" % v["observed"]) if v.get("observed") is not None
             else "-",
             f"{v.get('op', '?')} {v.get('threshold', '?')}",
             str(v.get("status", "?")).upper()]
            for v in verdicts
        ]
        parts.append(render_table(
            ["objective", "observed", "target", "status"], rows,
            title=f"gateway SLOs — {slo.get('status', '?')}",
        ))

    return "\n\n".join(parts)


def run_top(
    host: str,
    port: int,
    interval_s: float = 1.0,
    once: bool = False,
    as_json: bool = False,
    iterations: Optional[int] = None,
    out: Callable[[str], None] = None,
) -> Dict[str, Any]:
    """The ``repro top`` loop; returns the last status document.

    ``once`` fetches and prints a single frame; otherwise the terminal
    is switched to the ANSI alternate screen and redrawn every
    ``interval_s`` seconds until Ctrl-C (or ``iterations`` frames, for
    tests).  ``as_json`` prints the raw document instead of the
    rendered tables — the scriptable twin of the human view.
    """
    if out is None:
        out = lambda text: print(text)  # noqa: E731
    if once:
        status = fetch_status(host, port)
        out(json.dumps(status, indent=2, sort_keys=True) if as_json
            else render_top(status))
        return status

    status: Dict[str, Any] = {}
    use_ansi = sys.stdout.isatty()
    if use_ansi:
        sys.stdout.write("\x1b[?1049h")  # alternate screen
    try:
        frame = 0
        while True:
            status = fetch_status(host, port)
            body = (
                json.dumps(status, indent=2, sort_keys=True)
                if as_json else render_top(status)
            )
            if use_ansi:
                sys.stdout.write("\x1b[2J\x1b[H")
                sys.stdout.write(body + "\n")
                sys.stdout.flush()
            else:
                out(body)
            frame += 1
            if iterations is not None and frame >= iterations:
                return status
            time.sleep(interval_s)
    except KeyboardInterrupt:
        return status
    finally:
        if use_ansi:
            sys.stdout.write("\x1b[?1049l")
            sys.stdout.flush()
