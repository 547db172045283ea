"""Per-tenant gateway metrics, published into the service's registry.

:class:`NetMetrics` declares the network layer's ``net_*`` instruments
over a :class:`~repro.obs.metrics.MetricsRegistry`.  The gateway and
the autoscaler declare them over their decode service's registry, so
one snapshot/SLO evaluation covers the whole path — wire to queue to
kernel — and ``repro top`` / ``repro obs-report`` see gateway and
engine pressure side by side.

Everything request-scoped is labelled by tenant (and rejections by
reason, errors by exception kind), so a noisy neighbour is visible as
*that tenant's* series, not a blur in a global total.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

__all__ = ["NetMetrics"]

#: Request latency buckets: wire round-trips sit above kernel latency.
_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class NetMetrics(object):
    """The ``net_*`` instruments, declared once over ``registry``.

    Each instrument is a public attribute; the gateway and autoscaler
    record into them directly (``metrics.requests.inc(tenant=...)``).
    The registry hands back an already-registered instrument by name,
    so any number of gateways (and the autoscaler) building a
    ``NetMetrics`` over one service's registry share every series.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = reg = registry
        self.connections = reg.gauge(
            "net_connections", "currently open client connections")
        self.connections_total = reg.counter(
            "net_connections_total", "client connections ever accepted")
        self.requests = reg.counter(
            "net_requests_total", "decode requests received",
            label_names=("tenant",))
        self.rejected = reg.counter(
            "net_rejected_total", "requests refused before decode",
            label_names=("tenant", "reason"))
        self.results = reg.counter(
            "net_results_total", "result frames returned",
            label_names=("tenant",))
        self.errors = reg.counter(
            "net_errors_total", "error frames returned",
            label_names=("tenant", "kind"))
        self.shed = reg.counter(
            "net_shed_total", "requests admitted with a reduced budget",
            label_names=("tenant",))
        self.latency = reg.histogram(
            "net_request_latency_seconds",
            "request receipt to result frame write",
            label_names=("tenant",), buckets=_LATENCY_BUCKETS)
        self.phases = reg.histogram(
            "net_request_seconds",
            "per-request RED latency split by gateway phase "
            "(total/admission/queue_wait/decode/respond)",
            label_names=("tenant", "code_id", "phase"),
            buckets=_LATENCY_BUCKETS)
        self.bytes_in = reg.counter(
            "net_bytes_in_total", "payload bytes received")
        self.bytes_out = reg.counter(
            "net_bytes_out_total", "payload bytes sent")
        self.autoscale = reg.counter(
            "net_autoscale_total", "autoscaler scaling actions",
            label_names=("direction",))
        self.hello = reg.counter(
            "net_hello_total", "HELLO version checks answered",
            label_names=("version",))
        self.crc_corrupt = reg.counter(
            "net_crc_corrupt_total",
            "frames rejected by the CRC-32 integrity check")
        self.dedup_hits = reg.counter(
            "net_dedup_hits_total",
            "requests answered from the idempotency window",
            label_names=("outcome",))
        self.dead_peers = reg.counter(
            "net_dead_peer_total",
            "connections closed by heartbeat dead-peer detection")
