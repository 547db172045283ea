"""Per-tenant gateway metrics, published into the shared registry.

:class:`NetMetrics` is the :class:`~repro.serve.metrics.ServeMetrics`
counterpart for the network layer: a thin facade of ``net_*``
instruments over a :class:`~repro.obs.metrics.MetricsRegistry`.  Hand
it the *same* registry the decode service publishes into and one
snapshot/SLO evaluation covers the whole path — wire to queue to
kernel; the autoscaler and ``repro obs-report`` then see gateway and
engine pressure side by side.

Everything request-scoped is labelled by tenant (and rejections by
reason, errors by exception kind), so a noisy neighbour is visible as
*that tenant's* series, not a blur in a global total.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["NetMetrics"]

#: Request latency buckets: wire round-trips sit above kernel latency.
_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class NetMetrics(object):
    """Thread-safe gateway instruments (``net_*`` namespace)."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._connections = reg.gauge(
            "net_connections", "currently open client connections")
        self._connections_total = reg.counter(
            "net_connections_total", "client connections ever accepted")
        self._requests = reg.counter(
            "net_requests_total", "decode requests received",
            label_names=("tenant",))
        self._rejected = reg.counter(
            "net_rejected_total", "requests refused before decode",
            label_names=("tenant", "reason"))
        self._results = reg.counter(
            "net_results_total", "result frames returned",
            label_names=("tenant",))
        self._errors = reg.counter(
            "net_errors_total", "error frames returned",
            label_names=("tenant", "kind"))
        self._shed = reg.counter(
            "net_shed_total", "requests admitted with a reduced budget",
            label_names=("tenant",))
        self._latency = reg.histogram(
            "net_request_latency_seconds",
            "request receipt to result frame write",
            label_names=("tenant",), buckets=_LATENCY_BUCKETS)
        self._phases = reg.histogram(
            "net_request_seconds",
            "per-request RED latency split by gateway phase "
            "(total/admission/queue_wait/decode/respond)",
            label_names=("tenant", "code_id", "phase"),
            buckets=_LATENCY_BUCKETS)
        self._bytes_in = reg.counter(
            "net_bytes_in_total", "payload bytes received")
        self._bytes_out = reg.counter(
            "net_bytes_out_total", "payload bytes sent")
        self._autoscale = reg.counter(
            "net_autoscale_total", "autoscaler scaling actions",
            label_names=("direction",))
        self._hello = reg.counter(
            "net_hello_total", "HELLO version checks answered",
            label_names=("version",))
        self._crc_corrupt = reg.counter(
            "net_crc_corrupt_total",
            "frames rejected by the CRC-32 integrity check")
        self._dedup_hits = reg.counter(
            "net_dedup_hits_total",
            "requests answered from the idempotency window",
            label_names=("outcome",))
        self._dead_peers = reg.counter(
            "net_dead_peer_total",
            "connections closed by heartbeat dead-peer detection")

    # ------------------------------------------------------------------
    # recording hooks
    # ------------------------------------------------------------------
    def conn_opened(self) -> None:
        """A client connection was accepted."""
        self._connections.inc()
        self._connections_total.inc()

    def conn_closed(self) -> None:
        """A client connection finished (cleanly or not)."""
        self._connections.dec()

    def request(self, tenant: str) -> None:
        """A request frame arrived for ``tenant``."""
        self._requests.inc(tenant=tenant)

    def rejected(self, tenant: str, reason: str) -> None:
        """A request was refused (``quota``/``backpressure``/``drain``...)."""
        self._rejected.inc(tenant=tenant, reason=reason)

    def result(self, tenant: str, latency_s: float) -> None:
        """A result frame went back to ``tenant`` after ``latency_s``."""
        self._results.inc(tenant=tenant)
        self._latency.observe(latency_s, tenant=tenant)

    def error(self, tenant: str, kind: str) -> None:
        """An error frame went back to ``tenant``."""
        self._errors.inc(tenant=tenant, kind=kind)

    def phase(
        self, tenant: str, code_id: str, phase: str, seconds: float
    ) -> None:
        """One waterfall segment of a request (RED duration metric).

        ``phase="total"`` is observed for every request (successes,
        rejections, errors alike); the split phases (``admission`` /
        ``queue_wait`` / ``decode`` / ``respond``) only for requests
        that actually decoded, so per-phase p99s are not diluted by
        fail-fast rejections.
        """
        self._phases.observe(
            seconds, tenant=tenant, code_id=code_id, phase=phase
        )

    def shed(self, tenant: str) -> None:
        """A request was admitted with a reduced iteration budget."""
        self._shed.inc(tenant=tenant)

    def bytes_in(self, count: int) -> None:
        """``count`` frame bytes read off the wire."""
        self._bytes_in.inc(count)

    def bytes_out(self, count: int) -> None:
        """``count`` frame bytes written to the wire."""
        self._bytes_out.inc(count)

    def autoscaled(self, direction: str) -> None:
        """The autoscaler acted (direction ``"up"``/``"down"``/``"replace"``)."""
        self._autoscale.inc(direction=direction)

    def hello(self, version: int) -> None:
        """A HELLO version check passed at protocol ``version``."""
        self._hello.inc(version=str(version))

    def crc_corrupt(self) -> None:
        """A frame failed its CRC-32 check and was dropped."""
        self._crc_corrupt.inc()

    def dedup_hit(self, outcome: str) -> None:
        """A request joined the idempotency window (``cached``/``joined``)."""
        self._dedup_hits.inc(outcome=outcome)

    def dead_peer(self) -> None:
        """A connection was closed after missing its heartbeat budget."""
        self._dead_peers.inc()

    # ------------------------------------------------------------------
    # queries (tests / reports)
    # ------------------------------------------------------------------
    def requests(self, tenant: str) -> int:
        """Requests received from ``tenant``."""
        return int(self._requests.value(tenant=tenant))

    def results(self, tenant: str) -> int:
        """Results returned to ``tenant``."""
        return int(self._results.value(tenant=tenant))

    def rejections(self, tenant: str, reason: str) -> int:
        """Rejections of ``tenant`` for ``reason``."""
        return int(self._rejected.value(tenant=tenant, reason=reason))
