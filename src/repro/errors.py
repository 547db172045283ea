"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class CodeConstructionError(ReproError):
    """A parity-check matrix could not be built or failed validation."""


class EncodingError(ReproError):
    """Encoding failed (e.g. a non-encodable parity structure)."""


class DecodingError(ReproError):
    """Decoder misuse (bad shapes, invalid parameters)."""


class TransientDecodeError(DecodingError):
    """A decode failed for a transient cause (e.g. an injected fault or a
    corrupted engine state) and may succeed if retried on fresh state."""


class RegistryError(ReproError):
    """Code-registry misuse (bad registration, malformed entry)."""


class MalformedCodeIdError(RegistryError):
    """A registry id violates the wire-safe grammar (lowercase alnum
    plus ``._-``, must start alphanumeric, at most 64 chars) — such an
    id could not travel the net protocol's ``code_id`` field safely."""


class DuplicateCodeError(RegistryError):
    """A code was registered under an id the registry already holds."""


class FaultConfigError(ReproError):
    """Fault-injection misuse (unknown site, bad rate, bad bit index)."""


class HlsError(ReproError):
    """High-level-synthesis front-end or scheduling failure."""


class ScheduleError(HlsError):
    """No feasible schedule under the given resource/latency constraints."""


class ArchitectureError(ReproError):
    """Architectural simulation failure (hazard violation, bad config)."""


class ModelError(ReproError):
    """Technology / area / power model misuse."""


class ServeError(ReproError):
    """Base class for batched decode runtime (``repro.serve``) failures."""


class EngineFullError(ServeError):
    """A frame was admitted to a continuous-batching engine with no free slot."""


class QueueFullError(ServeError):
    """A bounded service queue rejected a frame (overload backpressure)."""


class ServeTimeoutError(ServeError):
    """A submit or result wait exceeded its deadline."""


class ServiceClosedError(ServeError):
    """A frame was submitted to a service that is shutting down or closed."""


class UnknownCodeError(ServeError):
    """A code id / code key names no registered code: raised by registry
    lookups and by :meth:`DecodeService.submit` routing, and carried
    across the wire as its own ERROR frame kind so remote clients see
    the same typed error a local caller would."""


class ShardDeadError(ServeError):
    """A frame was submitted to a shard whose worker has died (crashed out
    of its restart budget, or its thread is gone); nothing will drain it."""


class DeadlineExceededError(ServeTimeoutError):
    """A job's deadline expired while it was still waiting in a queue."""


class NetProtocolError(ServeError):
    """A network frame violated the gateway protocol (bad magic, bad
    version, truncated or oversized payload, malformed body)."""


class FrameCorruptionError(NetProtocolError):
    """A network frame failed its CRC-32 integrity check: the bytes
    on the wire are not the bytes the peer sent.  The frame is dropped
    before any of its contents are trusted — corruption is detected,
    never decoded."""


class ClientClosedError(ServeError):
    """A blocking client call was made after :meth:`DecodeClient.close`
    or after the client's private event-loop thread died; the call fails
    fast instead of hanging on a loop that will never answer."""


class CircuitOpenError(ServeError):
    """A request was refused locally because the endpoint's circuit
    breaker is open (too many consecutive failures); no bytes were sent.
    The breaker half-opens after its reset timeout and probes."""


class QuotaExceededError(ServeError):
    """A tenant exceeded its admission quota (token bucket empty or the
    tenant is unknown to the gateway); the request was refused before it
    reached a decode queue."""


class RemoteDecodeError(ServeError):
    """A gateway returned an error frame whose kind has no local typed
    equivalent; carries the remote exception name and message."""

    def __init__(self, kind: str = "", message: str = "") -> None:
        super().__init__(f"{kind}: {message}" if kind else message)
        self.kind = kind
        self.message = message


class GatewayClosedError(ServeError):
    """A request was sent to a gateway that is draining or closed, or
    the connection dropped before a result frame arrived."""
