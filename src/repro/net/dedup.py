"""TTL'd idempotency window: a retried job never decodes twice.

The resilient client stamps every logical decode job with a
client-generated idempotency key and reuses it verbatim on retries
(reconnects, hedges, CRC-rejected results).  The gateway keeps one
:class:`DedupWindow` — keyed by ``(tenant, key)`` — holding, for each
recently seen key, either the finished result or a future for the
in-flight decode:

* a retry arriving *after* the original finished is answered from the
  cached result (``hits``), re-framed under the retry's own job id;
* a retry arriving *while* the original is still decoding waits on the
  same future (``joined``) — one decode, two result frames;
* failures are never cached: the future resolves to ``None`` and every
  waiter falls through to a fresh decode, because "retry after error"
  must actually retry.

Entries expire after ``ttl_s`` (lazily, on access) and the window is
capped at ``max_entries`` with oldest-first eviction, so an abusive or
buggy client cannot grow gateway memory without bound.  The window is
event-loop-confined — no locks — and can be *shared* across several
gateway replicas in one process (the soak harness does this so a hedge
that lands on the second replica still joins the first replica's
decode).
"""

from __future__ import annotations

import asyncio
import collections
import time
from typing import Any, Callable, Hashable, Optional, Tuple

__all__ = ["DedupWindow"]


class DedupWindow(object):
    """Recently-seen idempotency keys with TTL + size-capped eviction."""

    def __init__(
        self,
        ttl_s: float = 30.0,
        max_entries: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.ttl_s = ttl_s
        self.max_entries = max_entries
        self._clock = clock
        # key -> (expiry, value); insertion order doubles as age order
        # because entries are re-inserted on every put
        self._entries: "collections.OrderedDict[Hashable, Tuple[float, Any]]" = (
            collections.OrderedDict()
        )
        self.hits = 0
        self.joined = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _purge(self) -> None:
        now = self._clock()
        while self._entries:
            key, (expiry, _value) = next(iter(self._entries.items()))
            if expiry > now:
                break
            del self._entries[key]
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def lookup(self, key: Hashable) -> Optional[Any]:
        """The cached value or in-flight future for ``key``, else None.

        A future resolves to the finished value, or to None when the
        original attempt failed — the caller should then decode fresh.
        """
        self._purge()
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        value = entry[1]
        if isinstance(value, asyncio.Future):
            self.joined += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/replace ``key`` (restarts its TTL)."""
        self._entries.pop(key, None)
        self._entries[key] = (self._clock() + self.ttl_s, value)
        self._purge()

    def discard(self, key: Hashable) -> None:
        """Drop ``key`` if present (used when a decode fails)."""
        self._entries.pop(key, None)

    def to_dict(self) -> dict:
        """Counter snapshot for reports."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "joined": self.joined,
            "misses": self.misses,
        }
