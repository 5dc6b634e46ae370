"""Fetch payload cache — the reference's two-level TTL request cache
(``markdown_lab/core/cache.py:17-204``) re-expressed for the Ray engine.

Two concerns, split per SURVEY §2.1 S11:
- **URL-seen / dedup** lives in ``state/seen.py`` (cuckoo shards).
- **Payload cache** = (a) a per-worker-process in-memory LRU with byte cap
  and TTL (``CachedResolver`` below — the "memory level"), and (b) the
  per-round ``docs`` parquet checkpoints (the "disk level": a re-run's
  resume path skips completed rounds entirely, which is the reference's
  cache-as-resume behavior).

``CachedResolver`` wraps any ``resolve(url) -> (status, body)`` source;
eviction is oldest-timestamp-first once ``max_bytes`` is exceeded, and
entries older than ``ttl`` are re-fetched (reference ``cache.py:60-141``,
``:181-194``).  The clock is injectable so tests never sleep.

**Conditional revalidation (HTTP ETag / 304)**: pass ``full_fn``
(``resolve_full(url) -> (status, body, etag)``) and ``conditional_fn``
(``resolve_conditional(url, etag) -> (status, body, etag)``) and an
EXPIRED entry that carried an ETag revalidates instead of refetching:
a 304 answer refreshes the entry's TTL and serves the cached body (the
validator round-trip still touches the network, so callers must still
pace it — ``has_fresh`` stays False for expired entries).  Resolvers
without the optional methods behave exactly as before.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable


class CachedResolver:
    def __init__(self, resolve_fn: Callable, ttl: float = 3600.0,
                 max_bytes: int = 64 << 20,
                 clock: Callable[[], float] = time.monotonic,
                 full_fn: Callable | None = None,
                 conditional_fn: Callable | None = None):
        self.resolve_fn = resolve_fn
        self.full_fn = full_fn
        self.conditional_fn = conditional_fn
        self.ttl = ttl
        self.max_bytes = max_bytes
        self.clock = clock
        # url -> (ts, status, body, etag); insertion = age order
        self._entries: OrderedDict[
            str, tuple[float, int, object, str | None]] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.revalidated = 0

    def _size_of(self, body) -> int:
        return len(body) if isinstance(body, (str, bytes)) else 64

    def _store(self, url: str, now: float, status: int, body,
               etag: str | None):
        size = self._size_of(body)
        # only cache successes: a transient failure must be refetchable
        # immediately, not replayed for a whole TTL window
        if status == 200 and size <= self.max_bytes:
            self._entries[url] = (now, status, body, etag)
            self._bytes += size
            while self._bytes > self.max_bytes and self._entries:
                _, (_, _, old_body, _) = self._entries.popitem(last=False)
                self._bytes -= self._size_of(old_body)

    def resolve(self, url: str):
        now = self.clock()
        entry = self._entries.get(url)
        if entry is not None:
            ts, status, body, etag = entry
            if now - ts <= self.ttl:
                self.hits += 1
                return status, body
            # expired — drop; try a conditional revalidation before
            # falling back to a full refetch
            del self._entries[url]
            self._bytes -= self._size_of(body)
            if self.conditional_fn is not None and etag is not None:
                c_status, c_body, c_etag = self.conditional_fn(url, etag)
                if c_status == 304:
                    # unchanged: the validator round-trip refreshed the
                    # entry; serve the cached payload
                    self.revalidated += 1
                    self._store(url, now, status, body, etag)
                    return status, body
                if c_status != 0:
                    # a real HTTP answer (200 fresh body, 404 gone,
                    # 5xx after the resolver's own retries) — return it
                    self.misses += 1
                    self._store(url, now, c_status, c_body, c_etag)
                    return c_status, c_body
                # connection-level blip (status 0) during revalidation:
                # don't degrade it into a hard miss — fall through to
                # the full retry-backed refetch path
        self.misses += 1
        if self.full_fn is not None:
            status, body, etag = self.full_fn(url)
        else:
            status, body = self.resolve_fn(url)
            etag = None
        self._store(url, now, status, body, etag)
        return status, body

    def has_fresh(self, url: str) -> bool:
        """True iff resolve(url) would be served from cache (no network
        side effects) — lets callers skip politeness pacing on hits."""
        entry = self._entries.get(url)
        return entry is not None and self.clock() - entry[0] <= self.ttl

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {"entries": len(self._entries), "bytes": self._bytes,
                "hits": self.hits, "misses": self.misses,
                "revalidated": self.revalidated,
                "hit_rate": round(self.hit_rate, 4)}
