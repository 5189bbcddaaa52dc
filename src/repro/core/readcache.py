"""Read cache for the access-facing services.

The CDF data-processing model (PAPERS.md) carries a collider's analysis
load on read-side caching; this module is that layer for WebLab retro
browsing and subset extraction and EventStore grade/file resolution.
A :class:`ReadCache` is a TinyLFU-admitted
:class:`~repro.core.cachestore.TieredCache` plus what only reads need:

* a **negative cache** — a loader returning ``None`` ("no capture at or
  before that date", "no file for that run/version/kind") is remembered
  too, so repeated misses for absent objects never re-run the query;
* **request-coalescing** — concurrent loads of the same key collapse to
  one loader call, with the other threads waiting on the winner;
* **telemetry** — ``readcache.hit|miss|admit|evict`` events when a bus is
  attached, so a replayed trace's cache behaviour is part of the
  canonical log.  Counters (``readcache.*``) live on the cache's own
  registry either way.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional

from repro.core.cachestore import DiskCacheStore, TieredCache
from repro.core.telemetry import MetricsRegistry, Telemetry


#: Marker stored for cached absence (distinct from any real value).
_NEGATIVE = object()


@dataclass
class ReadCacheStats:
    """Snapshot of a cache's counters (a registry view, like HsmStats)."""

    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    admitted: int = 0
    admission_rejected: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    coalesced: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.negative_hits + self.misses
        return (self.hits + self.negative_hits) / total if total else 0.0

    @classmethod
    def from_registry(cls, metrics: MetricsRegistry) -> "ReadCacheStats":
        return cls(
            **{f.name: int(metrics.value(f"readcache.{f.name}")) for f in fields(cls)}
        )


class ReadCache:
    """LRU + frequency admission + negative caching + optional disk tier.

    ``capacity`` bounds the memory entries.  ``name`` is the event name on
    the telemetry bus, so one bus can carry several caches apart.
    ``admission=False`` is plain LRU — C21 compares both, after the CDF
    model's observation that admission keeps scans from flushing the hot
    set.  ``disk`` is an optional shared :class:`DiskCacheStore`; only
    loads that pass a ``content_key`` use it (content-addressed entries
    are immutable, so sharing across processes needs no invalidation).
    ``telemetry``, when given, receives the ``readcache.*`` events.
    """

    def __init__(
        self,
        capacity: int = 1024,
        name: str = "readcache",
        admission: bool = True,
        disk: Optional[DiskCacheStore] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.capacity = capacity
        self.name = name
        self.admission = admission
        self.metrics = MetricsRegistry()
        self._telemetry = telemetry
        self.tier = TieredCache(
            self.metrics,
            "readcache.",
            capacity=capacity,
            admission=admission,
            disk=disk,
            on_event=lambda kind, key: self._emit(f"readcache.{kind}", key),
        )
        self._counters = self.tier.counters
        self._inflight: Dict[str, threading.Event] = {}

    # -- introspection -----------------------------------------------------
    @property
    def stats(self) -> ReadCacheStats:
        return ReadCacheStats.from_registry(self.metrics)

    @property
    def disk(self) -> Optional[DiskCacheStore]:
        return self.tier.disk

    def __len__(self) -> int:
        return len(self.tier)

    def __contains__(self, key: str) -> bool:
        return key in self.tier

    def keys(self) -> List[str]:
        """Cached keys, LRU-first (the next victim leads)."""
        return self.tier.keys()

    def _emit(self, kind: str, key: str, **attrs: object) -> None:
        if self._telemetry is not None:
            self._telemetry.emit(kind, self.name, key=key, **attrs)

    # -- the API -----------------------------------------------------------
    def get_or_load(
        self,
        key: str,
        loader: Callable[[], object],
        content_key: Optional[str] = None,
    ) -> object:
        """The value for ``key``, loading (once) on a miss.

        ``loader`` returning ``None`` is a *negative* result: it is
        cached like any other entry and served back as ``None``.
        ``content_key`` opts this entry into the disk tier (pass the
        content address; the entry must be immutable under that key).
        """
        counters = self._counters
        while True:
            wait_for: Optional[threading.Event] = None
            with self.tier.lock:
                value = self.tier.get(key)
                if value is _NEGATIVE:
                    counters.negative_hits.inc()
                    self._emit("readcache.hit", key, negative=True)
                    return None
                if value is not None:
                    counters.hits.inc()
                    self._emit("readcache.hit", key)
                    return value
                holder = self._inflight.get(key)
                if holder is None:
                    self._inflight[key] = threading.Event()
                else:
                    wait_for = holder
            if wait_for is not None:
                # Coalesce: another thread is loading this key right now.
                counters.coalesced.inc()
                wait_for.wait()
                continue  # re-check the cache (the winner usually filled it)
            try:
                value = self._load(key, loader, content_key)
            finally:
                with self.tier.lock:
                    self._inflight.pop(key).set()
            return value

    def _load(
        self,
        key: str,
        loader: Callable[[], object],
        content_key: Optional[str],
    ) -> object:
        """Miss path: disk tier first, then the loader; then admission."""
        self._counters.misses.inc()
        self._emit("readcache.miss", key)
        if content_key is not None:
            value = self.tier.get(key, disk_key=content_key)
            if value is not None:
                return value
        value = loader()
        if value is None:
            self.tier.put(key, _NEGATIVE)
        else:
            self.tier.put(key, value, disk_key=content_key)
        return value

    def peek(self, key: str) -> object:
        """The cached value (or None), without counters, LRU, or loading."""
        value = self.tier.peek(key)
        return None if value is _NEGATIVE else value

    # -- invalidation ------------------------------------------------------
    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it was cached."""
        return self.tier.invalidate(key)

    def invalidate_prefix(self, prefix: str) -> int:
        """Drop every entry whose key starts with ``prefix``."""
        return self.tier.invalidate_prefix(prefix)

    def clear(self) -> int:
        """Drop everything (memory tier only; the disk tier is shared)."""
        return self.tier.clear()

    def __repr__(self) -> str:
        return (
            f"ReadCache({self.name!r}, capacity={self.capacity}, "
            f"entries={len(self)}, admission={self.admission}, "
            f"disk={'yes' if self.disk is not None else 'no'})"
        )


__all__ = ["ReadCache", "ReadCacheStats"]
