"""The cache primitive: a memory LRU over a content-addressed disk store.

The paper's farm model keeps one *central store* that every worker reads
from and writes back to; the Pipeline-Centric Provenance Model (PAPERS.md)
supplies the key.  :class:`DiskCacheStore` is that store: pickled entries
at ``root/<key[:2]>/<key>.pkl``, shared by every worker process and every
run pointed at one root.  Writes are atomic (temp file + ``os.replace``),
reads are lock-free (a missing, torn, or unpicklable file is a miss that
only costs a recompute), and racing writers of one content key write
equivalent payloads.  Reads touch the file's mtime; a write-triggered
:meth:`DiskCacheStore.gc` evicts oldest-first past the store's bounds.

:class:`TieredCache` is the one memory LRU of the core — the stage cache
and the read cache are thin layers over it — with optional TinyLFU
admission and read-through/write-through to a disk store.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.errors import CacheError
from repro.core.telemetry import Counter, MetricsRegistry

_SUFFIX = ".pkl"


class DiskCacheStore:
    """A shared, size-bounded, content-addressed entry store on disk.

    Parameters
    ----------
    root:
        Directory the store lives in (created on first use).
    max_bytes / max_entries:
        GC bounds; ``None`` leaves that dimension unbounded.  Bounds are
        enforced by :meth:`gc`, which runs after every write.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ):
        if max_bytes is not None and max_bytes < 1:
            raise CacheError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_entries is not None and max_entries < 1:
            raise CacheError(f"max_entries must be >= 1, got {max_entries}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.root.mkdir(parents=True, exist_ok=True)

    # -- addressing --------------------------------------------------------
    def path_for(self, key: str) -> Path:
        if not key or any(ch in key for ch in "/\\."):
            raise CacheError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}{_SUFFIX}"

    def _entries_on_disk(self) -> List[Tuple[Path, int, int]]:
        """``(path, mtime_ns, size)`` for every entry file, stat-race safe."""
        found: List[Tuple[Path, int, int]] = []
        for path in self.root.glob(f"*/*{_SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:
                continue  # GC'd or replaced underneath us: fine
            found.append((path, stat.st_mtime_ns, stat.st_size))
        return found

    # -- the store API -----------------------------------------------------
    def read(self, key: str) -> Optional[object]:
        """The entry for ``key``, or ``None``.

        Lock-free: a vanished, truncated, or unpicklable file reads as a
        miss.  A successful read touches the file's mtime so GC sees it
        as recently used.
        """
        path = self.path_for(key)
        try:
            with path.open("rb") as handle:
                entry = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 - torn/corrupt entry == miss
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # GC won the race; the value we read is still good
        return entry

    def write(self, key: str, entry: object) -> bool:
        """Atomically persist ``entry`` under ``key``; then enforce bounds.

        Returns ``False`` (and stores nothing) when the entry does not
        pickle — an unpicklable stash degrades that stage to
        memory-only caching rather than failing the run.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            blob = pickle.dumps(entry)
        except Exception:  # noqa: BLE001 - graceful: skip, don't fail the run
            return False
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.gc()
        return True

    def delete(self, key: str) -> bool:
        """Drop one entry; returns whether a file was removed."""
        try:
            self.path_for(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def keys(self) -> List[str]:
        """All stored keys, sorted (a stable inventory, not LRU order)."""
        return sorted(path.stem for path, _, _ in self._entries_on_disk())

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return len(self._entries_on_disk())

    def total_bytes(self) -> int:
        return sum(size for _, _, size in self._entries_on_disk())

    def gc(self) -> int:
        """Evict least-recently-used entries until the bounds hold.

        Returns the number of entries removed.  Ordering is by mtime
        (reads touch), key as tie-break; racing processes may each try to
        remove the same file — only the winner counts it.
        """
        if self.max_bytes is None and self.max_entries is None:
            return 0
        entries = sorted(
            self._entries_on_disk(), key=lambda item: (item[1], item[0].name)
        )
        count = len(entries)
        volume = sum(size for _, _, size in entries)
        evicted = 0
        for path, _, size in entries:
            over_entries = self.max_entries is not None and count > self.max_entries
            over_bytes = self.max_bytes is not None and volume > self.max_bytes
            if not (over_entries or over_bytes):
                break
            try:
                path.unlink()
                evicted += 1
            except OSError:
                pass  # another process evicted or replaced it first
            count -= 1
            volume -= size
        return evicted

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped."""
        dropped = 0
        for path, _, _ in self._entries_on_disk():
            try:
                path.unlink()
                dropped += 1
            except OSError:
                pass
        return dropped

    def stats(self) -> Dict[str, int]:
        entries = self._entries_on_disk()
        return {
            "entries": len(entries),
            "bytes": sum(size for _, _, size in entries),
        }

    def __repr__(self) -> str:
        return (
            f"DiskCacheStore({str(self.root)!r}, max_bytes={self.max_bytes}, "
            f"max_entries={self.max_entries})"
        )


#: A sketch ages when its total count reaches ``capacity`` times this:
#: every count is halved (zeros dropped), so popularity is
#: recency-weighted rather than eternal.
_SKETCH_DECAY_FACTOR = 10


class FrequencySketch:
    """TinyLFU popularity counts, aged by halving when they saturate."""

    def __init__(self, capacity: int):
        self.limit = capacity * _SKETCH_DECAY_FACTOR
        self._counts: Dict[str, int] = {}
        self._total = 0

    def record(self, key: str) -> None:
        self._counts[key] = self._counts.get(key, 0) + 1
        self._total += 1
        if self._total >= self.limit:
            self._counts = {k: c // 2 for k, c in self._counts.items() if c // 2 > 0}
            self._total = sum(self._counts.values())

    def frequency(self, key: str) -> int:
        return self._counts.get(key, 0)

    def clear(self) -> None:
        self._counts.clear()
        self._total = 0


class CacheCounters:
    """Counters named ``<prefix><name>``, each bound on first use.

    ``CacheCounters(registry, "stage_cache.shard_").disk_hits`` is the
    ``stage_cache.shard_disk_hits`` counter.  Binding on first use keeps
    untouched counters out of the registry; after it, a counter is a
    plain attribute, so hot paths skip the registry lookup.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self.registry = registry
        self.prefix = prefix

    def __getattr__(self, name: str) -> Counter:
        if name.startswith("_"):
            raise AttributeError(name)
        counter = self.registry.counter(self.prefix + name)
        setattr(self, name, counter)
        return counter


class TieredCache:
    """One lock, one memory LRU, optional admission, optional disk tier.

    The LRU's own counters — ``<namespace>admitted``, ``evictions``,
    ``admission_rejected`` and the ``entries`` gauge — are
    :attr:`counters`.  Disk traffic (``disk_hits``, ``disk_writes``,
    ``disk_write_skips``) goes to the :class:`CacheCounters` each call
    passes (:attr:`counters` by default), and only calls that pass a
    ``disk_key`` touch the disk.

    ``capacity=None`` is unbounded.  With ``admission``, a new key
    displaces the LRU victim only if the sketch has seen it at least as
    often; memory hits and insertions each count one access.
    ``on_event("admit" | "evict", key)`` is called under the lock.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        namespace: str,
        capacity: Optional[int] = None,
        admission: bool = False,
        disk: Optional[DiskCacheStore] = None,
        on_event: Optional[Callable[[str, str], None]] = None,
    ):
        if capacity is not None and capacity < 1:
            raise CacheError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.disk = disk
        self.counters = CacheCounters(registry, namespace)
        self.sketch = FrequencySketch(capacity) if admission and capacity else None
        self.lock = threading.RLock()
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._on_event = on_event

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> List[str]:
        """Cached keys, LRU-first (the next victim leads)."""
        with self.lock:
            return list(self._entries)

    def peek(self, key: str) -> Optional[object]:
        """The memory value (or None), without counters, LRU, or disk."""
        with self.lock:
            return self._entries.get(key)

    def get(
        self,
        key: str,
        counters: Optional[CacheCounters] = None,
        disk_key: Optional[str] = None,
        kind: type = object,
    ) -> Optional[object]:
        """The ``kind`` value under ``key`` (now most recently used), or
        None.  A memory miss with a ``disk_key`` reads through to disk and
        promotes what it finds (``counters.disk_hits``)."""
        with self.lock:
            value = self._entries.get(key)
            if value is not None and isinstance(value, kind):
                self._entries.move_to_end(key)
                if self.sketch is not None:
                    self.sketch.record(key)
                return value
        if disk_key is None or self.disk is None:
            return None
        value = self.disk.read(disk_key)
        if value is None or not isinstance(value, kind):
            return None
        (counters or self.counters).disk_hits.inc()
        self.put(key, value)
        return value

    def put(
        self,
        key: str,
        value: object,
        counters: Optional[CacheCounters] = None,
        disk_key: Optional[str] = None,
    ) -> bool:
        """Insert into memory (True if it landed); with a ``disk_key``,
        write through too — a value that will not pickle stays memory-only
        (``counters.disk_write_skips``), it is not raised."""
        with self.lock:
            landed = self._admit(key, value)
        if disk_key is not None and self.disk is not None:
            counters = counters or self.counters
            if self.disk.write(disk_key, value):
                counters.disk_writes.inc()
            else:
                counters.disk_write_skips.inc()
        return landed

    def _admit(self, key: str, value: object) -> bool:
        entries, sketch = self._entries, self.sketch
        if sketch is not None:
            sketch.record(key)
        if key in entries:
            entries[key] = value
            entries.move_to_end(key)
            return True
        if self.capacity is not None and len(entries) >= self.capacity:
            victim = next(iter(entries))
            if sketch is not None and sketch.frequency(key) < sketch.frequency(victim):
                self.counters.admission_rejected.inc()
                return False
            del entries[victim]
            self.counters.evictions.inc()
            if self._on_event is not None:
                self._on_event("evict", victim)
        entries[key] = value
        self.counters.admitted.inc()
        if self._on_event is not None:
            self._on_event("admit", key)
        self._count_entries()
        return True

    def _count_entries(self) -> None:
        gauge = self.counters.registry.gauge(self.counters.prefix + "entries")
        gauge.set(float(len(self._entries)))

    def invalidate(self, key: str, disk_key: Optional[str] = None) -> bool:
        """Drop ``key`` from memory and ``disk_key`` from disk; True if
        either held it."""
        with self.lock:
            existed = self._entries.pop(key, None) is not None
            self._count_entries()
        if disk_key is not None and self.disk is not None:
            existed = self.disk.delete(disk_key) or existed
        return existed

    def invalidate_prefix(self, prefix: str) -> int:
        """Drop every memory entry whose key starts with ``prefix``."""
        with self.lock:
            doomed = [key for key in self._entries if key.startswith(prefix)]
            for key in doomed:
                del self._entries[key]
            self._count_entries()
            return len(doomed)

    def clear(self, disk: bool = False) -> int:
        """Empty memory and the sketch (with ``disk``, the store too);
        returns how many memory entries were dropped."""
        with self.lock:
            dropped = len(self._entries)
            self._entries.clear()
            if self.sketch is not None:
                self.sketch.clear()
            self._count_entries()
        if disk and self.disk is not None:
            self.disk.clear()
        return dropped


__all__: Tuple[str, ...] = (
    "CacheCounters",
    "DiskCacheStore",
    "FrequencySketch",
    "TieredCache",
)
