"""Provenance-keyed stage-result cache.

The *Pipeline-Centric Provenance Model* observation this module exploits:
the descriptors a provenance record already carries — module name,
version, parameters, input file descriptions — are exactly the key needed
to decide whether a prior stage output can be reused.  CLEO's staged
production ("recompute only what changed") is the same pattern at
collaboration scale.

This module owns the keys and the entries.  :func:`stage_key` covers the
flow name, stage name/site/cost model, the per-stage RNG seed, the
stage's ``cache_params``, and a descriptor of every input dataset
including its provenance-stamp MD5 digest — the paper's own "compare the
hashes" test, applied before compute instead of after.  A
:class:`CachedStage` holds everything the engine needs to *skip* a stage
and still replay provenance, accounting, and telemetry byte-identically;
a :class:`CachedShard` holds one item of a ``map_shards`` fan-out.
:class:`StageCache` stores both in a
:class:`~repro.core.cachestore.TieredCache`, counting stage traffic under
``stage_cache.`` and shard traffic under ``stage_cache.shard_``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.cachestore import CacheCounters, DiskCacheStore, TieredCache
from repro.core.dataset import Dataset
from repro.core.errors import CacheError
from repro.core.telemetry import MetricsRegistry
from repro.core.units import DataSize


def stage_key(
    flow_name: str,
    stage_name: str,
    site: str,
    cpu_seconds_per_gb: float,
    stage_seed: int,
    input_descriptors: Sequence[str],
    cache_params: Optional[Mapping[str, object]] = None,
    fault_digest: str = "",
) -> str:
    """Content address of one stage execution.

    Deterministic across processes: every component is rendered to a
    canonical JSON document and hashed with SHA-256.  Input descriptors
    are sorted, matching how the engine freezes them into provenance
    records.  ``fault_digest`` is the active
    :class:`~repro.core.faults.FaultPlan` digest (empty when no faults
    are armed): results computed under injection are keyed apart from
    clean results, so a faulted run can never poison — nor be serviced
    from — a warm fault-free cache.
    """
    payload = {
        "flow": flow_name,
        "stage": stage_name,
        "site": site,
        "cpu_seconds_per_gb": repr(float(cpu_seconds_per_gb)),
        "seed": int(stage_seed),
        "inputs": sorted(str(descriptor) for descriptor in input_descriptors),
        "params": {str(k): str(v) for k, v in (cache_params or {}).items()},
        "faults": str(fault_digest),
    }
    return _digest(payload)


def shard_key(
    flow_name: str,
    stage_name: str,
    fn_name: str,
    item_descriptor: str,
    cache_params: Optional[Mapping[str, object]] = None,
    fault_digest: str = "",
) -> str:
    """Content address of one shard of a stage's fan-out.

    Finer-grained sibling of :func:`stage_key`: where a stage key covers
    the whole input set (any new item misses the whole stage), a shard
    key covers one item of a ``map_shards`` fan-out, so an incremental
    window recomputes only the items it has never seen.  The payload is
    tagged ``"kind": "shard"`` so shard and stage addresses can never
    collide even for pathological inputs.
    """
    payload = {
        "kind": "shard",
        "flow": flow_name,
        "stage": stage_name,
        "fn": str(fn_name),
        "item": str(item_descriptor),
        "params": {str(k): str(v) for k, v in (cache_params or {}).items()},
        "faults": str(fault_digest),
    }
    return _digest(payload)


def _digest(payload: Mapping[str, object]) -> str:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class CachedShard:
    """One memoized shard result of a stage's ``map_shards`` fan-out."""

    value: object


@dataclass
class CachedStage:
    """Everything needed to replay one stage without running it."""

    output_name: str
    output_version: str
    output_bytes: float
    output_items: tuple = ()
    output_attrs: Mapping[str, object] = field(default_factory=dict)
    extra_cpu_seconds: float = 0.0
    stash: Mapping[str, object] = field(default_factory=dict)
    # Availability accounting: a hit must replay the recorded retries,
    # injected faults, and degradation flags exactly, or a resumed run's
    # prefix would diverge from the uninterrupted run's event log.
    attempts: int = 1
    retry_wait_seconds: float = 0.0
    degraded: bool = False
    fault_attrs: tuple = ()
    dead_letter_attrs: Optional[Mapping[str, object]] = None

    @classmethod
    def capture(
        cls,
        output: Dataset,
        extra_cpu_seconds: float,
        stash: Mapping[str, object],
        attempts: int = 1,
        retry_wait_seconds: float = 0.0,
        degraded: bool = False,
        fault_attrs: Sequence[Mapping[str, object]] = (),
        dead_letter_attrs: Optional[Mapping[str, object]] = None,
    ) -> "CachedStage":
        """Snapshot a completed stage's result.

        The dataset's mutable containers are copied shallowly; the stash
        is stored as-is (stage stashes are treated as immutable once the
        stage returns — the same contract downstream stages already rely
        on when reading a predecessor's stash).
        """
        return cls(
            output_name=output.name,
            output_version=output.version,
            output_bytes=output.size.bytes,
            output_items=tuple(output.items),
            output_attrs=dict(output.attrs),
            extra_cpu_seconds=float(extra_cpu_seconds),
            stash=dict(stash),
            attempts=int(attempts),
            retry_wait_seconds=float(retry_wait_seconds),
            degraded=bool(degraded),
            fault_attrs=tuple(dict(attrs) for attrs in fault_attrs),
            dead_letter_attrs=(
                dict(dead_letter_attrs) if dead_letter_attrs is not None else None
            ),
        )

    def rebuild_output(self) -> Dataset:
        """A fresh Dataset equivalent to the one the stage returned.

        ``provenance_id`` is left unset — the engine re-commits the stage
        and attaches the run's own reserved id, exactly as it would after
        real execution.  ``dataset_id`` is freshly allocated; it is
        process-local bookkeeping excluded from provenance descriptors.
        """
        return Dataset(
            name=self.output_name,
            size=DataSize(self.output_bytes),
            items=list(self.output_items),
            version=self.output_version,
            attrs=dict(self.output_attrs),
        )


def _counter(name: str, doc: Optional[str] = None) -> property:
    """A read-only view of the ``stage_cache.<name>`` counter."""
    return property(
        lambda cache: int(cache.registry.value(f"stage_cache.{name}")), doc=doc
    )


class StageCache:
    """LRU cache of :class:`CachedStage` snapshots keyed by provenance.

    Parameters
    ----------
    max_entries:
        Optional capacity; least-recently-used entries are evicted past
        it.  ``None`` (default) means unbounded — figure pipelines have a
        handful of stages.
    registry:
        Metrics registry the hit/miss/eviction counters live in; a private
        one is created if not supplied.  Pass the engine's registry to
        surface cache traffic alongside the flow's other instruments.
    store:
        Optional shared :class:`~repro.core.cachestore.DiskCacheStore`
        under the in-memory LRU: a memory miss reads through (a disk hit
        counts as a hit, plus ``disk_hits``), stores write through (an
        entry that will not pickle stays memory-only: ``disk_write_skips``),
        and an entry evicted from memory survives on disk.  Engines in one
        process, many processes, or successive runs may share one root.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        store: Optional[DiskCacheStore] = None,
    ):
        self.max_entries = max_entries
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tier = TieredCache(
            self.registry, "stage_cache.", capacity=max_entries, disk=store
        )
        self._stage = self.tier.counters
        self._shard = CacheCounters(self.registry, "stage_cache.shard_")

    @classmethod
    def on_disk(
        cls,
        root: "Union[str, Path]",
        max_bytes: Optional[int] = None,
        max_disk_entries: Optional[int] = None,
        max_entries: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> "StageCache":
        """A stage cache over a shared on-disk store rooted at ``root``;
        ``max_bytes``/``max_disk_entries`` bound the store."""
        return cls(
            max_entries=max_entries,
            registry=registry,
            store=DiskCacheStore(
                root, max_bytes=max_bytes, max_entries=max_disk_entries
            ),
        )

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

    def lookup(self, key: str) -> Optional[CachedStage]:
        """Return the entry for ``key`` (marking it recently used), or None.
        A disk hit is promoted into memory (``stage_cache.disk_hits``)."""
        return self._lookup(key, self._stage, CachedStage)

    def lookup_shard(self, key: str) -> Optional[CachedShard]:
        """Return the shard entry for ``key`` (marking it used), or None.

        Shard traffic is counted apart from stage traffic, under
        ``stage_cache.shard_`` (``shard_hits``, ``shard_disk_hits``, ...),
        so stage-level warm-start assertions stay unchanged by fan-out.
        """
        return self._lookup(key, self._shard, CachedShard)

    def _lookup(self, key: str, counters: CacheCounters, kind: type):
        entry = self.tier.get(key, counters, disk_key=key, kind=kind)
        (counters.hits if entry is not None else counters.misses).inc()
        return entry

    def store(self, key: str, entry: CachedStage) -> None:
        """Insert ``entry`` (evicting past ``max_entries``) and write it
        through to the disk store when one is attached."""
        if not isinstance(entry, CachedStage):
            raise CacheError(
                f"expected a CachedStage, got {type(entry).__name__}"
            )
        self.tier.put(key, entry, self._stage, disk_key=key)

    def store_shard(self, key: str, value: object) -> None:
        """Memoize one shard result under its content address."""
        self.tier.put(key, CachedShard(value=value), self._shard, disk_key=key)

    def invalidate(self, key: str) -> bool:
        """Drop one entry from memory and disk; returns whether it existed."""
        return self.tier.invalidate(key, disk_key=key)

    def clear(self, disk: bool = False) -> None:
        """Empty the in-memory L1 (and, with ``disk=True``, the store)."""
        self.tier.clear(disk=disk)

    # -- counters ---------------------------------------------------------
    hits = _counter("hits")
    misses = _counter("misses")
    evictions = _counter("evictions")
    shard_hits = _counter("shard_hits", "Shard-level hits (separate from ``hits``).")
    shard_misses = _counter("shard_misses")
    disk_hits = _counter("disk_hits", "Stage hits served from the disk store.")
    disk_writes = _counter("disk_writes", "Stage entries written to the store.")
    disk_write_skips = _counter(
        "disk_write_skips", "Stage entries that could not pickle (memory-only)."
    )
    shard_disk_hits = _counter("shard_disk_hits", "Shard hits served from disk.")
    shard_disk_writes = _counter("shard_disk_writes", "Shards written to disk.")

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self),
        }

    def disk_stats(self) -> Dict[str, int]:
        """Store-side accounting; all zeros when no store is attached."""
        stored = self.disk.stats() if self.disk is not None else {"entries": 0, "bytes": 0}
        return {
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "disk_write_skips": self.disk_write_skips,
            "shard_disk_hits": self.shard_disk_hits,
            "shard_disk_writes": self.shard_disk_writes,
            "disk_entries": stored["entries"],
            "disk_bytes": stored["bytes"],
        }

    def rows(self) -> List[Dict[str, object]]:
        """Benchmark-table rows for the cache counters."""
        return [
            {"metric": f"stage_cache.{name}", "value": value}
            for name, value in self.stats().items()
        ]


__all__: Tuple[str, ...] = (
    "CachedShard",
    "CachedStage",
    "StageCache",
    "shard_key",
    "stage_key",
)
