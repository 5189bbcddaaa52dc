"""The shared cache primitive under StageCache and ReadCache: LRU order,
admission, the disk tier, prefix invalidation, and namespaced counters."""

import pytest

from repro.core.cachestore import CacheCounters, DiskCacheStore, TieredCache
from repro.core.errors import CacheError
from repro.core.telemetry import MetricsRegistry


def tiered(capacity=None, admission=False, disk=None, events=None):
    registry = MetricsRegistry()
    on_event = (lambda kind, key: events.append((kind, key))) if events is not None else None
    cache = TieredCache(
        registry, "t.", capacity=capacity, admission=admission, disk=disk, on_event=on_event
    )
    return cache, registry


class TestLru:
    def test_unbounded_keeps_everything_in_recency_order(self):
        cache, registry = tiered()
        for index in range(50):
            cache.put(f"k{index}", index)
        assert cache.get("k0") == 0  # k0 becomes most recently used
        assert len(cache) == 50
        assert cache.keys()[-1] == "k0" and cache.keys()[0] == "k1"
        assert registry.value("t.evictions") == 0

    def test_bounded_evicts_least_recently_used(self):
        events = []
        cache, registry = tiered(capacity=2, events=events)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # b is now the victim
        cache.put("c", 3)
        assert cache.keys() == ["a", "c"]
        assert cache.get("b") is None
        assert registry.value("t.evictions") == 1
        assert registry.value("t.admitted") == 3
        assert registry.value("t.entries") == 2
        assert events == [
            ("admit", "a"), ("admit", "b"), ("evict", "b"), ("admit", "c")
        ]

    def test_replacing_a_key_neither_evicts_nor_readmits(self):
        cache, registry = tiered(capacity=1)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.peek("a") == 2
        assert registry.value("t.admitted") == 1
        assert registry.value("t.evictions") == 0

    def test_peek_leaves_lru_order_alone(self):
        cache, _ = tiered(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        cache.put("c", 3)
        assert cache.keys() == ["b", "c"]

    def test_kind_filters_memory_hits(self):
        cache, _ = tiered()
        cache.put("k", "text")
        assert cache.get("k", kind=int) is None
        assert cache.get("k", kind=str) == "text"

    def test_capacity_must_be_positive(self):
        with pytest.raises(CacheError, match="capacity"):
            tiered(capacity=0)


class TestAdmission:
    def test_rejects_a_key_seen_less_often_than_the_victim(self):
        cache, registry = tiered(capacity=1, admission=True)
        cache.put("hot", 1)
        for _ in range(3):
            cache.get("hot")
        assert cache.put("wonder", 2) is False
        assert cache.keys() == ["hot"]
        assert registry.value("t.admission_rejected") == 1
        assert registry.value("t.evictions") == 0

    def test_accepts_a_key_seen_as_often_as_the_victim(self):
        cache, registry = tiered(capacity=1, admission=True)
        cache.put("old", 1)
        cache.get("old")  # old: seen twice
        assert cache.put("riser", 2) is False  # seen once
        assert cache.put("riser", 2) is True  # seen twice: a tie admits
        assert cache.keys() == ["riser"]
        assert registry.value("t.evictions") == 1

    def test_without_admission_every_put_lands(self):
        cache, registry = tiered(capacity=1)
        cache.put("hot", 1)
        for _ in range(5):
            cache.get("hot")
        assert cache.put("wonder", 2) is True
        assert cache.keys() == ["wonder"]
        assert cache.sketch is None

    def test_clear_resets_the_sketch(self):
        cache, _ = tiered(capacity=4, admission=True)
        cache.put("a", 1)
        cache.get("a")
        assert cache.sketch.frequency("a") == 2
        assert cache.clear() == 1
        assert cache.sketch.frequency("a") == 0


class TestDiskTier:
    def test_write_through_and_promotion(self, tmp_path):
        disk = DiskCacheStore(tmp_path)
        cache, registry = tiered(disk=disk)
        traffic = CacheCounters(registry, "t.")
        cache.put("mem-key", {"v": 1}, traffic, disk_key="abc")
        assert registry.value("t.disk_writes") == 1
        assert disk.read("abc") == {"v": 1}

        cold, cold_registry = tiered(disk=disk)
        cold_traffic = CacheCounters(cold_registry, "t.")
        assert cold.get("mem-key", cold_traffic, disk_key="abc") == {"v": 1}
        assert cold_registry.value("t.disk_hits") == 1
        assert cold.keys() == ["mem-key"]  # promoted into memory
        disk.clear()
        assert cold.get("mem-key", cold_traffic, disk_key="abc") == {"v": 1}
        assert cold_registry.value("t.disk_hits") == 1

    def test_disk_is_untouched_without_a_disk_key(self, tmp_path):
        disk = DiskCacheStore(tmp_path)
        cache, registry = tiered(disk=disk)
        cache.put("k", 1, cache.counters)
        assert len(disk) == 0
        cache.clear()
        assert cache.get("k", cache.counters) is None
        assert registry.value("t.disk_hits") == 0

    def test_disk_entry_of_the_wrong_kind_is_a_miss(self, tmp_path):
        disk = DiskCacheStore(tmp_path)
        disk.write("abc", "text")
        cache, registry = tiered(disk=disk)
        assert cache.get("k", cache.counters, disk_key="abc", kind=int) is None
        assert len(cache) == 0 and registry.value("t.disk_hits") == 0

    def test_unpicklable_write_is_counted_as_a_skip(self, tmp_path):
        disk = DiskCacheStore(tmp_path)
        cache, registry = tiered(disk=disk)
        assert cache.put("k", lambda: None, cache.counters, disk_key="abc") is True
        assert registry.value("t.disk_write_skips") == 1
        assert registry.value("t.disk_writes") == 0
        assert len(disk) == 0 and "k" in cache

    def test_invalidate_reaches_disk_only_with_a_disk_key(self, tmp_path):
        disk = DiskCacheStore(tmp_path)
        cache, _ = tiered(disk=disk)
        cache.put("k", 1, cache.counters, disk_key="abc")
        assert cache.invalidate("k") is True
        assert "abc" in disk
        assert cache.invalidate("k", disk_key="abc") is True
        assert "abc" not in disk
        assert cache.invalidate("k", disk_key="abc") is False

    def test_clear_with_disk_empties_the_store(self, tmp_path):
        disk = DiskCacheStore(tmp_path)
        cache, _ = tiered(disk=disk)
        cache.put("k", 1, cache.counters, disk_key="abc")
        cache.clear()
        assert "abc" in disk
        cache.clear(disk=True)
        assert len(disk) == 0


class TestPrefixInvalidation:
    def test_drops_only_matching_keys(self):
        cache, registry = tiered()
        for key in ("asof:a", "asof:b", "links:0:a", "blob:x"):
            cache.put(key, key)
        assert cache.invalidate_prefix("asof:") == 2
        assert cache.keys() == ["links:0:a", "blob:x"]
        assert registry.value("t.entries") == 2
        assert cache.invalidate_prefix("asof:") == 0


class TestNamespaces:
    def test_counters_are_named_by_prefix_and_bound_once(self):
        registry = MetricsRegistry()
        counters = CacheCounters(registry, "ns.")
        assert registry.names() == []  # nothing created until first use
        counters.hits.inc()
        assert counters.hits is registry.counter("ns.hits")
        assert registry.names() == ["ns.hits"]

    def test_namespaces_never_share_a_counter(self, tmp_path):
        disk = DiskCacheStore(tmp_path)
        cache, registry = tiered(disk=disk)
        stage = cache.counters
        shard = CacheCounters(registry, "t.shard_")
        cache.put("s", 1, stage, disk_key="aa")
        cache.put("h", 2, shard, disk_key="bb")
        cache.put("h2", 3, shard, disk_key="cc")
        cache.clear()
        cache.get("h", shard, disk_key="bb")
        assert registry.value("t.disk_writes") == 1
        assert registry.value("t.shard_disk_writes") == 2
        assert registry.value("t.disk_hits") == 0
        assert registry.value("t.shard_disk_hits") == 1
        for name in ("disk_hits", "disk_writes", "hits", "misses"):
            assert getattr(stage, name) is not getattr(shard, name)

    def test_two_caches_on_one_registry_stay_apart(self):
        registry = MetricsRegistry()
        first = TieredCache(registry, "first.", capacity=1)
        second = TieredCache(registry, "second.", capacity=1)
        first.put("a", 1)
        first.put("b", 2)
        second.put("a", 1)
        assert registry.value("first.evictions") == 1
        assert registry.value("second.evictions") == 0
        assert registry.value("second.admitted") == 1
