"""Which public ``repro`` calls the traced run wraps, and the per-layer
metrics computed from their spans.

:func:`install` patches each call where its callers look it up: a
module-level function is replaced in every ``repro`` module that bound it
by name (pipeline modules import kernels with ``from ... import``), a
method on its class.  Nothing is restored: a traced run is its own process.

Every ``*_s`` metric is the summed *self time* of its spans (the span
minus the spans it directly contains), except the container timings
``engine.run_s``, ``engine.stage_s.*``, ``shards.map_s`` and
``shards.child_busy_s``, which are inclusive wall time.  Times and counts
are per repetition (totals divided by the traced repetitions); ratios are
taken over the whole traced run.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence

from spans import TimedShard, Tracer, array_bytes
from workloads import Probe

FIGURE1_STAGES = ("acquire", "ship", "archive", "process", "consolidate", "meta-analysis")
FIGURE2_STAGES = (
    "acquisition",
    "reconstruction",
    "post-reconstruction",
    "monte-carlo",
    "physics-analysis",
)

#: (unit, metric) for every per-layer metric, in report order.
PER_LAYER: List[tuple] = [
    ("s", "kernels.shift_sum_s"),
    ("s", "kernels.power_spectra_s"),
    ("s", "kernels.harmonic_snr_s"),
    ("s", "kernels.threshold_s"),
    ("s", "kernels.fold_s"),
    ("count", "kernels.calls"),
    ("bytes", "kernels.bytes_in"),
    ("s", "arecibo.observe_s"),
    ("s", "arecibo.rfi_clean_s"),
    ("s", "arecibo.dedisperse_s"),
    ("s", "arecibo.fourier_search_s"),
    ("s", "arecibo.single_pulse_s"),
    ("s", "arecibo.sift_s"),
    ("s", "arecibo.meta_s"),
    ("s", "shards.map_s"),
    ("count", "shards.items"),
    ("s", "shards.child_busy_s"),
    ("ratio", "shards.efficiency"),
    ("bytes", "shards.shm_bytes"),
    ("count", "shards.shm_leaked"),
    ("s", "engine.run_s"),
    ("s", "engine.overhead_s"),
    *[("s", f"engine.stage_s.{stage}") for stage in FIGURE1_STAGES + FIGURE2_STAGES],
    ("count", "stagecache.lookups"),
    ("ratio", "stagecache.stage_hit_ratio"),
    ("ratio", "stagecache.shard_hit_ratio"),
    ("s", "stagecache.lookup_s"),
    ("s", "stagecache.store_s"),
    ("count", "cachestore.reads"),
    ("s", "cachestore.read_s"),
    ("s", "cachestore.write_s"),
    ("bytes", "cachestore.bytes_read"),
    ("bytes", "cachestore.bytes_written"),
    ("MB", "cachestore.disk_mb"),
    ("count", "telemetry.events"),
    ("s", "telemetry.log_write_s"),
    ("bytes", "telemetry.log_bytes"),
    ("s", "ops.rollup_s"),
    ("count", "ops.events_folded"),
    ("ratio", "ops.incremental_ratio"),
    ("s", "ops.render_s"),
    ("s", "readcache.get_s"),
    ("ratio", "readcache.hit_ratio"),
    ("ratio", "readcache.admit_ratio"),
    ("count", "readcache.loads"),
    ("count", "readcache.evictions"),
    ("count", "db.statements"),
    ("s", "db.query_s"),
    ("s", "db.write_s"),
    ("s", "weblab.retro_s"),
    ("s", "weblab.pagestore_get_s"),
    ("s", "weblab.preload_s"),
    ("count", "weblab.preload_pages"),
    ("s", "eventstore.inject_s"),
    ("bytes", "eventstore.bytes_injected"),
    ("s", "eventstore.read_s"),
    ("count", "eventstore.events_read"),
    ("s", "cleo.reconstruct_s"),
    ("s", "cleo.postrecon_s"),
    ("s", "cleo.mc_s"),
    ("s", "cleo.analysis_s"),
    ("ratio", "storage.hsm_hit_ratio"),
    ("count", "storage.tape_recalls"),
    ("s", "workload.replay_overhead_s"),
    ("s", "trace.overhead_s"),
]

#: Self-time metrics: metric -> the span names whose self time it sums.
SELF_TIME: Dict[str, Sequence[str]] = {
    "kernels.shift_sum_s": ["kernels.shift_sum"],
    "kernels.power_spectra_s": ["kernels.power_spectra"],
    "kernels.harmonic_snr_s": ["kernels.harmonic_snr"],
    "kernels.threshold_s": ["kernels.threshold"],
    "kernels.fold_s": ["kernels.fold"],
    "arecibo.observe_s": ["arecibo.observe"],
    "arecibo.rfi_clean_s": ["arecibo.rfi_clean"],
    "arecibo.dedisperse_s": ["arecibo.dedisperse"],
    "arecibo.fourier_search_s": ["arecibo.fourier_search"],
    "arecibo.single_pulse_s": ["arecibo.single_pulse"],
    "arecibo.sift_s": ["arecibo.sift"],
    "arecibo.meta_s": ["arecibo.meta"],
    "stagecache.lookup_s": ["stagecache.lookup"],
    "stagecache.store_s": ["stagecache.store"],
    "cachestore.read_s": ["cachestore.read"],
    "cachestore.write_s": ["cachestore.write", "cachestore.gc"],
    "telemetry.log_write_s": ["telemetry.log_write"],
    "ops.rollup_s": ["ops.rollup"],
    "ops.render_s": ["ops.dashboard", "ops.alerts", "ops.render"],
    "readcache.get_s": ["readcache.get"],
    "db.query_s": ["db.query"],
    "db.write_s": ["db.write", "db.transaction"],
    "weblab.retro_s": ["weblab.retro"],
    "weblab.pagestore_get_s": ["weblab.pagestore_get"],
    "weblab.preload_s": ["weblab.preload"],
    "eventstore.inject_s": ["eventstore.inject"],
    "eventstore.read_s": ["eventstore.read"],
    "cleo.reconstruct_s": ["cleo.reconstruct"],
    "cleo.postrecon_s": ["cleo.postrecon"],
    "cleo.mc_s": ["cleo.mc"],
    "cleo.analysis_s": ["cleo.analysis"],
}

#: Count metrics read straight from the tracer's counts.
COUNTS = (
    "kernels.calls",
    "kernels.bytes_in",
    "shards.items",
    "shards.shm_bytes",
    "shards.shm_leaked",
    "stagecache.lookups",
    "cachestore.reads",
    "cachestore.bytes_read",
    "cachestore.bytes_written",
    "telemetry.events",
    "telemetry.log_bytes",
    "ops.events_folded",
    "readcache.loads",
    "readcache.evictions",
    "db.statements",
    "weblab.preload_pages",
    "eventstore.bytes_injected",
    "eventstore.events_read",
    "storage.tape_recalls",
)


class Layers(Probe):
    """The installed wrappers plus the objects whose stats are read at the
    end of each repetition (read caches, disk stores).

    As the traced run's probe, it takes the layer counts workloads read
    themselves (:meth:`note`) and pauses tracing for their set-up and
    output checks (:meth:`unmeasured`).
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.read_caches: List[object] = []
        self.disk_stores: Dict[str, object] = {}
        self._rollup_consumed: Dict[str, int] = {}
        self.disk_mb_peak = 0.0
        #: Read-cache traffic during set-up and checks, per cache, to subtract.
        self._cache_excluded: Dict[int, List[int]] = {}

    def note(self, name: str, amount: float) -> None:
        self.tracer.add(name, amount)

    @contextmanager
    def unmeasured(self) -> Iterator[None]:
        before = {id(cache): _cache_counts(cache) for cache in self.read_caches}
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False
            for cache in self.read_caches:
                start = before.get(id(cache), (0, 0, 0, 0))
                excluded = self._cache_excluded.setdefault(id(cache), [0, 0, 0, 0])
                for slot, (now, then) in enumerate(zip(_cache_counts(cache), start)):
                    excluded[slot] += now - then

    # -- patching ------------------------------------------------------------
    def _patch_function(self, module: str, attr: str, wrapper_of: Callable) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapped = wrapper_of(original)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(
                loaded, attr, None
            ) is original:
                setattr(loaded, attr, wrapped)

    def _patch_method(self, cls: type, attr: str, wrapper_of: Callable) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(wrapper_of(raw.__func__)))
        else:
            setattr(cls, attr, wrapper_of(raw))

    def install(self) -> None:
        import repro.arecibo.dedisperse  # noqa: F401  (bind every importer first)
        import repro.arecibo.folding  # noqa: F401
        import repro.arecibo.fourier  # noqa: F401
        import repro.arecibo.pipeline  # noqa: F401
        import repro.cleo.pipeline  # noqa: F401
        import repro.ops  # noqa: F401
        import repro.weblab.services  # noqa: F401
        from repro.arecibo.metaanalysis import CandidateDatabase
        from repro.arecibo.telescope import ObservationSimulator
        from repro.cleo.analysis import AnalysisJob
        from repro.cleo.postrecon import PostReconstructor
        from repro.cleo.reconstruction import Reconstructor
        from repro.core.cachestore import DiskCacheStore
        from repro.core.dataflow import DataFlow
        from repro.core.engine import Engine
        from repro.core.readcache import ReadCache
        from repro.core.shards import ShardPool, SharedArray
        from repro.core.stagecache import StageCache
        from repro.core.telemetry import Telemetry
        from repro.db.connection import Database, SqliteBackend
        from repro.eventstore.store import EventStore
        from repro.ops.alerts import AlertEvaluator
        from repro.weblab.pagestore import PageStore
        from repro.weblab.preload import PreloadSubsystem
        from repro.weblab.retro import RetroBrowser

        tracer = self.tracer
        TimedShard.tracer = tracer

        def span(name, on_result=None):
            return lambda fn: tracer.wrap(fn, name, on_result)

        def kernel(name):
            def counted(tr, args, kwargs, result):
                tr.add("kernels.calls")
                tr.add("kernels.bytes_in", array_bytes(list(args) + list(kwargs.values())))

            return span(f"kernels.{name}", counted)

        kernels = "repro.core.kernels"
        self._patch_function(kernels, "shift_sum", kernel("shift_sum"))
        self._patch_function(kernels, "batched_power_spectra", kernel("power_spectra"))
        self._patch_function(kernels, "harmonic_snr_block", kernel("harmonic_snr"))
        self._patch_function(kernels, "threshold_hits", kernel("threshold"))
        self._patch_function(kernels, "fold_block", kernel("fold"))

        self._patch_method(ObservationSimulator, "observe", span("arecibo.observe"))
        self._patch_function("repro.arecibo.rfi", "clean_filterbank", span("arecibo.rfi_clean"))
        self._patch_function(
            "repro.arecibo.dedisperse", "dedisperse_all", span("arecibo.dedisperse")
        )
        self._patch_function(
            "repro.arecibo.fourier", "search_dm_block", span("arecibo.fourier_search")
        )
        self._patch_function(
            "repro.arecibo.singlepulse", "search_single_pulses", span("arecibo.single_pulse")
        )
        self._patch_function("repro.arecibo.candidates", "sift", span("arecibo.sift"))
        self._patch_method(CandidateDatabase, "cull_widespread", span("arecibo.meta"))

        # -- farm ---------------------------------------------------------------
        original_map = ShardPool.map

        def traced_map(pool, fn, items):
            index = tracer.begin("shards.map")
            if index < 0:
                return original_map(pool, fn, items)
            try:
                return original_map(pool, TimedShard(fn), items)
            finally:
                tracer.finish(index)
                wall = tracer.end[index] - tracer.start[index]
                tracer.add("shards.capacity_s", wall * pool.workers)

        ShardPool.map = traced_map

        def shm_copy(tr, args, kwargs, result):
            tr.add("shards.shm_bytes", float(result.nbytes))

        self._patch_method(SharedArray, "copy_from", span("shards.shm_copy", shm_copy))

        # -- engine -------------------------------------------------------------
        self._patch_method(Engine, "run", span("engine.run"))
        original_stage = DataFlow.stage

        def traced_stage(flow, name, fn, *args, **kwargs):
            return original_stage(
                flow, name, tracer.wrap(fn, f"engine.stage.{name}"), *args, **kwargs
            )

        DataFlow.stage = traced_stage

        # -- caches ---------------------------------------------------------------
        def stage_lookup(kind):
            def counted(tr, args, kwargs, result):
                tr.add("stagecache.lookups")
                tr.add(f"stagecache.{kind}_lookups")
                if result is not None:
                    tr.add(f"stagecache.{kind}_hits")

            return span("stagecache.lookup", counted)

        self._patch_method(StageCache, "lookup", stage_lookup("stage"))
        self._patch_method(StageCache, "lookup_shard", stage_lookup("shard"))
        self._patch_method(StageCache, "store", span("stagecache.store"))
        self._patch_method(StageCache, "store_shard", span("stagecache.store"))

        def store_read(tr, args, kwargs, result):
            store, key = args[0], args[1]
            self.disk_stores[str(store.root)] = store
            tr.add("cachestore.reads")
            if result is not None:
                tr.add("cachestore.bytes_read", _size(store.path_for(key)))

        def store_write(tr, args, kwargs, result):
            store, key = args[0], args[1]
            self.disk_stores[str(store.root)] = store
            if result:
                tr.add("cachestore.bytes_written", _size(store.path_for(key)))

        self._patch_method(DiskCacheStore, "read", span("cachestore.read", store_read))
        self._patch_method(DiskCacheStore, "write", span("cachestore.write", store_write))
        self._patch_method(DiskCacheStore, "gc", span("cachestore.gc"))

        original_cache_init = ReadCache.__init__

        def tracked_cache_init(cache, *args, **kwargs):
            original_cache_init(cache, *args, **kwargs)
            self.read_caches.append(cache)

        ReadCache.__init__ = tracked_cache_init
        self._patch_method(ReadCache, "get_or_load", span("readcache.get"))

        # -- telemetry and ops ----------------------------------------------------
        Telemetry.emit = tracer.wrap_counter(Telemetry.emit, "telemetry.events")

        def log_written(tr, args, kwargs, result):
            tr.add("telemetry.log_bytes", _size(Path(args[0])))

        self._patch_function(
            "repro.core.telemetry", "write_event_log", span("telemetry.log_write", log_written)
        )

        def rolled_up(tr, args, kwargs, result):
            path = str(Path(args[0]).resolve())
            before = self._rollup_consumed.get(path, 0)
            self._rollup_consumed[path] = result.consumed_events
            tr.add(f"ops.rollup.{result.source}")
            if result.source == "cold":
                tr.add("ops.events_folded", result.consumed_events)
            elif result.source == "incremental":
                tr.add("ops.events_folded", result.consumed_events - before)

        self._patch_function("repro.ops.rollup", "build_rollup", span("ops.rollup", rolled_up))
        self._patch_function("repro.ops.dashboard", "build_dashboard", span("ops.dashboard"))
        self._patch_method(AlertEvaluator, "evaluate", span("ops.alerts"))
        self._patch_function("repro.ops.report", "render_report", span("ops.render"))

        # -- db -------------------------------------------------------------------
        def statement(tr, args, kwargs, result):
            tr.add("db.statements")

        def statements(tr, args, kwargs, result):
            tr.add("db.statements", result)

        self._patch_method(Database, "query", span("db.query", statement))
        self._patch_method(Database, "query_one", span("db.query", statement))
        self._patch_method(Database, "execute", span("db.write", statement))
        self._patch_method(Database, "insert", span("db.write", statement))
        self._patch_method(Database, "executemany", span("db.write", statements))
        SqliteBackend.transaction = tracer.wrap_context(
            SqliteBackend.transaction, "db.transaction"
        )

        # -- weblab ---------------------------------------------------------------
        for attr in ("get", "navigate", "history"):
            self._patch_method(RetroBrowser, attr, span("weblab.retro"))
        self._patch_method(PageStore, "get", span("weblab.pagestore_get"))

        def preloaded(tr, args, kwargs, result):
            tr.add("weblab.preload_pages", result.pages)

        self._patch_method(PreloadSubsystem, "run", span("weblab.preload", preloaded))

        # -- eventstore, cleo, storage ---------------------------------------------
        def injected(tr, args, kwargs, result):
            tr.add("eventstore.bytes_injected", _size(Path(result)))

        self._patch_method(EventStore, "inject", span("eventstore.inject", injected))
        EventStore.events_for = tracer.wrap_generator(
            EventStore.events_for, "eventstore.read", "eventstore.events_read"
        )
        self._patch_method(Reconstructor, "reconstruct_run", span("cleo.reconstruct"))
        self._patch_method(PostReconstructor, "process_run", span("cleo.postrecon"))
        self._patch_function("repro.cleo.montecarlo", "produce_offsite_mc", span("cleo.mc"))
        self._patch_method(AnalysisJob, "run", span("cleo.analysis"))

    # -- per-repetition bookkeeping ---------------------------------------------
    def end_repetition(self) -> None:
        """Read state that dies with the repetition's roots: on-disk store
        volume and read-cache stats."""
        volume = sum(store.total_bytes() for store in self.disk_stores.values())
        self.disk_mb_peak = max(self.disk_mb_peak, volume / 1e6)
        self.disk_stores.clear()
        for cache in self.read_caches:
            excluded = self._cache_excluded.get(id(cache), (0, 0, 0, 0))
            measured = [now - skip for now, skip in zip(_cache_counts(cache), excluded)]
            for name, value in zip(_CACHE_COUNTS, measured):
                self.tracer.add(name, value)
        self.read_caches.clear()
        self._cache_excluded.clear()

    def metrics(self, repetitions: int, extra: Dict[str, float]) -> Dict[str, float]:
        """Every per-layer metric over the traced repetitions."""
        self.tracer.merge_sidecars()
        inclusive, exclusive = self.tracer.totals()
        counts = dict(self.tracer.counts)
        counts.update(extra)
        per = float(max(repetitions, 1))

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        out: Dict[str, float] = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(exclusive.get(name, 0.0) for name in names) / per
        for metric in COUNTS:
            out[metric] = counts.get(metric, 0.0) / per
        stages = {
            stage: inclusive.get(f"engine.stage.{stage}", 0.0)
            for stage in FIGURE1_STAGES + FIGURE2_STAGES
        }
        for stage, seconds in stages.items():
            out[f"engine.stage_s.{stage}"] = seconds / per
        out["engine.run_s"] = inclusive.get("engine.run", 0.0) / per
        out["engine.overhead_s"] = (
            inclusive.get("engine.run", 0.0) - sum(stages.values())
        ) / per
        out["shards.map_s"] = inclusive.get("shards.map", 0.0) / per
        out["shards.child_busy_s"] = inclusive.get("shards.item", 0.0) / per
        out["shards.efficiency"] = ratio(
            inclusive.get("shards.item", 0.0), counts.get("shards.capacity_s", 0.0)
        )
        out["stagecache.stage_hit_ratio"] = ratio(
            counts.get("stagecache.stage_hits", 0.0),
            counts.get("stagecache.stage_lookups", 0.0),
        )
        out["stagecache.shard_hit_ratio"] = ratio(
            counts.get("stagecache.shard_hits", 0.0),
            counts.get("stagecache.shard_lookups", 0.0),
        )
        out["cachestore.disk_mb"] = self.disk_mb_peak
        rollups = sum(counts.get(f"ops.rollup.{s}", 0.0) for s in ("cold", "incremental", "cache"))
        out["ops.incremental_ratio"] = ratio(counts.get("ops.rollup.incremental", 0.0), rollups)
        out["readcache.hit_ratio"] = ratio(
            counts.get("readcache.hits", 0.0),
            counts.get("readcache.hits", 0.0) + counts.get("readcache.loads", 0.0),
        )
        out["readcache.admit_ratio"] = ratio(
            counts.get("readcache.admitted", 0.0), counts.get("readcache.loads", 0.0)
        )
        out["storage.hsm_hit_ratio"] = ratio(
            counts.get("storage.hsm_hits", 0.0),
            counts.get("storage.hsm_hits", 0.0) + counts.get("storage.tape_recalls", 0.0),
        )
        out["workload.replay_overhead_s"] = counts.get("workload.replay_overhead_s", 0.0) / per
        out["trace.overhead_s"] = counts.get("trace.overhead_s", 0.0)
        return {metric: out[metric] for _, metric in PER_LAYER}


_CACHE_COUNTS = ("readcache.hits", "readcache.loads", "readcache.admitted", "readcache.evictions")


def _cache_counts(cache) -> tuple:
    """A read cache's counters in ``_CACHE_COUNTS`` order."""
    stats = cache.stats
    return (stats.hits + stats.negative_hits, stats.misses, stats.admitted, stats.evictions)


def _size(path: Path) -> float:
    try:
        return float(path.stat().st_size)
    except OSError:
        return 0.0
