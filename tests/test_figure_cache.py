"""Warm stage-cache reruns of the figure pipelines.

Both figure flows take an optional shared StageCache; an unchanged rerun
must hit on every stage, skip all compute, and reproduce the cold run's
accounting exactly (telemetry modulo wall-clock).
"""

from dataclasses import replace

import pytest

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_pipeline
from repro.core.stagecache import StageCache
from repro.core.telemetry import strip_wall_clock


ARECIBO_STAGES = 6
CLEO_STAGES = 5


def small_arecibo_config(workers=1):
    return AreciboPipelineConfig(
        n_pointings=2,
        observation=ObservationConfig(n_channels=32, n_samples=2048),
        sky=SkyModel(seed=3, pulsar_fraction=0.5, transient_rate=0.5),
        seed=11,
        workers=workers,
    )


@pytest.fixture(scope="module")
def arecibo_cold(tmp_path_factory):
    cache = StageCache()
    workdir = tmp_path_factory.mktemp("fig1-cold")
    report = run_arecibo_pipeline(workdir, small_arecibo_config(), cache=cache)
    return cache, report


class TestAreciboWarmRerun:
    def test_every_stage_hits(self, arecibo_cold, tmp_path):
        cache, _ = arecibo_cold
        hits_before = cache.hits
        run_arecibo_pipeline(tmp_path, small_arecibo_config(), cache=cache)
        assert cache.hits - hits_before == ARECIBO_STAGES

    def test_report_accounting_identical(self, arecibo_cold, tmp_path):
        cache, cold = arecibo_cold
        warm = run_arecibo_pipeline(tmp_path, small_arecibo_config(), cache=cache)
        assert warm.flow_report.summary_rows() == cold.flow_report.summary_rows()
        assert strip_wall_clock(warm.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )
        assert warm.score == cold.score
        assert warm.confirmed == cold.confirmed
        assert warm.shipment == cold.shipment
        assert warm.tape_cartridges == cold.tape_cartridges
        assert warm.raw_size == cold.raw_size
        assert warm.dedispersed_size == cold.dedispersed_size

    def test_parallel_engine_serviced_from_sequential_prime(
        self, arecibo_cold, tmp_path
    ):
        cache, cold = arecibo_cold
        warm = run_arecibo_pipeline(
            tmp_path, small_arecibo_config(workers=3), cache=cache
        )
        assert strip_wall_clock(warm.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )

    def test_changed_config_misses(self, arecibo_cold, tmp_path):
        cache, _ = arecibo_cold
        hits_before = cache.hits
        config = replace(small_arecibo_config(), snr_threshold=8.0)
        run_arecibo_pipeline(tmp_path, config, cache=cache)
        assert cache.hits == hits_before

    def test_partial_hit_rebuilds_candidate_db(self, tmp_path):
        """meta-analysis evicted, consolidate cached: the meta stage must
        lazily reload the candidate DB from the process stash."""
        cache = StageCache()
        cold = run_arecibo_pipeline(
            tmp_path / "cold", small_arecibo_config(), cache=cache
        )
        meta_key = cache.keys()[-1]  # last stage completed
        assert cache.invalidate(meta_key)
        warm = run_arecibo_pipeline(
            tmp_path / "warm", small_arecibo_config(), cache=cache
        )
        assert warm.confirmed == cold.confirmed
        assert warm.meta_report == cold.meta_report


class TestCleoWarmRerun:
    def test_rerun_hits_and_matches(self, tmp_path):
        cache = StageCache()
        config = CleoPipelineConfig(n_runs=2, seed=5)
        cold = run_cleo_pipeline(tmp_path / "cold", config, cache=cache)
        warm = run_cleo_pipeline(tmp_path / "warm", config, cache=cache)
        assert cache.stats()["hits"] == CLEO_STAGES
        assert warm.sizes_by_kind == cold.sizes_by_kind
        assert warm.runs == cold.runs
        assert warm.analysis.events_selected == cold.analysis.events_selected
        assert strip_wall_clock(warm.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )

    def test_partial_hit_reinjects_ancestor_products(self, tmp_path):
        """Evict the tail of the chain: the first miss must re-inject its
        cached ancestors' event products before reading the store."""
        cache = StageCache()
        config = CleoPipelineConfig(n_runs=2, seed=5)
        cold = run_cleo_pipeline(tmp_path / "cold", config, cache=cache)
        for key in cache.keys()[2:]:
            cache.invalidate(key)
        warm = run_cleo_pipeline(tmp_path / "warm", config, cache=cache)
        assert warm.sizes_by_kind == cold.sizes_by_kind
        assert warm.analysis.events_selected == cold.analysis.events_selected
        assert strip_wall_clock(warm.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )
