"""C16 — batched kernels and the stage-result cache on the hot paths.

The ROADMAP's engineering north star: the search pipeline should run "as
fast as the hardware allows".  This benchmark measures the batched numeric
kernels against the naive per-trial references they replaced (asserting
bitwise-identical results alongside the speedups), and shows a warm
stage-cache rerun of the Figure-1 flow skipping every stage while
reproducing the cold run's accounting.
"""

import time

import numpy as np

from repro.arecibo.dedisperse import (
    DMGrid,
    dedisperse_all,
    dedisperse_all_reference,
)
from repro.arecibo.filterbank import Filterbank
from repro.arecibo.folding import refine_period, refine_period_reference
from repro.arecibo.fourier import search_dm_block, search_dm_block_reference
from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.singlepulse import (
    DEFAULT_WIDTHS,
    search_single_pulse_block,
    search_single_pulse_block_reference,
)
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.core.stagecache import StageCache
from repro.core.telemetry import strip_wall_clock

# Laptop-scale but honest: large enough that numpy dispatch overhead is
# negligible and the measured ratios are stable run to run.
DEDISP_CHANNELS = 64
DEDISP_SAMPLES = 1024
DEDISP_TRIALS = 384
SEARCH_TRIALS = 512
SEARCH_SAMPLES = 512
FOLD_SAMPLES = 8192
FOLD_TRIALS = 64
# The Figure-1 survey's transient search: every 4th row of the 124-trial
# DM grid of a 64ch x 4096smp beam.
PULSE_ROWS = 31
PULSE_SAMPLES = 4096


def best_of(fn, reps=3):
    """(best wall seconds, last result) over ``reps`` calls."""
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_filterbank(seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(DEDISP_CHANNELS, DEDISP_SAMPLES)).astype(np.float32)
    return Filterbank(
        data=data, freq_low_mhz=1220.0, freq_high_mhz=1520.0, tsamp_s=64e-6
    )


def test_c16_batched_dedispersion(report_rows):
    filterbank = bench_filterbank()
    # dm_max=2000 drives per-channel delays past n_samples, so the batch
    # is also exercising the wrap-around path it must get right.
    grid = DMGrid.linear(0.0, 2000.0, DEDISP_TRIALS)

    naive_s, naive_block = best_of(
        lambda: dedisperse_all_reference(filterbank, grid)
    )
    batched_s, batched_block = best_of(lambda: dedisperse_all(filterbank, grid))

    assert np.array_equal(batched_block, naive_block)
    speedup = naive_s / batched_s
    report_rows(
        "C16: batched dedispersion vs per-trial np.roll loop",
        [
            {
                "kernel": "dedisperse_all",
                "shape": f"{DEDISP_CHANNELS}ch x {DEDISP_SAMPLES}smp x {DEDISP_TRIALS}DM",
                "naive": f"{naive_s * 1e3:.1f} ms",
                "batched": f"{batched_s * 1e3:.1f} ms",
                "speedup": f"{speedup:.1f}x",
                "identical": "bitwise",
            }
        ],
    )
    assert speedup >= 5.0


def test_c16_batched_spectrum_search(report_rows):
    rng = np.random.default_rng(1)
    block = rng.normal(size=(SEARCH_TRIALS, SEARCH_SAMPLES))
    trials = tuple(np.linspace(0.0, 300.0, SEARCH_TRIALS).tolist())
    tsamp = 64e-6

    naive_s, naive_cands = best_of(
        lambda: search_dm_block_reference(block, trials, tsamp, snr_threshold=4.0)
    )
    batched_s, batched_cands = best_of(
        lambda: search_dm_block(block, trials, tsamp, snr_threshold=4.0)
    )

    assert batched_cands == naive_cands
    speedup = naive_s / batched_s
    report_rows(
        "C16: batched spectrum search vs per-row loop",
        [
            {
                "kernel": "search_dm_block",
                "shape": f"{SEARCH_TRIALS}DM x {SEARCH_SAMPLES}smp",
                "candidates": len(batched_cands),
                "naive": f"{naive_s * 1e3:.1f} ms",
                "batched": f"{batched_s * 1e3:.1f} ms",
                "speedup": f"{speedup:.1f}x",
                "identical": "exact",
            }
        ],
    )
    assert speedup >= 3.0


def test_c16_batched_folding(report_rows):
    rng = np.random.default_rng(2)
    period = 0.05
    tsamp = 1e-3
    times = np.arange(FOLD_SAMPLES) * tsamp
    series = rng.normal(size=FOLD_SAMPLES) + 2.0 * (
        np.mod(times, period) < 0.1 * period
    )

    naive_s, naive_best = best_of(
        lambda: refine_period_reference(series, tsamp, period, n_trials=FOLD_TRIALS)
    )
    batched_s, batched_best = best_of(
        lambda: refine_period(series, tsamp, period, n_trials=FOLD_TRIALS)
    )

    assert batched_best == naive_best
    speedup = naive_s / batched_s
    report_rows(
        "C16: batched period refinement vs per-trial folds",
        [
            {
                "kernel": "refine_period",
                "shape": f"{FOLD_SAMPLES}smp x {FOLD_TRIALS} trials",
                "naive": f"{naive_s * 1e3:.1f} ms",
                "batched": f"{batched_s * 1e3:.1f} ms",
                "speedup": f"{speedup:.1f}x",
                "identical": "exact",
            }
        ],
    )
    # Folding is scatter-add bound, so the win is smaller than the gather
    # kernels'; it must at least never regress below the naive loop.
    assert speedup >= 1.0


def test_c16_batched_single_pulse_search(report_rows):
    rng = np.random.default_rng(3)
    block = rng.normal(size=(PULSE_ROWS, PULSE_SAMPLES)).astype(np.float32)
    # One bright 8-sample transient, strongest near its true DM row.
    for row in range(PULSE_ROWS):
        block[row, 2000:2008] += 12.0 / (1.0 + abs(row - 15))
    dms = tuple(np.linspace(0.0, 100.0, PULSE_ROWS).tolist())
    tsamp = 5e-4

    naive_s, naive_events = best_of(
        lambda: search_single_pulse_block_reference(block, tsamp, dms, snr_threshold=7.0)
    )
    batched_s, batched_events = best_of(
        lambda: search_single_pulse_block(block, tsamp, dms, snr_threshold=7.0)
    )

    assert batched_events == naive_events
    speedup = naive_s / batched_s
    report_rows(
        "C16: batched single-pulse search vs per-row, per-width boxcar loop",
        [
            {
                "kernel": "search_single_pulse_block",
                "shape": f"{PULSE_ROWS}DM x {PULSE_SAMPLES}smp x {len(DEFAULT_WIDTHS)} widths",
                "events": sum(len(row) for row in batched_events),
                "naive": f"{naive_s * 1e3:.1f} ms",
                "batched": f"{batched_s * 1e3:.1f} ms",
                "speedup": f"{speedup:.1f}x",
                "identical": "exact",
            }
        ],
    )
    assert speedup >= 2.0


def _fig1_config():
    return AreciboPipelineConfig(
        n_pointings=2,
        observation=ObservationConfig(n_channels=48, n_samples=4096),
        sky=SkyModel(
            seed=23,
            pulsar_fraction=0.5,
            binary_fraction=0.0,
            transient_rate=0.5,
            period_range_s=(0.03, 0.12),
            snr_range=(15.0, 30.0),
        ),
        seed=23,
    )


def test_c16_warm_cache_figure1_rerun(tmp_path, report_rows):
    """A warm rerun of Figure 1 hits on every stage and replays identical
    accounting, spending (almost) no compute."""
    cache = StageCache()

    cold_s_start = time.perf_counter()
    cold = run_arecibo_pipeline(tmp_path / "cold", _fig1_config(), cache=cache)
    cold_s = time.perf_counter() - cold_s_start
    stage_count = len(cold.flow_report.summary_rows())  # one row per stage

    warm_s_start = time.perf_counter()
    warm = run_arecibo_pipeline(tmp_path / "warm", _fig1_config(), cache=cache)
    warm_s = time.perf_counter() - warm_s_start

    # Every stage serviced from the cache, nothing recomputed.
    assert cache.hits == stage_count
    assert cache.stats()["misses"] == stage_count
    # Accounting-identical reports: same tables, same telemetry stream
    # modulo wall-clock, same science products.
    assert warm.flow_report.summary_rows() == cold.flow_report.summary_rows()
    assert strip_wall_clock(warm.flow_report.events) == strip_wall_clock(
        cold.flow_report.events
    )
    assert warm.score == cold.score
    assert warm.confirmed == cold.confirmed

    report_rows(
        "C16: Figure-1 rerun against a warm stage cache",
        [
            {
                "run": "cold",
                "wall": f"{cold_s:.2f} s",
                "stage hits": 0,
                "stage misses": stage_count,
                "recall": f"{cold.score.recall:.2f}",
            },
            {
                "run": "warm",
                "wall": f"{warm_s:.2f} s",
                "stage hits": cache.hits,
                "stage misses": 0,
                "recall": f"{warm.score.recall:.2f}",
            },
        ],
    )
    # The warm run skips all stage compute; even with fixed per-run setup
    # (sky generation, report scoring) it must be substantially faster.
    assert warm_s < cold_s
