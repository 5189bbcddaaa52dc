"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload survey_batch --seed 1 --seconds 10 --trace 0

Run from the repository root; ``repro`` is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The lines before it print every metric of the workload by name and
unit, with sample counts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries stand for failed requests."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def peak_rss_mb(farm: bool) -> float:
    """This process's peak RSS, plus the largest reaped child's when the
    workload forks farm workers.  (The only other children are the set-up's
    fresh interpreters, which are not part of the workload's footprint.)"""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if farm else 0
    return (own + child) / 1024.0


def summarize(name: str, reps, farm: bool) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Tuple[float, str, int]]]:
    """(end-to-end metrics for the JSON line, every named metric for the report).

    Every timing is a median over all of the run's samples.  The JSON
    metrics are shared by all workloads: ``throughput_per_s`` and
    ``latency_p50_ms`` stand for the workload's own rate and median latency
    among the named metrics (README.md lists which).  On survey_batch the
    two are reciprocals of one sample, the survey wall.
    """
    def samples(key: str) -> List[float]:
        return [value for rep in reps for value in rep.samples.get(key, [])]

    def total(key: str) -> float:
        return sum(rep.totals.get(key, 0.0) for rep in reps)

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    setup = median([rep.setup_s for rep in reps])
    named: Dict[str, Tuple[float, str, int]] = {
        "setup_s": (setup, "s", len(reps)),
        "error_rate": (failed / attempted if attempted else 0.0, "ratio", attempted),
        "peak_rss_mb": (peak_rss_mb(farm), "MB", 1),
    }
    if name == "survey_batch":
        surveys = samples("survey")
        rate = total("pointings") / len(surveys) / median(surveys)
        named["pointings_per_s"] = (rate, "1/s", len(surveys))
        named["shm_leaked"] = (total("shm_leaked"), "count", len(surveys))
        throughput, latency = rate, median(surveys)
    elif name == "survey_nightly":
        windows = samples("window")
        named["window_p50_s"] = (median(windows), "s", len(windows))
        throughput, latency = total("pointings") / sum(windows), median(windows)
    elif name == "weblab_serving":
        scored = samples("read")
        # Median over the replay segments between ingests and refreshes, so
        # a garbage-collector pause in one segment does not move the rate.
        throughput, latency = median(samples("segment_rate")), percentile(scored, 0.50)
        named["serve_rps"] = (throughput, "1/s", len(scored))
        named["serve_p50_ms"] = (latency * 1e3, "ms", len(scored))
        named["serve_p99_ms"] = (percentile(scored, 0.99) * 1e3, "ms", len(scored))
        named["ingest_pages_per_s"] = (
            total("ingest_pages") / sum(samples("ingest")), "1/s", len(samples("ingest")),
        )
        named["console_p50_ms"] = (
            median(samples("console")) * 1e3, "ms", len(samples("console")),
        )
    else:
        throughput = median([rep.totals["events"] / rep.samples["flow"][0] for rep in reps])
        latency = median(samples("analysis"))
        named["events_per_s"] = (throughput, "1/s", len(reps))
        named["analysis_p50_s"] = (latency, "s", len(samples("analysis")))
    metrics = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (named["peak_rss_mb"][0], "MB"),
        "throughput_per_s": (throughput, "1/s"),
        "latency_p50_ms": (latency * 1e3, "ms"),
    }
    return metrics, named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro was imported from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = BENCH_DIR / ".scratch" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        return _run(args, WORKLOADS[args.workload], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is still using it
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop and wait for the resource-tracker process that the farm's shared
    memory started, instead of leaving it to exit after this process."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run(args, workload_cls, scratch: Path) -> int:
    from layers import PER_LAYER, Layers
    from spans import Tracer
    from workloads import NPROC

    workload = workload_cls(args.seed, scratch / "work")
    workload.prepare()

    untraced: List = []
    untraced_walls: List[float] = []
    layers = None
    if args.trace:
        # Two untraced repetitions first: the faster one is the baseline
        # for the tracing overhead (the first may still be warming up).
        for index in range(2):
            start = time.perf_counter()
            untraced.append(workload.repetition(-1 - index))
            untraced_walls.append(time.perf_counter() - start)
        layers = Layers(Tracer(scratch / "sidecars"))
        layers.install()
        workload.probe = layers
    reps = []
    walls: List[float] = []
    measured = 0.0
    while measured < args.seconds or not reps:
        start = time.perf_counter()
        rep = workload.repetition(len(reps))
        walls.append(time.perf_counter() - start)
        reps.append(rep)
        measured += rep.measured_s

    all_reps = reps + untraced
    attempted = sum(rep.attempted for rep in all_reps)
    failed = sum(rep.failed for rep in all_reps)
    metrics, named = summarize(args.workload, reps, workload_cls.FARM)
    print(f"# workload {args.workload} seed {args.seed} on {NPROC} cores "
          f"({len(reps)} repetitions, {measured:.2f} s measured, trace={args.trace})")
    for key, (value, unit, count) in named.items():
        print(f"{key:22s} {value:14.6g} {unit:6s} n={count}")

    if layers is not None:
        overhead = median(walls) - min(untraced_walls)
        layer_metrics = layers.metrics(len(reps), {"trace.overhead_s": overhead})
        units = dict((metric, unit) for unit, metric in PER_LAYER)
        print(f"# traced repetition {median(walls):.3f} s, untraced "
              f"{min(untraced_walls):.3f} s: per-layer metrics per repetition")
        for key, value in layer_metrics.items():
            print(f"  {key:34s} {value:14.6g} {units[key]}")
        out = {key: {"value": value, "unit": units[key]} for key, value in layer_metrics.items()}
    else:
        out = {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
