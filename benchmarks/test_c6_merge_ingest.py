"""C6 — merge-based ingest vs long open transactions (Section 3.2).

Paper claim regenerated here: "Rather than having long-running jobs hold
lengthy open transactions on the main data repository, it proved simpler
to create a personal EventStore for the operation, which is merged into
the larger store upon successful completion [...] the highest degree of
integrity protection for the centrally managed data repositories."

The harness runs N producer jobs against a collaboration store two ways —
direct writes (failing mid-job) vs produce-into-personal-then-merge
(failing mid-job) — and measures what the failure leaves behind, plus the
end-to-end ingest throughput of the merge path.
"""


from repro.eventstore.merge import merge_into
from repro.eventstore.provenance import stamp_step
from repro.eventstore.scales import CollaborationEventStore, PersonalEventStore

from tests.eventstore.conftest import make_events, make_run


def produce_runs(first_run, count, seed_base=0):
    produced = []
    for offset in range(count):
        number = first_run + offset
        events = make_events(run_number=number, count=20, seed=seed_base + number)
        produced.append((make_run(number=number, events=events), events))
    return produced


def direct_ingest_with_failure(collab, produced, fail_after):
    """The anti-pattern: write straight into the shared store, die midway."""
    written = 0
    try:
        for index, (run, events) in enumerate(produced):
            if index == fail_after:
                raise RuntimeError("job crashed mid-ingest")
            collab.inject(
                run, events, "Recon_v1", "recon",
                stamp_step("PassRecon", "v1", {"run": run.number}),
                admin=True,
            )
            written += 1
    except RuntimeError:
        pass
    return written


def merge_ingest_with_failure(collab, produced, fail_after, workdir):
    """The paper's pattern: produce into a personal store, merge on success."""
    personal = PersonalEventStore(workdir / "job", name="job")
    try:
        for index, (run, events) in enumerate(produced):
            if index == fail_after:
                raise RuntimeError("job crashed mid-production")
            personal.inject(
                run, events, "Recon_v1", "recon",
                stamp_step("PassRecon", "v1", {"run": run.number}),
            )
        merge_into(personal, collab)
    except RuntimeError:
        pass  # nothing was merged; the collaboration store never saw the job
    finally:
        personal.close()


def test_c6_integrity_under_failure(benchmark, tmp_path, report_rows):
    produced = benchmark.pedantic(produce_runs, args=(1, 6), rounds=1, iterations=1)

    with CollaborationEventStore(tmp_path / "direct") as direct:
        direct_ingest_with_failure(direct, produced, fail_after=3)
        direct_leftover = direct.file_count()

    with CollaborationEventStore(tmp_path / "merged") as merged:
        merge_ingest_with_failure(merged, produced, fail_after=3, workdir=tmp_path)
        merge_leftover = merged.file_count()

    # Direct writes leave a partial job in the shared repository; the merge
    # pattern leaves it untouched.
    assert direct_leftover == 3
    assert merge_leftover == 0

    report_rows(
        "C6a: what a mid-job crash leaves in the collaboration store",
        [
            {"ingest pattern": "direct long transaction", "partial files left": 3},
            {"ingest pattern": "personal store + merge", "partial files left": 0},
        ],
    )


def test_c6_merge_throughput(benchmark, tmp_path, report_rows):
    """Throughput of the full produce-and-merge cycle for one job."""
    counter = {"n": 0}

    def one_job():
        counter["n"] += 1
        base = counter["n"] * 100
        produced = produce_runs(base, 4, seed_base=base)
        personal = PersonalEventStore(tmp_path / f"job{base}", name=f"job{base}")
        for run, events in produced:
            personal.inject(
                run, events, "Recon_v1", "recon",
                stamp_step("PassRecon", "v1", {"run": run.number}),
            )
        report = merge_into(personal, collab)
        personal.close()
        return report

    with CollaborationEventStore(tmp_path / "collab") as collab:
        report = benchmark.pedantic(one_job, rounds=5, iterations=1)
        assert report.files_added == 4
        # Successive merges from distinct jobs all landed: one job per round
        # actually run (5 when benchmarking, 1 under --benchmark-disable).
        assert collab.file_count() == counter["n"] * 4
        report_rows(
            "C6b: merge ingest",
            [
                {"metric": "files per job", "value": 4},
                {"metric": "jobs merged", "value": counter["n"]},
                {"metric": "conflicts", "value": 0},
            ],
        )
