"""Kernel microbenchmark: events/sec of the scheduling core, vs the seed.

Unlike the figure benchmarks this measures the *simulator itself*: how many
events per wall-clock second the kernel dispatches on same-instant-heavy
and timeout-heavy workloads.  The frozen seed-kernel replica inside
:mod:`repro.bench.kernel` provides the baseline ratio, so the speedup from
the two-tier queue is re-measured on every run instead of trusting a
recorded number.
"""

from repro.bench.kernel import run_kernel_bench

# Smaller than the CLI defaults: CI boxes are noisy and the ratio is what
# matters here, not the absolute rate.
BENCH_EVENTS = 100_000


def test_kernel_same_instant_speedup(run_once):
    """The headline claim: >= 2x events/sec on the same-instant workload."""
    rows = run_once(run_kernel_bench, events=BENCH_EVENTS,
                    workloads=("same-instant",))
    (row,) = rows
    assert row["events_per_sec"] > 0
    assert row["speedup_vs_seed"] >= 2.0, (
        f"two-tier kernel only {row['speedup_vs_seed']:.2f}x the seed "
        f"({row['events_per_sec_m']:.2f} vs {row['seed_events_per_sec_m']:.2f}"
        " Mev/s)"
    )


def test_kernel_event_churn_faster_than_seed(run_once):
    """Allocation-inclusive same-instant mix must still beat the seed."""
    rows = run_once(run_kernel_bench, events=BENCH_EVENTS,
                    workloads=("event-churn",))
    (row,) = rows
    assert row["speedup_vs_seed"] >= 1.2


def test_kernel_timeout_heavy_beats_seed(run_once):
    """Timer-bound workload: the instant heap must beat the tuple heap.

    Timer construction is a large, identical share on both kernels, so
    the ratio is the smallest of the five; assert a floor with headroom
    for shared-box noise rather than the measured plateau itself.
    """
    rows = run_once(run_kernel_bench, events=BENCH_EVENTS,
                    workloads=("timeout-heavy",))
    (row,) = rows
    assert row["speedup_vs_seed"] >= 1.2


def test_kernel_timeout_cancel_heavy_beats_seed(run_once):
    """The schedule-then-cancel idiom: compaction vs seed heap garbage."""
    rows = run_once(run_kernel_bench, events=BENCH_EVENTS,
                    workloads=("timeout-cancel-heavy",))
    (row,) = rows
    assert row["speedup_vs_seed"] >= 1.3


def test_kernel_fleet_scale_speedup(run_once):
    """Aligned heartbeat cohorts: shared-instant batching must dominate."""
    rows = run_once(run_kernel_bench, events=BENCH_EVENTS,
                    workloads=("fleet-scale",))
    (row,) = rows
    assert row["speedup_vs_seed"] >= 2.0


def test_kernel_full_sweep_reports_all_workloads(run_once):
    rows = run_once(run_kernel_bench, events=20_000, repeat=1)
    assert [row["workload"] for row in rows] == [
        "same-instant", "event-churn", "timeout-heavy",
        "timeout-cancel-heavy", "fleet-scale",
    ]
    for row in rows:
        assert row["events"] >= 20_000
        assert row["events_per_sec"] > 0
        assert row["seed_events_per_sec"] > 0
