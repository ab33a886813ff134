"""Synthetic traces for the physical experiments (§6.1).

The paper's physical experiments use synthetic traces "similar to prior
work": jobs sampled from the ten Table-7 workloads, durations uniform in
[0.5, 3] hours, Poisson arrivals with a 20-minute mean inter-arrival time.
The small-scale experiment has 32 jobs (Table 11), the large-scale one 120
jobs (Table 10); the Table 6 micro-benchmark uses 100 4-task jobs with
durations in [0.5, 16] hours.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.trace import (
    Trace,
    _validate_deadline_knobs,
    poisson_arrival_times,
    sample_deadlines,
    sort_jobs_by_arrival,
)
from repro.workloads.workloads import TABLE7_WORKLOADS, WorkloadSpec

#: Default mean inter-arrival time used throughout the evaluation (§6.1).
DEFAULT_INTERARRIVAL_S = 20.0 * 60.0


def synthetic_trace(
    num_jobs: int,
    seed: int = 0,
    duration_range_hours: tuple[float, float] = (0.5, 3.0),
    mean_interarrival_s: float = DEFAULT_INTERARRIVAL_S,
    workloads: tuple[WorkloadSpec, ...] = TABLE7_WORKLOADS,
    name: str | None = None,
    deadline_fraction: float = 0.0,
    deadline_slack_range: tuple[float, float] = (1.5, 3.0),
) -> Trace:
    """A physical-experiment-style trace.

    Jobs are sampled uniformly from ``workloads``; durations uniformly
    from ``duration_range_hours``; arrivals follow a Poisson process.

    ``deadline_fraction`` makes that fraction of jobs (in expectation)
    deadline-bearing: each selected job's ``deadline_hours`` is its
    duration times a slack factor drawn uniformly from
    ``deadline_slack_range`` (the deadline clock starts at arrival, so
    slack must cover queueing, launch delays, and interference — a
    factor near 1 is a near-unattainable SLO, the tightness axis of the
    ``deadline-slo`` experiment).  The default ``0.0`` draws nothing
    extra from the RNG stream, so legacy traces stay byte-identical;
    with a positive fraction, the deadline draws happen after all
    arrival/workload/duration draws, so sweeping tightness at a fixed
    seed reuses the identical underlying job stream.
    """
    if num_jobs <= 0:
        raise ValueError("num_jobs must be positive")
    lo, hi = duration_range_hours
    if not 0 < lo <= hi:
        raise ValueError(f"invalid duration range {duration_range_hours}")
    _validate_deadline_knobs(deadline_fraction, deadline_slack_range)

    rng = np.random.default_rng(seed)
    arrivals = poisson_arrival_times(num_jobs, mean_interarrival_s, rng)
    jobs = []
    for idx in range(num_jobs):
        spec = workloads[int(rng.integers(len(workloads)))]
        duration = float(rng.uniform(lo, hi))
        jobs.append(
            spec.make_job(
                duration_hours=duration,
                arrival_time_s=arrivals[idx],
                job_id=f"syn-{idx:04d}",
            )
        )
    jobs = sample_deadlines(jobs, rng, deadline_fraction, deadline_slack_range)
    return Trace(
        name=name or f"synthetic-{num_jobs}", jobs=sort_jobs_by_arrival(jobs)
    )


def small_physical_trace(seed: int = 0) -> Trace:
    """The 32-job trace of the small-scale physical experiment (Table 11)."""
    return synthetic_trace(32, seed=seed, name="physical-32")


def multitask_microbench_trace(
    num_jobs: int = 100,
    tasks_per_job: int = 4,
    seed: int = 0,
    duration_range_hours: tuple[float, float] = (0.5, 16.0),
    mean_interarrival_s: float = DEFAULT_INTERARRIVAL_S,
) -> Trace:
    """The Table 6 micro-benchmark trace: multi-task jobs arriving over time.

    Each job consists of ``tasks_per_job`` identical tasks, uniformly
    sampled from Table 7, with durations in [0.5, 16] hours.
    """
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrival_times(num_jobs, mean_interarrival_s, rng)
    jobs = []
    for idx in range(num_jobs):
        spec = TABLE7_WORKLOADS[int(rng.integers(len(TABLE7_WORKLOADS)))]
        duration = float(rng.uniform(*duration_range_hours))
        jobs.append(
            spec.make_job(
                duration_hours=duration,
                arrival_time_s=arrivals[idx],
                num_tasks=tasks_per_job,
                job_id=f"mt-{idx:04d}",
            )
        )
    return Trace(name=f"multitask-{num_jobs}x{tasks_per_job}", jobs=sort_jobs_by_arrival(jobs))


def microbench_task_pool(num_tasks: int, seed: int = 0) -> list:
    """A bag of independent tasks for the Table 4/5 packing micro-benchmarks.

    Tasks are sampled from the Table-7 workloads as single-task jobs (the
    micro-benchmark packs an instantaneous task set, so arrival times and
    durations are irrelevant).
    """
    rng = np.random.default_rng(seed)
    tasks = []
    for idx in range(num_tasks):
        spec = TABLE7_WORKLOADS[int(rng.integers(len(TABLE7_WORKLOADS)))]
        job = spec.make_job(
            duration_hours=1.0,
            arrival_time_s=0.0,
            num_tasks=1,
            job_id=f"mb-{idx:05d}",
        )
        tasks.append(job.tasks[0])
    return tasks
