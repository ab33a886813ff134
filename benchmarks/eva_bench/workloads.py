"""The benchmark's four workloads, built from a seed.

Each workload is a fixed job population — one of the repository's trace
builders at base seed 0, at the size in :data:`NUM_JOBS` — plus the
scheduler and environment it runs under.  The benchmark seed perturbs
that population: it picks :data:`SWAPS` pairs of consecutive arrivals
and swaps the arrival times within each pair.  Different seeds therefore
give different inputs (other co-arrivals, other packings, other result
digests) while the load shape — arrival rate, job-size mix, duration
tail, total work, price path — stays the workload's own.  A fresh draw
of the whole trace per seed would not do: the Alibaba duration tail
alone moves total cost by a factor of two between seeds, which would
swamp every bound the benchmark sets.  Even a few swaps send the packing
down another path.  Counted in Python calls inside ``run()`` over seeds
30-39, the work of ``replay-wide`` has an interquartile range of 0.8% of
its median with 5 swaps, against 3.1% when every other pair may swap;
``steady-narrow`` 0.5% against 1.4%, ``market-churn`` 1.4% either way.

Why each workload is in the benchmark is recorded in ``BENCHMARK.json``
and the README.  The ``repro`` imports sit inside :func:`build_scenario`
because the simulation child counts them as set-up time.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

#: Population size per workload: one simulation takes 0.15-2.5 s on a
#: 2-core x86 host, so a run of ``--seconds 25`` fits six or more
#: fresh-process repeats of every workload.  Short repeats matter on a
#: shared host, whose slow spells last a second or two: with several
#: repeats every round has unslowed repeats to take its cost from.
NUM_JOBS = {
    "replay-wide": 600,
    "steady-narrow": 600,
    "market-churn": 300,
    "replay-nopacking": 600,
}

NAMES = tuple(NUM_JOBS)

#: Seconds one timed repeat takes, process start to exit, on a busy
#: shared 2-core x86 host.  ``run.py`` divides ``--seconds`` by it to fix
#: the repeat count, so the count never depends on the code under test.
REPEAT_S = {
    "replay-wide": 3.2,
    "steady-narrow": 4.0,
    "market-churn": 3.0,
    "replay-nopacking": 1.2,
}

#: Duration clip of the replay trace (the builder's default is 24 h).
#: Every replay run ends with a drain as long as the clip, whose steady
#: rounds the round memo serves; at 600 jobs (15 h of arrivals) a 24 h
#: drain would be most of the run, so the clip keeps the wide-pool phase
#: the dominant one.
REPLAY_CLIP_HOURS = 8.0

#: Base seed of every trace builder, price path and spot draw.
BASE_SEED = 0

#: Pairs of consecutive arrivals each seed swaps (see the module docstring).
SWAPS = 5


def shuffle_arrivals(trace, seed: int):
    """``trace`` with the arrival times of :data:`SWAPS` seed-chosen pairs
    of consecutive jobs swapped."""
    from repro.workloads.trace import Trace, sort_jobs_by_arrival

    rng = np.random.default_rng(seed)
    jobs = list(trace.jobs)
    for i in sorted(rng.choice(len(jobs) - 1, size=min(SWAPS, len(jobs) // 2), replace=False)):
        a, b = jobs[i], jobs[i + 1]
        jobs[i] = replace(a, arrival_time_s=b.arrival_time_s)
        jobs[i + 1] = replace(b, arrival_time_s=a.arrival_time_s)
    return Trace(name=f"{trace.name}~s{seed}", jobs=sort_jobs_by_arrival(jobs))


def build_scenario(name: str, seed: int, num_jobs: int | None = None):
    """The :class:`~repro.sim.batch.Scenario` of workload ``name`` at ``seed``."""
    from repro.sim.batch import Scenario, TraceSpec
    from repro.sim.simulator import DEFAULT_PERIOD_S, SpotConfig

    if name not in NUM_JOBS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    n = NUM_JOBS[name] if num_jobs is None else num_jobs
    if name in ("replay-wide", "replay-nopacking"):
        spec = TraceSpec.make(
            "alibaba-replay",
            num_jobs=n,
            seed=BASE_SEED,
            clip_hours=REPLAY_CLIP_HOURS,
        )
    elif name == "steady-narrow":
        spec = TraceSpec.make("alibaba", num_jobs=n, seed=BASE_SEED)
    else:
        spec = TraceSpec.make(
            "synthetic",
            num_jobs=n,
            seed=BASE_SEED,
            mean_interarrival_s=600.0,
            deadline_fraction=0.4,
        )
    trace = shuffle_arrivals(spec.build(), seed)
    if name != "market-churn":
        scheduler = "no-packing" if name == "replay-nopacking" else "eva"
        return Scenario(scheduler, trace, seed=BASE_SEED)

    from repro.experiments.spot_market import market_config

    return Scenario(
        "eva-market",
        trace,
        spot=SpotConfig(
            enabled=True,
            preemption_rate_per_hour=0.15,
            seed=BASE_SEED,
            notice_s=DEFAULT_PERIOD_S,
        ),
        market=market_config(0.3, BASE_SEED),
        seed=BASE_SEED,
    )
