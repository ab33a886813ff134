"""Reliability — goodput vs. cost under stochastic failures.

Sweeps the *fault intensity* (the per-instance crash hazard, with
correlated domain shocks and stragglers scaled along) over a synthetic
trace and compares plain Eva against ``eva-failure``: Eva with the
:class:`~repro.core.failure.FailureHazard` signal, which consumes
:class:`~repro.core.protocol.InstanceFailed` /
:class:`~repro.core.protocol.StragglerReport` observations, maintains
per-domain empirical hazard estimates, and escalates a struck job's
reservation-price degradation charge so Algorithm 1 un-packs it (and
drains straggler-degraded instances like notice-doomed spot capacity).
No-Packing rides along as the cost-normalization baseline.

Expected shape: at low hazard the policies track each other (the
urgency machinery barely engages, and strikes are rare enough that the
escalation is noise); as hazard grows, Eva keeps paying full price for
straggler-degraded instances and keeps struck jobs packed — so they run
slower, stay exposed longer, and lose more work per crash — while
Eva-Failure drains degraded capacity and isolates repeat victims,
recovering goodput at a cost still well under No-Packing's.

Headline columns go beyond the standard cost/JCT set: **goodput**
(useful work over useful + lost work), **restarts** (task re-executions
forced by failures), **work lost** (hours rolled back to the last
checkpoint), and **MTTR** (mean seconds from a job's loss of progress
to its rate recovering above zero).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import ExperimentTable
from repro.experiments.common import scaled
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentSpec,
    Presentation,
    ScenarioGrid,
    grid_cells,
    register,
    run_experiment,
)
from repro.sim.batch import Scenario, TraceSpec, TrialSet
from repro.sim.simulator import FailureConfig, RetryPolicy

#: Per-instance crash hazard sweep points (events/hour), calmest first.
#: 0.1/h is background noise over hour-scale jobs; 0.3/h is hostile —
#: an instance alive for 3 hours more likely than not gets hit.
CRASH_RATES = (0.1, 0.3)

#: Correlated domain shocks arrive at this fraction of the crash rate
#: (each shock kills *every* instance in one failure domain, so even a
#: small rate dominates the work-lost tally at scale).
SHOCK_FRACTION = 1.0 / 3.0

#: Stragglers (degraded-throughput faults) arrive at the crash rate —
#: the CASH observation that slow-but-alive faults are at least as
#: common as crashes.
STRAGGLER_FRACTION = 1.0

#: Checkpoint cadence and cost: a 15-minute cadence bounds any single
#: rollback, for a 2% steady-state throughput tax on everyone.
RETRY = RetryPolicy(checkpoint_interval_s=900.0, checkpoint_overhead=0.02)

#: Mean inter-arrival time: denser than the §6.1 default so enough jobs
#: overlap for packing — and its interference — to matter on CI-sized
#: traces (the deadline-slo precedent).
MEAN_INTERARRIVAL_S = 600.0

#: Job durations: hour-scale, so the sweep's hazards translate into a
#: meaningful per-job failure probability without needing huge traces.
DURATION_RANGE_HOURS = (0.2, 1.0)

SCHEDULERS = {
    "No-Packing": "no-packing",
    "Eva": "eva",
    "Eva-Failure": "eva-failure",
}


def failure_config(crash_rate: float, seed: int = 0) -> FailureConfig:
    """The sweep's :class:`FailureConfig` at one crash-hazard point."""
    return FailureConfig(
        enabled=True,
        crash_rate_per_hour=crash_rate,
        domain_shock_rate_per_hour=crash_rate * SHOCK_FRACTION,
        straggler_rate_per_hour=crash_rate * STRAGGLER_FRACTION,
        retry=RETRY,
        seed=seed,
    )


@dataclass(frozen=True)
class ReliabilityResult:
    table: ExperimentTable
    #: (display name, crash rate) -> goodput fraction in (0, 1].
    goodput: dict[tuple[str, float], float]
    #: (display name, crash rate) -> task restarts forced by failures.
    restarts: dict[tuple[str, float], int]


def _build(ctx: ExperimentContext) -> ScenarioGrid:
    num_jobs = ctx.param("num_jobs", scaled(24, minimum=12, maximum=400))
    cells = grid_cells(
        CRASH_RATES,
        SCHEDULERS,
        lambda crash_rate, registry_name: Scenario(
            scheduler=registry_name,
            trace=TraceSpec.make(
                "synthetic",
                num_jobs=num_jobs,
                seed=ctx.seed,
                mean_interarrival_s=MEAN_INTERARRIVAL_S,
                duration_range_hours=DURATION_RANGE_HOURS,
            ),
            failures=failure_config(crash_rate, seed=ctx.seed),
            seed=ctx.seed,
        ),
    )
    return ScenarioGrid(cells=cells, meta={"num_jobs": num_jobs})


def _aggregate(grid: ScenarioGrid, results) -> ReliabilityResult:
    rows = []
    goodput: dict[tuple[str, float], float] = {}
    restarts: dict[tuple[str, float], int] = {}
    for crash_rate in CRASH_RATES:
        point_results = dict(results[crash_rate])
        baseline = point_results["No-Packing"]
        for name in SCHEDULERS:
            result = point_results[name]
            goodput[(name, crash_rate)] = result.goodput_fraction
            restarts[(name, crash_rate)] = result.task_restarts
            rows.append(
                (
                    f"{crash_rate:.2f}/h",
                    name,
                    round(result.total_cost, 2),
                    round(result.total_cost / baseline.total_cost, 3),
                    f"{result.goodput_fraction:.1%}",
                    result.task_restarts,
                    round(result.work_lost_h, 2),
                    round(result.mean_mttr_s(), 0),
                    round(result.mean_jct_hours(), 3),
                )
            )
    table = ExperimentTable(
        title=(
            f"Reliability: goodput vs cost across fault intensity "
            f"({grid.meta['num_jobs']} jobs, shocks at "
            f"{SHOCK_FRACTION:.2f}x and stragglers at "
            f"{STRAGGLER_FRACTION:.2f}x the crash rate)"
        ),
        headers=(
            "Crash Rate",
            "Scheduler",
            "Total Cost ($)",
            "Norm. Cost",
            "Goodput",
            "Restarts",
            "Work Lost (h)",
            "MTTR (s)",
            "JCT (hours)",
        ),
        rows=tuple(rows),
        notes=(
            "goodput = useful work / (useful + lost) work",
            f"checkpoints every {RETRY.checkpoint_interval_s:.0f}s at "
            f"{RETRY.checkpoint_overhead:.0%} throughput overhead",
            "normalized to No-Packing at the same crash rate",
        ),
    )
    return ReliabilityResult(table=table, goodput=goodput, restarts=restarts)


def _present(result: ReliabilityResult) -> Presentation:
    return Presentation.of_tables(result.table)


def _trial_table(
    spec: ExperimentSpec, grid: ScenarioGrid, trials: TrialSet
) -> ExperimentTable:
    """Multi-seed summary keeping the goodput-vs-cost frontier visible."""
    if len(trials) != len(grid.cells):
        raise ValueError(
            f"{len(trials)} aggregates for {len(grid.cells)} grid cells"
        )
    by_cell = list(zip(grid.cells, trials.aggregates))
    baselines = {
        cell.point: aggregate
        for cell, aggregate in by_cell
        if cell.display == grid.baseline
    }
    rows = []
    for cell, aggregate in by_cell:
        baseline = baselines[cell.point]
        rows.append(
            (
                f"{cell.point:.2f}/h",
                cell.display,
                f"{aggregate.total_cost:.2f}",
                f"{aggregate.normalized_cost(baseline):.3f}",
                f"{aggregate.stat(lambda r: r.goodput_fraction):.3f}",
                f"{aggregate.stat(lambda r: float(r.task_restarts)):.1f}",
                f"{aggregate.stat(lambda r: r.work_lost_h):.2f}",
                f"{aggregate.stat(lambda r: r.mean_mttr_s()):.0f}",
            )
        )
    seeds_text = ", ".join(str(s) for s in trials.seeds)
    return ExperimentTable(
        title=(
            f"{spec.id}: goodput vs cost across fault intensity "
            f"({len(trials.seeds)} seeds)"
        ),
        headers=(
            "Crash Rate",
            "Scheduler",
            "Total Cost ($)",
            "Norm. Cost",
            "Goodput",
            "Restarts",
            "Work Lost (h)",
            "MTTR (s)",
        ),
        rows=tuple(rows),
        notes=(
            f"mean ± std (population) over seeds [{seeds_text}]",
            "goodput = useful work / (useful + lost) work",
            "normalized to No-Packing at the same crash rate and seed",
        ),
    )


SPEC = register(
    ExperimentSpec(
        id="reliability",
        title="Extension: reliability — failure-aware Eva vs Eva vs No-Packing",
        params={"num_jobs": int},
        build=_build,
        aggregate=_aggregate,
        present=_present,
        trial_table=_trial_table,
    )
)


def run(num_jobs: int | None = None, seed: int = 0) -> ReliabilityResult:
    return run_experiment(
        SPEC, ExperimentContext(seed=seed, params={"num_jobs": num_jobs})
    ).value
