"""Deadline SLOs — cost vs. attainment across deadline tightness.

Sweeps the deadline *tightness* (the slack factor between a job's
standalone duration and its SLO) over a deadline-bearing synthetic trace
and compares plain Eva against ``eva-deadline``: Eva with the
:class:`~repro.core.deadline.DeadlineUrgency` signal, which consumes
:class:`~repro.core.protocol.DeadlineApproaching` observations and
escalates an at-risk job's reservation-price degradation charge so
Algorithm 1 un-packs it.  No-Packing rides along as the
cost-normalization baseline — and as the attainment ceiling, since it
never co-locates (every miss under No-Packing is due to queueing and
launch delays alone).

Expected shape: at generous slack all three schedulers attain (deadline
awareness costs nothing — the urgency machinery never engages); as
slack tightens toward the interference stretch, Eva starts missing the
deadlines of jobs it packed, while Eva-Deadline isolates exactly those
jobs and holds attainment at a cost between Eva's and No-Packing's; at
near-1 slack the SLO is unattainable for everyone (provisioning delays
alone exceed the budget) and the policies converge again.

The scenarios raise the simulator's ``deadline_warning_s`` far above
its two-period default so SLOs are announced essentially at arrival —
the policy's own risk estimate, not the warning horizon, then decides
*when* to escalate.  Tightness cells share the seed, so every cell sees
the identical underlying job stream (arrivals, workloads, durations)
with only the deadlines re-scaled.
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

#: Deadline slack factors (deadline = slack × standalone duration),
#: tightest first.  1.25–1.4 is the regime where co-location
#: interference is exactly what breaks the SLO (queueing and launch
#: delays alone fit, a 20–30% throughput loss does not); 2.0 is
#: comfortable — the sanity anchor where deadline awareness must cost
#: nothing.
TIGHTNESS = (1.25, 1.4, 2.0)

#: Fraction of jobs carrying a deadline; the rest keep cost-packing
#: meaningful at every sweep point.
DEADLINE_FRACTION = 0.5

#: Mean inter-arrival time: denser than the §6.1 default (20 min) so
#: enough jobs overlap for packing — and its interference — to matter
#: on CI-sized traces.
MEAN_INTERARRIVAL_S = 600.0

#: Warning horizon: announce SLOs at arrival (escalation timing is the
#: policy's risk estimate, not the horizon).
WARNING_S = 7 * 24 * 3600.0

SCHEDULERS = {
    "No-Packing": "no-packing",
    "Eva": "eva",
    "Eva-Deadline": "eva-deadline",
}


@dataclass(frozen=True)
class DeadlineSloResult:
    table: ExperimentTable
    #: (display name, tightness) -> deadline attainment in [0, 1].
    attainment: dict[tuple[str, float], float]
    #: (display name, tightness) -> deadline miss count.
    misses: dict[tuple[str, float], int]


def _build(ctx: ExperimentContext) -> ScenarioGrid:
    num_jobs = ctx.param("num_jobs", scaled(32, minimum=12, maximum=400))
    cells = grid_cells(
        TIGHTNESS,
        SCHEDULERS,
        lambda slack, registry_name: Scenario(
            scheduler=registry_name,
            trace=TraceSpec.make(
                "synthetic",
                num_jobs=num_jobs,
                seed=ctx.seed,
                mean_interarrival_s=MEAN_INTERARRIVAL_S,
                deadline_fraction=DEADLINE_FRACTION,
                deadline_slack_range=(slack, slack),
            ),
            deadline_warning_s=WARNING_S,
            seed=ctx.seed,
        ),
    )
    return ScenarioGrid(cells=cells, meta={"num_jobs": num_jobs})


def _aggregate(grid: ScenarioGrid, results) -> DeadlineSloResult:
    rows = []
    attainment: dict[tuple[str, float], float] = {}
    misses: dict[tuple[str, float], int] = {}
    for slack in TIGHTNESS:
        point_results = dict(results[slack])
        baseline = point_results["No-Packing"]
        for name in SCHEDULERS:
            result = point_results[name]
            attainment[(name, slack)] = result.deadline_attainment
            misses[(name, slack)] = result.deadline_miss_count
            rows.append(
                (
                    f"{slack:.2f}x",
                    name,
                    round(result.total_cost, 2),
                    round(result.total_cost / baseline.total_cost, 3),
                    f"{result.deadline_attainment:.1%}",
                    f"{result.deadline_miss_count}/{result.deadline_job_count}",
                    round(result.deadline_total_lateness_s / 60.0, 1),
                    round(result.mean_jct_hours(), 3),
                )
            )
    table = ExperimentTable(
        title=(
            f"Deadline SLOs: cost vs attainment across tightness "
            f"({grid.meta['num_jobs']} jobs, "
            f"{DEADLINE_FRACTION:.0%} deadline-bearing)"
        ),
        headers=(
            "Tightness",
            "Scheduler",
            "Total Cost ($)",
            "Norm. Cost",
            "Attainment",
            "Missed",
            "Lateness (min)",
            "JCT (hours)",
        ),
        rows=tuple(rows),
        notes=(
            "tightness = deadline / standalone duration (clock starts at arrival)",
            "normalized to No-Packing at the same tightness",
        ),
    )
    return DeadlineSloResult(table=table, attainment=attainment, misses=misses)


def _present(result: DeadlineSloResult) -> Presentation:
    return Presentation.of_tables(result.table)


def _trial_table(
    spec: ExperimentSpec, grid: ScenarioGrid, trials: TrialSet
) -> ExperimentTable:
    """Multi-seed summary keeping the cost-vs-attainment frontier visible."""
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
                f"{cell.point:.2f}x",
                cell.display,
                f"{aggregate.total_cost:.2f}",
                f"{aggregate.normalized_cost(baseline):.3f}",
                f"{aggregate.stat(lambda r: r.deadline_attainment):.3f}",
                f"{aggregate.stat(lambda r: float(r.deadline_miss_count)):.1f}",
                f"{aggregate.stat(lambda r: r.deadline_total_lateness_s / 60.0):.1f}",
            )
        )
    seeds_text = ", ".join(str(s) for s in trials.seeds)
    return ExperimentTable(
        title=(
            f"{spec.id}: cost vs attainment across tightness "
            f"({len(trials.seeds)} seeds)"
        ),
        headers=(
            "Tightness",
            "Scheduler",
            "Total Cost ($)",
            "Norm. Cost",
            "Attainment",
            "Missed",
            "Lateness (min)",
        ),
        rows=tuple(rows),
        notes=(
            f"mean ± std (population) over seeds [{seeds_text}]",
            "tightness = deadline / standalone duration (clock starts at arrival)",
            "normalized to No-Packing at the same tightness and seed",
        ),
    )


SPEC = register(
    ExperimentSpec(
        id="deadline-slo",
        title="Extension: deadline SLOs — deadline-aware Eva vs Eva vs No-Packing",
        build=_build,
        aggregate=_aggregate,
        present=_present,
        trial_table=_trial_table,
    )
)


def run(num_jobs: int | None = None, seed: int = 0) -> DeadlineSloResult:
    return run_experiment(
        SPEC, ExperimentContext(seed=seed, params={"num_jobs": num_jobs})
    ).value
