"""Figure 8 — impact of job arrival rate.

Re-generates the Alibaba-like trace at arrival rates from 0.5 to 3
jobs/hour and compares all five schedulers.  Expected shape: packing
benefits shrink at low rates (fewer co-resident jobs) but Eva stays
10–16% below the other packing schedulers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.comparison import standard_scheduler_names
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
from repro.sim.batch import Scenario, TraceSpec

ARRIVAL_RATES_PER_HOUR = (0.5, 1.0, 2.0, 3.0)


@dataclass(frozen=True)
class Fig8Result:
    table: ExperimentTable
    norm_cost: dict[tuple[str, float], float]


def _build(ctx: ExperimentContext) -> ScenarioGrid:
    num_jobs = ctx.param("num_jobs", scaled(150, minimum=50, maximum=3000))
    # One flat grid over (rate × scheduler) so the whole sweep fans out;
    # specs keep multi-thousand-job traces off the pickle wire.
    cells = grid_cells(
        ARRIVAL_RATES_PER_HOUR,
        standard_scheduler_names(),
        lambda rate, registry_name: Scenario(
            scheduler=registry_name,
            trace=TraceSpec.make(
                "alibaba",
                num_jobs=num_jobs,
                seed=ctx.seed,
                arrival_rate_per_hour=rate,
            ),
            seed=ctx.seed,
        ),
    )
    return ScenarioGrid(cells=cells, meta={"num_jobs": num_jobs})


def _aggregate(grid: ScenarioGrid, results) -> Fig8Result:
    rows = []
    norm_cost: dict[tuple[str, float], float] = {}
    for rate in ARRIVAL_RATES_PER_HOUR:
        rate_results = results[rate]
        baseline = rate_results["No-Packing"].total_cost
        for name, result in rate_results.items():
            norm = result.total_cost / baseline
            norm_cost[(name, rate)] = norm
            rows.append((rate, name, round(norm, 3)))

    table = ExperimentTable(
        title=f"Figure 8: impact of job arrival rate "
        f"({grid.meta['num_jobs']} jobs per point)",
        headers=("Arrival Rate (jobs/hr)", "Scheduler", "Norm. Total Cost"),
        rows=tuple(rows),
    )
    return Fig8Result(table=table, norm_cost=norm_cost)


def _present(result: Fig8Result) -> Presentation:
    from repro.analysis.charts import sweep_chart

    return Presentation.of_tables(
        result.table, extra=sweep_chart("Figure 8", result.norm_cost)
    )


SPEC = register(
    ExperimentSpec(
        id="fig08",
        title="Sweep: job arrival rate",
        params={"num_jobs": int},
        build=_build,
        aggregate=_aggregate,
        present=_present,
    )
)


def run(num_jobs: int | None = None, seed: int = 0) -> Fig8Result:
    return run_experiment(
        SPEC, ExperimentContext(seed=seed, params={"num_jobs": num_jobs})
    ).value
