"""Figure 7 — impact of multi-task jobs.

Duplicates a growing fraction of trace jobs into 2-/4-task jobs (1:1
mix, demands preserved) and compares No-Packing, Stratus, Eva-Single
(no §4.4 interdependency handling) and Eva.  Expected shape: Eva leads
throughout; Eva-Single costs up to ~13% more as multi-task jobs grow.
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
from repro.sim.batch import Scenario, TraceSpec

MULTI_TASK_FRACTIONS = (0.0, 0.2, 0.4, 0.6)

#: Display name → scheduler registry name for every sweep point.
SCHEDULERS = {
    "No-Packing": "no-packing",
    "Stratus": "stratus",
    "Eva-Single": "eva-single",
    "Eva": "eva",
}


@dataclass(frozen=True)
class Fig7Result:
    table: ExperimentTable
    norm_cost: dict[tuple[str, float], float]


def _build(ctx: ExperimentContext) -> ScenarioGrid:
    num_jobs = ctx.param("num_jobs", scaled(180, minimum=50, maximum=3000))
    cells = grid_cells(
        MULTI_TASK_FRACTIONS,
        SCHEDULERS,
        lambda fraction, registry_name: Scenario(
            scheduler=registry_name,
            trace=TraceSpec.make(
                "alibaba-multi-task",
                num_jobs=num_jobs,
                multi_task_fraction=fraction,
                seed=ctx.seed,
            ),
            seed=ctx.seed,
        ),
    )
    return ScenarioGrid(cells=cells, meta={"num_jobs": num_jobs})


def _aggregate(grid: ScenarioGrid, results) -> Fig7Result:
    rows = []
    norm_cost: dict[tuple[str, float], float] = {}
    for fraction in MULTI_TASK_FRACTIONS:
        fraction_results = results[fraction]
        baseline = fraction_results["No-Packing"].total_cost
        for name, result in fraction_results.items():
            norm = result.total_cost / baseline
            norm_cost[(name, fraction)] = norm
            rows.append((f"{fraction * 100:.0f}%", name, round(norm, 3)))

    table = ExperimentTable(
        title=f"Figure 7: impact of multi-task job proportion "
        f"({grid.meta['num_jobs']} jobs)",
        headers=("Multi-task Jobs", "Scheduler", "Norm. Total Cost"),
        rows=tuple(rows),
        notes=("2-task : 4-task duplication held at 1:1 (§6.7)",),
    )
    return Fig7Result(table=table, norm_cost=norm_cost)


def _present(result: Fig7Result) -> Presentation:
    from repro.analysis.charts import sweep_chart

    return Presentation.of_tables(
        result.table, extra=sweep_chart("Figure 7", result.norm_cost)
    )


SPEC = register(
    ExperimentSpec(
        id="fig07",
        title="Sweep: multi-task job proportion",
        params={"num_jobs": int},
        build=_build,
        aggregate=_aggregate,
        present=_present,
    )
)


def run(num_jobs: int | None = None, seed: int = 0) -> Fig7Result:
    return run_experiment(
        SPEC, ExperimentContext(seed=seed, params={"num_jobs": num_jobs})
    ).value
