"""Table 6 — multi-task job micro-benchmark: Eva-Single vs Eva-Multi.

Each trial schedules multi-task jobs (4 identical tasks, durations 0.5–16
hours, Table-7 workloads) through the full simulator and compares
No-Packing, Eva without the §4.4 interdependency extension (Eva-Single),
and Eva with it (Eva-Multi).  Costs are normalized to No-Packing per
trial; JCT is reported in hours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import ExperimentTable
from repro.experiments.common import scaled
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentSpec,
    ScenarioGrid,
    grid_cells,
    register,
    run_experiment,
)
from repro.sim.batch import Scenario, TraceSpec

#: Display name → scheduler registry name for every trial.
VARIANTS = {
    "No-Packing": "no-packing",
    "Eva-Single": "eva-single",
    "Eva-Multi": "eva",
}


@dataclass(frozen=True)
class Table6Result:
    table: ExperimentTable
    norm_costs: dict[str, tuple[float, float]]  # name -> (mean, std)
    jcts: dict[str, tuple[float, float]]


def _build(ctx: ExperimentContext) -> ScenarioGrid:
    trials = ctx.param("trials", scaled(3, minimum=2, maximum=10))
    jobs = ctx.param("jobs_per_trial", scaled(40, minimum=20, maximum=100))
    # Workers rebuild each trial's trace from the spec (cheap to pickle).
    cells = grid_cells(
        range(trials),
        VARIANTS,
        lambda trial, registry_name: Scenario(
            scheduler=registry_name,
            trace=TraceSpec.make(
                "multitask-microbench",
                num_jobs=jobs,
                tasks_per_job=4,
                seed=ctx.seed + trial,
            ),
            seed=ctx.seed + trial,
        ),
    )
    return ScenarioGrid(cells=cells, meta={"trials": trials, "jobs": jobs})


def _aggregate(grid: ScenarioGrid, results) -> Table6Result:
    trials, jobs = grid.meta["trials"], grid.meta["jobs"]
    norm_costs: dict[str, list[float]] = {name: [] for name in VARIANTS}
    jcts: dict[str, list[float]] = {name: [] for name in VARIANTS}
    for trial in range(trials):
        trial_results = results[trial]
        baseline_cost = trial_results["No-Packing"].total_cost
        for name, result in trial_results.items():
            norm_costs[name].append(result.total_cost / baseline_cost)
            jcts[name].append(result.mean_jct_hours())

    def mean_std(values: list[float]) -> tuple[float, float]:
        arr = np.array(values)
        return float(arr.mean()), float(arr.std())

    rows = []
    cost_stats: dict[str, tuple[float, float]] = {}
    jct_stats: dict[str, tuple[float, float]] = {}
    for name in VARIANTS:
        cm, cs = mean_std(norm_costs[name])
        jm, js = mean_std(jcts[name])
        cost_stats[name] = (cm, cs)
        jct_stats[name] = (jm, js)
        rows.append(
            (
                name,
                f"{cm * 100:.1f}% ± {cs * 100:.1f}%",
                f"{jm:.2f} ± {js:.2f}",
            )
        )
    table = ExperimentTable(
        title=f"Table 6: multi-task job micro-benchmark "
        f"({trials} trials x {jobs} four-task jobs)",
        headers=("Scheduler", "Norm. Total Cost", "JCT (hours)"),
        rows=tuple(rows),
        notes=("costs normalized to No-Packing per trial",),
    )
    return Table6Result(table=table, norm_costs=cost_stats, jcts=jct_stats)


SPEC = register(
    ExperimentSpec(
        id="table06",
        title="Micro-benchmark: multi-task jobs (Eva-Single vs Eva-Multi)",
        params={"trials": int, "jobs_per_trial": int},
        build=_build,
        aggregate=_aggregate,
        # The grid's trial axis IS a seed sweep (seed + trial per cell);
        # generic --seeds reseeding would collapse it, so it's ignored.
        multi_seed=False,
    )
)


def run(
    trials: int | None = None,
    jobs_per_trial: int | None = None,
    seed: int = 0,
) -> Table6Result:
    return run_experiment(
        SPEC,
        ExperimentContext(
            seed=seed, params={"trials": trials, "jobs_per_trial": jobs_per_trial}
        ),
    ).value
