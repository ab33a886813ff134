"""Figure 4 — impact of co-location interference.

Sweeps a uniform pairwise co-location throughput over
{1, 0.95, 0.9, 0.85, 0.8} and compares No-Packing, Owl, Eva-RP
(interference-blind packing) and Eva-TNRP (the full scheduler).  The
paper's expected shape: Eva-RP's cost and JCT blow up as interference
grows, while Eva-TNRP holds throughput near Owl's level and stays the
cheapest.
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
from repro.interference.model import InterferenceModel
from repro.sim.batch import Scenario, TraceSpec

INTERFERENCE_LEVELS = (1.0, 0.95, 0.9, 0.85, 0.8)

#: Display name → scheduler registry name for every sweep point.
SCHEDULERS = {
    "No-Packing": "no-packing",
    "Owl": "owl",
    "Eva-RP": "eva-rp",
    "Eva-TNRP": "eva-tnrp",
}


@dataclass(frozen=True)
class Fig4Result:
    table: ExperimentTable
    norm_cost: dict[tuple[str, float], float]  # (scheduler, level) -> cost


def _build(ctx: ExperimentContext) -> ScenarioGrid:
    num_jobs = ctx.param("num_jobs", scaled(200, minimum=60, maximum=3000))
    # A spec, not an inline trace: workers rebuild it instead of paying
    # the per-cell pickle cost of a multi-thousand-job trace.
    trace = TraceSpec.make("alibaba", num_jobs=num_jobs, seed=ctx.seed)
    cells = grid_cells(
        INTERFERENCE_LEVELS,
        SCHEDULERS,
        lambda level, registry_name: Scenario(
            scheduler=registry_name,
            trace=trace,
            interference=InterferenceModel(uniform_value=level),
            seed=ctx.seed,
        ),
    )
    return ScenarioGrid(cells=cells, meta={"num_jobs": num_jobs})


def _aggregate(grid: ScenarioGrid, results) -> Fig4Result:
    rows = []
    norm_cost: dict[tuple[str, float], float] = {}
    for level in INTERFERENCE_LEVELS:
        level_results = results[level]
        baseline = level_results["No-Packing"].total_cost
        for name, result in level_results.items():
            norm = result.total_cost / baseline
            norm_cost[(name, level)] = norm
            rows.append(
                (
                    level,
                    name,
                    round(norm, 3),
                    round(result.mean_normalized_tput(), 3),
                    round(result.mean_jct_hours(), 2),
                )
            )
    table = ExperimentTable(
        title=f"Figure 4: impact of co-location interference "
        f"({grid.meta['num_jobs']} jobs)",
        headers=(
            "Co-location Tput",
            "Scheduler",
            "Norm. Total Cost",
            "Norm. Throughput",
            "JCT (hours)",
        ),
        rows=tuple(rows),
        notes=("uniform pairwise throughput applied to every workload pair",),
    )
    return Fig4Result(table=table, norm_cost=norm_cost)


def _present(result: Fig4Result) -> Presentation:
    from repro.analysis.charts import sweep_chart

    return Presentation.of_tables(
        result.table, extra=sweep_chart("Figure 4", result.norm_cost)
    )


SPEC = register(
    ExperimentSpec(
        id="fig04",
        title="Sweep: uniform co-location interference level",
        params={"num_jobs": int},
        build=_build,
        aggregate=_aggregate,
        present=_present,
    )
)


def run(num_jobs: int | None = None, seed: int = 0) -> Fig4Result:
    return run_experiment(
        SPEC, ExperimentContext(seed=seed, params={"num_jobs": num_jobs})
    ).value
