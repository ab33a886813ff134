"""Figure 6 — impact of workload composition (multi-GPU job proportion).

Remixes the Alibaba-like trace so a growing fraction of jobs are
multi-GPU (2/4/8 GPUs at the paper's 5:4:1 ratio; non-GPU jobs
untouched) and compares No-Packing, Stratus, Synergy, Eva without Full
Reconfiguration, and Eva.  Expected shape: packing benefits shrink as
multi-GPU jobs grow, Eva stays ahead, and dropping Full Reconfiguration
costs up to ~8% extra at high multi-GPU fractions.
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

MULTI_GPU_FRACTIONS = (0.0, 0.2, 0.4, 0.6)

#: Display name → scheduler registry name for every sweep point.
SCHEDULERS = {
    "No-Packing": "no-packing",
    "Stratus": "stratus",
    "Synergy": "synergy",
    "Eva w/o Full Reconfig": "eva-partial-only",
    "Eva": "eva",
}


@dataclass(frozen=True)
class Fig6Result:
    table: ExperimentTable
    norm_cost: dict[tuple[str, float], float]


def _build(ctx: ExperimentContext) -> ScenarioGrid:
    num_jobs = ctx.param("num_jobs", scaled(200, minimum=60, maximum=3000))
    # The remix is a named builder ("alibaba-multi-gpu"), so each cell is
    # a small picklable spec that caches by content and re-seeds across
    # trials; the built trace is byte-identical to the old inline remix.
    cells = grid_cells(
        MULTI_GPU_FRACTIONS,
        SCHEDULERS,
        lambda fraction, registry_name: Scenario(
            scheduler=registry_name,
            trace=TraceSpec.make(
                "alibaba-multi-gpu",
                num_jobs=num_jobs,
                multi_gpu_fraction=fraction,
                seed=ctx.seed,
            ),
            seed=ctx.seed,
        ),
    )
    return ScenarioGrid(cells=cells, meta={"num_jobs": num_jobs})


def _aggregate(grid: ScenarioGrid, results) -> Fig6Result:
    rows = []
    norm_cost: dict[tuple[str, float], float] = {}
    for fraction in MULTI_GPU_FRACTIONS:
        fraction_results = results[fraction]
        baseline = fraction_results["No-Packing"].total_cost
        for name, result in fraction_results.items():
            norm = result.total_cost / baseline
            norm_cost[(name, fraction)] = norm
            rows.append((f"{fraction * 100:.0f}%", name, round(norm, 3)))

    table = ExperimentTable(
        title=f"Figure 6: impact of multi-GPU job proportion "
        f"({grid.meta['num_jobs']} jobs)",
        headers=("Multi-GPU Jobs", "Scheduler", "Norm. Total Cost"),
        rows=tuple(rows),
        notes=("2:4:8-GPU mix held at 5:4:1; non-GPU fraction unchanged",),
    )
    return Fig6Result(table=table, norm_cost=norm_cost)


def _present(result: Fig6Result) -> Presentation:
    from repro.analysis.charts import sweep_chart

    return Presentation.of_tables(
        result.table, extra=sweep_chart("Figure 6", result.norm_cost)
    )


SPEC = register(
    ExperimentSpec(
        id="fig06",
        title="Sweep: multi-GPU job proportion",
        params={"num_jobs": int},
        build=_build,
        aggregate=_aggregate,
        present=_present,
    )
)


def run(num_jobs: int | None = None, seed: int = 0) -> Fig6Result:
    return run_experiment(
        SPEC, ExperimentContext(seed=seed, params={"num_jobs": num_jobs})
    ).value
