"""Figure 5 — impact of migration overhead.

Sweeps the job-migration delay multiplier (1×–8×) and reports:

* **(a)** the proportion of rounds where Eva's ensemble adopted Full
  Reconfiguration, and Eva's migration count per job — both should fall
  as migration gets more expensive;
* **(b)** normalized total cost for Eva, Eva without Partial
  Reconfiguration (Full-only), and Stratus — Full-only should degrade
  with the multiplier while Eva and Stratus stay flat.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import ExperimentTable
from repro.cloud.delays import DelayModel
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

DELAY_MULTIPLIERS = (1.0, 2.0, 4.0, 8.0)

#: Display name → scheduler registry name for every sweep point; the
#: No-Packing entry is the per-multiplier normalization baseline.
SCHEDULERS = {
    "No-Packing": "no-packing",
    "Eva": "eva",
    "Eva Full-only": "eva-full-only",
    "Stratus": "stratus",
}


@dataclass(frozen=True)
class Fig5Result:
    adoption_table: ExperimentTable  # Figure 5a
    cost_table: ExperimentTable  # Figure 5b
    full_adoption: dict[float, float]
    norm_cost: dict[tuple[str, float], float]


def _build(ctx: ExperimentContext) -> ScenarioGrid:
    num_jobs = ctx.param("num_jobs", scaled(200, minimum=60, maximum=3000))
    trace = TraceSpec.make("alibaba", num_jobs=num_jobs, seed=ctx.seed)
    cells = grid_cells(
        DELAY_MULTIPLIERS,
        SCHEDULERS,
        lambda mult, registry_name: Scenario(
            scheduler=registry_name,
            trace=trace,
            delay_model=DelayModel(migration_multiplier=mult),
            seed=ctx.seed,
        ),
    )
    return ScenarioGrid(cells=cells, meta={"num_jobs": num_jobs})


def _aggregate(grid: ScenarioGrid, results) -> Fig5Result:
    adoption_rows = []
    cost_rows = []
    full_adoption: dict[float, float] = {}
    norm_cost: dict[tuple[str, float], float] = {}
    for mult in DELAY_MULTIPLIERS:
        mult_results = dict(results[mult])
        baseline = mult_results.pop("No-Packing")
        eva_result = mult_results["Eva"]
        adoption = eva_result.full_adoption_fraction or 0.0
        full_adoption[mult] = adoption
        adoption_rows.append(
            (
                f"{mult:.0f}x",
                f"{adoption * 100:.1f}%",
                round(eva_result.migrations / max(1, eva_result.num_jobs), 2),
            )
        )
        for name, result in mult_results.items():
            norm = result.total_cost / baseline.total_cost
            norm_cost[(name, mult)] = norm
            cost_rows.append((f"{mult:.0f}x", name, round(norm, 3)))

    adoption_table = ExperimentTable(
        title=f"Figure 5a: Full Reconfiguration adoption vs migration delay "
        f"({grid.meta['num_jobs']} jobs)",
        headers=("Delay Mult.", "Full Reconfig Adopted", "Migrations per Job"),
        rows=tuple(adoption_rows),
    )
    cost_table = ExperimentTable(
        title="Figure 5b: normalized total cost vs migration delay",
        headers=("Delay Mult.", "Scheduler", "Norm. Total Cost"),
        rows=tuple(cost_rows),
        notes=("normalized to No-Packing at the same delay multiplier",),
    )
    return Fig5Result(
        adoption_table=adoption_table,
        cost_table=cost_table,
        full_adoption=full_adoption,
        norm_cost=norm_cost,
    )


def _present(result: Fig5Result) -> Presentation:
    return Presentation.of_tables(result.adoption_table, result.cost_table)


SPEC = register(
    ExperimentSpec(
        id="fig05",
        title="Sweep: job-migration delay multiplier",
        params={"num_jobs": int},
        build=_build,
        aggregate=_aggregate,
        present=_present,
    )
)


def run(num_jobs: int | None = None, seed: int = 0) -> Fig5Result:
    return run_experiment(
        SPEC, ExperimentContext(seed=seed, params={"num_jobs": num_jobs})
    ).value
