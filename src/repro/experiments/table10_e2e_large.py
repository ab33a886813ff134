"""Table 10 + Figure 3 — end-to-end experiment with the 120-job trace.

The paper's large-scale physical experiment compares No-Packing, Stratus
and Eva on a 120-job synthetic trace; here the same trace runs on the
simulator (documented substitution, DESIGN.md §2).  Outputs the Table-10
summary and the Figure-3 instance-uptime CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.comparison import ComparisonResult, comparison_from_results
from repro.analysis.reporting import ExperimentTable, render_cdf
from repro.experiments.common import scaled
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentSpec,
    Presentation,
    ScenarioGrid,
    comparison_grid,
    register,
    run_experiment,
)
from repro.sim.batch import TraceSpec

SCHEDULERS = {
    "No-Packing": "no-packing",
    "Stratus": "stratus",
    "Eva": "eva",
}


@dataclass(frozen=True)
class Table10Result:
    table: ExperimentTable
    uptime_cdf_text: str
    comparison: ComparisonResult


def _build(ctx: ExperimentContext) -> ScenarioGrid:
    num_jobs = ctx.param("num_jobs", scaled(120, minimum=40, maximum=120))
    trace = TraceSpec.make(
        "synthetic", num_jobs=num_jobs, seed=ctx.seed, name=f"physical-{num_jobs}"
    )
    return comparison_grid(
        trace,
        SCHEDULERS,
        seed=ctx.seed,
        meta={"trace": trace, "num_jobs": num_jobs},
    )


def _aggregate(grid: ScenarioGrid, results) -> Table10Result:
    comparison = comparison_from_results(grid.meta["trace"], results[None])
    table = comparison.allocation_table(
        f"Table 10: end-to-end experiment with {grid.meta['num_jobs']} jobs"
    )
    cdf = render_cdf(
        "Figure 3: instance uptime CDF (hours at cumulative fraction)",
        {
            name: result.uptime_cdf()
            for name, result in comparison.results.items()
        },
    )
    return Table10Result(table=table, uptime_cdf_text=cdf, comparison=comparison)


def _present(result: Table10Result) -> Presentation:
    return Presentation.of_tables(result.table, extra=result.uptime_cdf_text)


SPEC = register(
    ExperimentSpec(
        id="table10",
        title="End-to-end, 120-job physical trace + Figure 3 uptime CDF",
        params={"num_jobs": int},
        build=_build,
        aggregate=_aggregate,
        present=_present,
    )
)


def run(num_jobs: int | None = None, seed: int = 0) -> Table10Result:
    return run_experiment(
        SPEC, ExperimentContext(seed=seed, params={"num_jobs": num_jobs})
    ).value
