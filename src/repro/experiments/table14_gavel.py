"""Table 14 — end-to-end simulation with Gavel job durations.

Same trace construction as Table 13 but durations drawn from the Gavel
model (10^x minutes; §6.1), emphasising long-running training jobs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.comparison import ComparisonResult, comparison_from_results
from repro.analysis.reporting import ExperimentTable
from repro.experiments.common import scaled
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentSpec,
    ScenarioGrid,
    comparison_grid,
    register,
    run_experiment,
)
from repro.sim.batch import TraceSpec


@dataclass(frozen=True)
class Table14Result:
    table: ExperimentTable
    comparison: ComparisonResult


def _build(ctx: ExperimentContext) -> ScenarioGrid:
    num_jobs = ctx.param("num_jobs", scaled(250, minimum=80, maximum=6274))
    trace = TraceSpec.make("alibaba-gavel", num_jobs=num_jobs, seed=ctx.seed)
    return comparison_grid(
        trace, seed=ctx.seed, meta={"trace": trace, "num_jobs": num_jobs}
    )


def _aggregate(grid: ScenarioGrid, results) -> Table14Result:
    comparison = comparison_from_results(grid.meta["trace"], results[None])
    table = comparison.end_to_end_table(
        f"Table 14: end-to-end simulation, Gavel durations "
        f"({grid.meta['num_jobs']} jobs)"
    )
    return Table14Result(table=table, comparison=comparison)


SPEC = register(
    ExperimentSpec(
        id="table14",
        title="End-to-end, Gavel durations (long-running training jobs)",
        params={"num_jobs": int},
        build=_build,
        aggregate=_aggregate,
    )
)


def run(num_jobs: int | None = None, seed: int = 0) -> Table14Result:
    return run_experiment(
        SPEC, ExperimentContext(seed=seed, params={"num_jobs": num_jobs})
    ).value
