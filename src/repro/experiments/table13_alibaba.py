"""Table 13 — end-to-end simulation with Alibaba job durations.

The headline experiment: the Alibaba-like trace (Table 8 GPU mix, Table 9
Alibaba durations) under all five schedulers.  The paper's full trace has
6,274 jobs; the default here is scaled (``EVA_BENCH_SCALE=8`` restores
full size).
"""

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
class Table13Result:
    table: ExperimentTable
    comparison: ComparisonResult


def _build(ctx: ExperimentContext) -> ScenarioGrid:
    num_jobs = ctx.param(
        "num_jobs", scaled(500, minimum=100, maximum=6274)
    )
    # A spec, not an inline trace: workers rebuild the (up to 6,274-job)
    # trace instead of unpickling one copy per scheduler.
    trace = TraceSpec.make("alibaba", num_jobs=num_jobs, seed=ctx.seed)
    return comparison_grid(
        trace, seed=ctx.seed, meta={"trace": trace, "num_jobs": num_jobs}
    )


def _aggregate(grid: ScenarioGrid, results) -> Table13Result:
    comparison = comparison_from_results(grid.meta["trace"], results[None])
    table = comparison.end_to_end_table(
        f"Table 13: end-to-end simulation, Alibaba durations "
        f"({grid.meta['num_jobs']} jobs)"
    )
    return Table13Result(table=table, comparison=comparison)


SPEC = register(
    ExperimentSpec(
        id="table13",
        title="End-to-end, Alibaba durations (headline experiment)",
        params={"num_jobs": int},
        build=_build,
        aggregate=_aggregate,
    )
)


def run(num_jobs: int | None = None, seed: int = 0) -> Table13Result:
    return run_experiment(
        SPEC, ExperimentContext(seed=seed, params={"num_jobs": num_jobs})
    ).value
