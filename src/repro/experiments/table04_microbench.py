"""Table 4 — provisioning-cost micro-benchmark: No-Packing vs Full
Reconfiguration vs ILP.

Independent trials each sample a bag of tasks from the Table-7 workloads
and minimize the instantaneous provisioning cost three ways.  Costs are
normalized to the ILP's (best-found) solution per trial; runtimes are
averaged.  The paper ran 30 trials × 200 tasks with a 30-minute Gurobi
limit; defaults here are scaled for laptop runs (``EVA_BENCH_SCALE``
restores larger sizes) with HiGHS as the solver.

Trials fan out over ``EVA_BENCH_WORKERS`` processes.  Unlike the
simulation experiments, this table is only deterministic while the ILP
proves optimality within its limit: the limit is wall-clock, so when it
binds, CPU contention (e.g. more workers than cores) can change the
best-found incumbent and therefore the normalized costs.  Keep
``EVA_BENCH_WORKERS`` at or below the physical core count when records
need to be comparable; the reported runtimes are in-worker wall-clock
and inflate under contention either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import ExperimentTable
from repro.cloud.catalog import ec2_catalog
from repro.core.evaluation import RPEvaluator
from repro.core.full_reconfig import configuration_cost, full_reconfiguration
from repro.core.ilp import ilp_schedule
from repro.core.reservation_price import ReservationPriceCalculator
from repro.experiments.common import scaled
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentSpec,
    Presentation,
    register,
    run_experiment,
)
from repro.sim.batch import parallel_map
from repro.workloads.synthetic import microbench_task_pool


@dataclass(frozen=True)
class Table4Result:
    table: ExperimentTable
    no_packing_norm: tuple[float, float]  # mean, std
    full_reconfig_norm: tuple[float, float]
    ilp_proven_optimal: int
    trials: int


@dataclass(frozen=True)
class _TrialSpec:
    """One micro-benchmark trial (picklable batch-layer work item)."""

    num_tasks: int
    seed: int
    ilp_time_limit_s: float


@dataclass(frozen=True)
class _TrialResult:
    nopack_norm: float
    full_norm: float
    full_runtime_s: float
    ilp_runtime_s: float
    ilp_proven_optimal: bool


def _run_trial(spec: _TrialSpec) -> _TrialResult:
    """Solve one trial's packing problem three ways (worker-side)."""
    catalog = ec2_catalog()
    calculator = ReservationPriceCalculator(catalog)
    evaluator = RPEvaluator(calculator)
    tasks = microbench_task_pool(spec.num_tasks, seed=spec.seed)
    nopack_cost = calculator.rp_of_set(tasks)

    t0 = time.perf_counter()
    packed = full_reconfiguration(tasks, catalog, evaluator)
    full_runtime = time.perf_counter() - t0
    full_cost = configuration_cost(packed)

    ilp = ilp_schedule(tasks, catalog, time_limit_s=spec.ilp_time_limit_s)
    reference = min(ilp.hourly_cost, full_cost)  # best-found, as in the paper
    return _TrialResult(
        nopack_norm=nopack_cost / reference,
        full_norm=full_cost / reference,
        full_runtime_s=full_runtime,
        ilp_runtime_s=ilp.runtime_s,
        ilp_proven_optimal=ilp.proven_optimal,
    )


def _run(ctx: ExperimentContext) -> Table4Result:
    trials = ctx.param("trials", scaled(3, minimum=2, maximum=30))
    num_tasks = ctx.param("num_tasks", scaled(50, minimum=20, maximum=200))
    ilp_time_limit_s = ctx.param("ilp_time_limit_s", 20.0)
    seed = ctx.seed

    specs = [
        _TrialSpec(
            num_tasks=num_tasks,
            seed=seed + trial,
            ilp_time_limit_s=ilp_time_limit_s,
        )
        for trial in range(trials)
    ]
    trial_results = parallel_map(_run_trial, specs, workers=ctx.workers)

    nopack_norms = [t.nopack_norm for t in trial_results]
    full_norms = [t.full_norm for t in trial_results]
    full_runtimes = [t.full_runtime_s for t in trial_results]
    ilp_runtimes = [t.ilp_runtime_s for t in trial_results]
    proven = sum(1 for t in trial_results if t.ilp_proven_optimal)

    def mean_std(values: list[float]) -> tuple[float, float]:
        arr = np.array(values)
        return float(arr.mean()), float(arr.std())

    np_m, np_s = mean_std(nopack_norms)
    fr_m, fr_s = mean_std(full_norms)
    table = ExperimentTable(
        title="Table 4: provisioning-cost micro-benchmark "
        f"({trials} trials x {num_tasks} tasks)",
        headers=("Scheduler", "Provisioning Cost (norm.)", "Runtime"),
        rows=(
            ("No-Packing", f"{np_m:.2f} ± {np_s:.2f}x", f"{0.0:.0f}ms"),
            (
                "Full Reconfig.",
                f"{fr_m:.2f} ± {fr_s:.2f}x",
                f"{np.mean(full_runtimes) * 1000:.0f}ms",
            ),
            (
                "ILP",
                "1x",
                f"{np.mean(ilp_runtimes):.1f}s"
                + ("" if proven == trials else f" (time limit, {proven}/{trials} proven)"),
            ),
        ),
        notes=(
            "costs normalized to the best solution found per trial",
            f"ILP solver: HiGHS, {ilp_time_limit_s:.0f}s limit "
            "(paper: Gurobi, 30min limit)",
        ),
    )
    return Table4Result(
        table=table,
        no_packing_norm=(np_m, np_s),
        full_reconfig_norm=(fr_m, fr_s),
        ilp_proven_optimal=proven,
        trials=trials,
    )


SPEC = register(
    ExperimentSpec(
        id="table04",
        title="Micro-benchmark: provisioning cost vs Full Reconfig vs ILP",
        params={"trials": int, "num_tasks": int, "ilp_time_limit_s": float},
        direct=_run,
        present=lambda result: Presentation.of_tables(result.table),
    )
)


def run(
    trials: int | None = None,
    num_tasks: int | None = None,
    ilp_time_limit_s: float = 20.0,
    seed: int = 0,
) -> Table4Result:
    return run_experiment(
        SPEC,
        ExperimentContext(
            seed=seed,
            params={
                "trials": trials,
                "num_tasks": num_tasks,
                "ilp_time_limit_s": ilp_time_limit_s,
            },
        ),
    ).value
