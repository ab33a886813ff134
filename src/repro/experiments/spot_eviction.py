"""Spot eviction notices — the protocol-native scenario family (§7).

Sweeps the spot market's advance-warning window (``SpotConfig.notice_s``)
and compares plain Eva against ``eva-eviction-aware``: Eva with the
:class:`~repro.core.scheduler.EvictionNotices` signal, which consumes
:class:`~repro.core.protocol.SpotEvictionNotice` observations and hides
doomed instances from packing, so they drain before the market reclaims
them.  No-Packing rides along as the cost-normalization baseline.

Expected shape: at ``notice=0`` the two Eva variants are *identical*
(no notices are ever emitted — a built-in sanity row); with a notice
window of at least one scheduling period the eviction-aware variant
converts forced preemptions into planned drains — preemptions drop to
(near) zero, migrations rise, and JCT improves because tasks skip the
queued-until-next-round gap after each eviction.
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
from repro.sim.simulator import DEFAULT_PERIOD_S, SpotConfig

#: Advance-warning windows, in scheduling periods (0 = classic spot
#: market with no warning; >= 1 guarantees a reacting round).
NOTICE_PERIODS = (0.0, 1.0, 2.0)

#: Preemption rate making evictions frequent enough to matter on the
#: trace sizes below (a few per simulated hour of fleet time).
PREEMPTION_RATE_PER_HOUR = 0.2

SCHEDULERS = {
    "No-Packing": "no-packing",
    "Eva": "eva",
    "Eva-Eviction-Aware": "eva-eviction-aware",
}


@dataclass(frozen=True)
class SpotEvictionResult:
    table: ExperimentTable
    #: (display name, notice periods) -> preemption count.
    preemptions: dict[tuple[str, float], int]


def _build(ctx: ExperimentContext) -> ScenarioGrid:
    num_jobs = ctx.param("num_jobs", scaled(40, minimum=12, maximum=400))
    trace = TraceSpec.make("synthetic", num_jobs=num_jobs, seed=ctx.seed)
    cells = grid_cells(
        NOTICE_PERIODS,
        SCHEDULERS,
        lambda periods, registry_name: Scenario(
            scheduler=registry_name,
            trace=trace,
            spot=SpotConfig(
                enabled=True,
                preemption_rate_per_hour=PREEMPTION_RATE_PER_HOUR,
                seed=ctx.seed,
                notice_s=periods * DEFAULT_PERIOD_S,
            ),
            seed=ctx.seed,
        ),
    )
    return ScenarioGrid(cells=cells, meta={"num_jobs": num_jobs})


def _aggregate(grid: ScenarioGrid, results) -> SpotEvictionResult:
    rows = []
    preemptions: dict[tuple[str, float], int] = {}
    for periods in NOTICE_PERIODS:
        point_results = dict(results[periods])
        baseline = point_results["No-Packing"]
        for name in SCHEDULERS:
            result = point_results[name]
            preemptions[(name, periods)] = result.preemptions
            rows.append(
                (
                    f"{periods:.0f}p",
                    name,
                    round(result.total_cost, 2),
                    round(result.total_cost / baseline.total_cost, 3),
                    round(result.mean_jct_hours(), 3),
                    result.preemptions,
                    result.migrations,
                )
            )
    table = ExperimentTable(
        title=(
            f"Spot eviction notices: cost/JCT vs notice window "
            f"({grid.meta['num_jobs']} jobs, "
            f"rate {PREEMPTION_RATE_PER_HOUR}/h)"
        ),
        headers=(
            "Notice",
            "Scheduler",
            "Total Cost ($)",
            "Norm. Cost",
            "JCT (hours)",
            "Preemptions",
            "Migrations",
        ),
        rows=tuple(rows),
        notes=(
            "notice window in scheduling periods (1p = 300s)",
            "normalized to No-Packing at the same notice window",
        ),
    )
    return SpotEvictionResult(table=table, preemptions=preemptions)


def _present(result: SpotEvictionResult) -> Presentation:
    return Presentation.of_tables(result.table)


SPEC = register(
    ExperimentSpec(
        id="spot-eviction",
        title="Extension: spot eviction notices vs eviction-aware Eva",
        params={"num_jobs": int},
        build=_build,
        aggregate=_aggregate,
        present=_present,
    )
)


def run(num_jobs: int | None = None, seed: int = 0) -> SpotEvictionResult:
    return run_experiment(
        SPEC, ExperimentContext(seed=seed, params={"num_jobs": num_jobs})
    ).value
