"""Spot-market economics — cost vs volatility across bidding policies.

Sweeps the spot market's price *volatility* (the random-walk step of the
pool price processes in :mod:`repro.cloud.market`) and compares plain
Eva against ``eva-market``: Eva with the
:class:`~repro.core.market.MarketPrices` signal, which consumes
:class:`~repro.core.protocol.PriceChanged` /
:class:`~repro.core.protocol.PoolExhausted` /
:class:`~repro.core.protocol.SpotEvictionNotice` observations to track
live pool prices in its reservation-price calculator, refuse bids above
its ceiling, migrate across pools through the ordinary Algorithm-1
path, and fall back to on-demand during eviction storms.  No-Packing
rides along as the cost-normalization baseline.

The market couples eviction pressure to price
(``MarketConfig.eviction_coupling``): a pool trading above par is also
the pool reclaiming capacity fastest, exactly the regime where bidding
blindly is expensive.  Stock Eva keeps packing into whatever the static
catalog says is cheapest and eats both the inflated bill and the
eviction churn; the market-aware variant shifts load to the cheaper
pool while prices are split and stops bidding spot when evictions
cluster.

Expected shape: at near-zero volatility the two Eva variants track each
other (prices barely leave par, so market awareness has nothing to
exploit — a built-in sanity row); as volatility grows the gap opens —
Eva-Market's normalized cost drops below Eva's at equal or better
goodput, because every dollar of price spread is arbitrage the repriced
reservation prices harvest.  Deadline-bearing jobs keep the attainment
column honest: cost savings bought by stalling work would show up as
missed SLOs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import ExperimentTable
from repro.cloud.market import MarketConfig, MarketPool
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
from repro.sim.batch import Scenario, TraceSpec, TrialSet
from repro.sim.simulator import DEFAULT_PERIOD_S, SpotConfig

#: Price-walk volatility per step (std-dev of the log-price increment).
#: 0.05 barely leaves par (the sanity row); 0.15 and 0.3 are regimes
#: where pool prices routinely split by 1.5-3x within a trace.
VOLATILITY = (0.05, 0.15, 0.3)

#: Price step cadence: slow enough that a price spread persists across
#: several scheduling rounds — migration only pays when the price it
#: chases outlives the move.
PRICE_STEP_S = 6 * DEFAULT_PERIOD_S

#: Baseline spot preemption rate; the market scales it by
#: ``multiplier ** EVICTION_COUPLING`` per launch, so expensive pools
#: also churn hardest.
PREEMPTION_RATE_PER_HOUR = 0.15
EVICTION_COUPLING = 2.0

#: Fraction of jobs carrying a deadline — keeps the attainment column
#: meaningful (cost savings bought by stalling work would miss SLOs).
DEADLINE_FRACTION = 0.4

#: Dense arrivals so pools stay populated and price moves matter.
MEAN_INTERARRIVAL_S = 600.0

SCHEDULERS = {
    "No-Packing": "no-packing",
    "Eva": "eva",
    "Eva-Market": "eva-market",
}


def market_config(volatility: float, seed: int) -> MarketConfig:
    """The two-pool CPU market every sweep cell trades in.

    c7i and r7i carry identical per-task demands in the synthetic
    workloads, so they are perfect substitutes — cross-pool migration
    is purely a price decision, which is exactly what the sweep
    measures.  GPU capacity (p3) stays unpooled at par: it has no
    substitute family, so a volatile GPU pool would only add noise the
    policy cannot arbitrage away.
    """
    return MarketConfig(
        enabled=True,
        seed=seed,
        eviction_coupling=EVICTION_COUPLING,
        pools=(
            MarketPool(
                name="cpu-c", families=("c7i",),
                volatility=volatility, step_s=PRICE_STEP_S,
            ),
            MarketPool(
                name="cpu-r", families=("r7i",),
                volatility=volatility, step_s=PRICE_STEP_S,
            ),
        ),
    )


@dataclass(frozen=True)
class SpotMarketResult:
    table: ExperimentTable
    #: (display name, volatility) -> total cost normalized to No-Packing.
    normalized_cost: dict[tuple[str, float], float]
    #: (display name, volatility) -> preemption count.
    preemptions: dict[tuple[str, float], int]


def _build(ctx: ExperimentContext) -> ScenarioGrid:
    num_jobs = ctx.param("num_jobs", scaled(32, minimum=12, maximum=400))
    cells = grid_cells(
        VOLATILITY,
        SCHEDULERS,
        lambda volatility, registry_name: Scenario(
            scheduler=registry_name,
            trace=TraceSpec.make(
                "synthetic",
                num_jobs=num_jobs,
                seed=ctx.seed,
                mean_interarrival_s=MEAN_INTERARRIVAL_S,
                deadline_fraction=DEADLINE_FRACTION,
            ),
            spot=SpotConfig(
                enabled=True,
                preemption_rate_per_hour=PREEMPTION_RATE_PER_HOUR,
                seed=ctx.seed,
                notice_s=DEFAULT_PERIOD_S,
            ),
            market=market_config(volatility, seed=ctx.seed),
            seed=ctx.seed,
        ),
    )
    return ScenarioGrid(cells=cells, meta={"num_jobs": num_jobs})


def _aggregate(grid: ScenarioGrid, results) -> SpotMarketResult:
    rows = []
    normalized: dict[tuple[str, float], float] = {}
    preemptions: dict[tuple[str, float], int] = {}
    for volatility in VOLATILITY:
        point_results = dict(results[volatility])
        baseline = point_results["No-Packing"]
        for name in SCHEDULERS:
            result = point_results[name]
            norm = result.total_cost / baseline.total_cost
            normalized[(name, volatility)] = norm
            preemptions[(name, volatility)] = result.preemptions
            rows.append(
                (
                    f"{volatility:.2f}",
                    name,
                    round(result.total_cost, 2),
                    round(norm, 3),
                    round(result.mean_jct_hours(), 3),
                    result.preemptions,
                    f"{result.deadline_attainment:.1%}",
                    result.price_changes,
                )
            )
    table = ExperimentTable(
        title=(
            f"Spot market: cost vs price volatility "
            f"({grid.meta['num_jobs']} jobs, "
            f"coupling {EVICTION_COUPLING:.0f})"
        ),
        headers=(
            "Volatility",
            "Scheduler",
            "Total Cost ($)",
            "Norm. Cost",
            "JCT (hours)",
            "Preemptions",
            "Attainment",
            "Price Changes",
        ),
        rows=tuple(rows),
        notes=(
            "volatility = std-dev of the per-step log-price increment",
            "normalized to No-Packing at the same volatility",
            f"spot eviction rate scales with price^{EVICTION_COUPLING:.0f}",
        ),
    )
    return SpotMarketResult(
        table=table, normalized_cost=normalized, preemptions=preemptions
    )


def _present(result: SpotMarketResult) -> Presentation:
    return Presentation.of_tables(result.table)


def _trial_table(
    spec: ExperimentSpec, grid: ScenarioGrid, trials: TrialSet
) -> ExperimentTable:
    """Multi-seed summary keeping the cost-vs-goodput frontier visible."""
    if len(trials) != len(grid.cells):
        raise ValueError(
            f"{len(trials)} aggregates for {len(grid.cells)} grid cells"
        )
    by_cell = list(zip(grid.cells, trials.aggregates))
    baselines = {
        cell.point: aggregate
        for cell, aggregate in by_cell
        if cell.display == grid.baseline
    }
    rows = []
    for cell, aggregate in by_cell:
        baseline = baselines[cell.point]
        rows.append(
            (
                f"{cell.point:.2f}",
                cell.display,
                f"{aggregate.total_cost:.2f}",
                f"{aggregate.normalized_cost(baseline):.3f}",
                f"{aggregate.stat(lambda r: r.mean_jct_hours()):.3f}",
                f"{aggregate.stat(lambda r: float(r.preemptions)):.1f}",
                f"{aggregate.stat(lambda r: r.deadline_attainment):.3f}",
            )
        )
    seeds_text = ", ".join(str(s) for s in trials.seeds)
    return ExperimentTable(
        title=(
            f"{spec.id}: cost vs price volatility ({len(trials.seeds)} seeds)"
        ),
        headers=(
            "Volatility",
            "Scheduler",
            "Total Cost ($)",
            "Norm. Cost",
            "JCT (hours)",
            "Preemptions",
            "Attainment",
        ),
        rows=tuple(rows),
        notes=(
            f"mean ± std (population) over seeds [{seeds_text}]",
            "normalized to No-Packing at the same volatility and seed",
        ),
    )


SPEC = register(
    ExperimentSpec(
        id="spot-market",
        title="Extension: spot-market economics — market-aware Eva vs Eva vs No-Packing",
        build=_build,
        aggregate=_aggregate,
        present=_present,
        trial_table=_trial_table,
    )
)


def run(num_jobs: int | None = None, seed: int = 0) -> SpotMarketResult:
    return run_experiment(
        SPEC, ExperimentContext(seed=seed, params={"num_jobs": num_jobs})
    ).value
