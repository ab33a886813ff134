"""Declarative experiment API: specs, the registry, and the runner.

Every paper table/figure is described by an :class:`ExperimentSpec` —
an id, a *scenario grid builder*, an *aggregation*, and a *presentation*
— registered in a process-wide registry at import time of its module.
The registry imports every spec module on its first lookup
(:func:`get_experiment`, :func:`experiment_ids`), so a caller that
only needs one module's helpers loads that module alone.
The CLI (``python -m repro.experiments``), the examples, and the tests
all drive experiments through :func:`run_experiment`, which owns the
shared mechanics the per-module scripts used to hand-roll:

* building the scenario grid from an :class:`ExperimentContext`
  (seed, scale overrides);
* executing it through :func:`repro.sim.batch.run_batch` — fanning out
  over ``EVA_BENCH_WORKERS`` processes and deduplicating against a
  persistent :class:`~repro.sim.results.ResultStore` when one is given;
* multi-seed trials: with ``ctx.seeds`` set, the grid runs across every
  seed via :func:`repro.sim.batch.run_trials` and is presented as a
  mean ± std summary table instead of the single-seed aggregation.

Experiments with no scenario grid (data tables, micro-benchmarks that
time code rather than simulate traces) register a ``direct`` callable
instead; they run in-process and ignore seeds/cache.

Single-seed runs through a grid spec execute the exact scenarios the
pre-redesign per-module scripts built, so their tables are
byte-identical (guarded by the equivalence tests in
``tests/test_experiment_registry.py``).
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.analysis.reporting import ExperimentTable
from repro.sim.batch import (
    Scenario,
    TrialSet,
    run_batch,
    run_trials,
)
from repro.sim.metrics import SimulationResult
from repro.sim.results import CacheStats, ResultStore

__all__ = [
    "ExperimentContext",
    "ExperimentRun",
    "ExperimentSpec",
    "GridCell",
    "Presentation",
    "ScenarioGrid",
    "all_specs",
    "comparison_grid",
    "experiment_ids",
    "get_experiment",
    "grid_cells",
    "register",
    "run_experiment",
    "trial_summary_table",
]


# ---------------------------------------------------------------------------
# Context: everything a spec may read while building/aggregating
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentContext:
    """Run-time inputs to an experiment.

    Attributes:
        seed: Base seed for single-seed runs (and for grid construction).
        seeds: When set, run the grid across these seeds and aggregate
            to mean ± std; ``None`` means the classic single-seed path.
        store: Optional persistent result cache.
        workers: Process fan-out override (``None`` → EVA_BENCH_WORKERS).
        params: Experiment-specific size overrides (e.g. ``num_jobs``);
            ``None`` values fall through to each experiment's default.
        dispatcher: Optional
            :class:`~repro.sim.fabric.dispatch.FabricDispatcher` — grid
            experiments then execute on a multi-host fleet instead of
            local processes (the CLI's ``--fabric URL``).
    """

    seed: int = 0
    seeds: tuple[int, ...] | None = None
    store: ResultStore | None = None
    workers: int | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    dispatcher: Any | None = None

    def param(self, name: str, default: Any = None) -> Any:
        value = self.params.get(name)
        return default if value is None else value


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridCell:
    """One cell of an experiment's scenario grid.

    ``point`` is the swept parameter value (``None`` for single-point
    comparisons); ``display`` is the scheduler's display name.
    """

    point: Any
    display: str
    scenario: Scenario


@dataclass(frozen=True)
class ScenarioGrid:
    """A spec's scenario grid plus grid-level metadata.

    ``meta`` carries values the aggregation needs that were resolved at
    build time (e.g. the scaled ``num_jobs``); ``baseline`` names the
    display used for normalized-cost columns in multi-seed summaries.
    """

    cells: tuple[GridCell, ...]
    meta: Mapping[str, Any] = field(default_factory=dict)
    baseline: str | None = "No-Packing"

    @property
    def scenarios(self) -> list[Scenario]:
        return [cell.scenario for cell in self.cells]

    def points(self) -> list[Any]:
        seen: list[Any] = []
        for cell in self.cells:
            if cell.point not in seen:
                seen.append(cell.point)
        return seen

    def results_by_point(
        self, results: Sequence[SimulationResult]
    ) -> dict[Any, dict[str, SimulationResult]]:
        """Pair ordered batch results back onto ``{point: {display: r}}``."""
        if len(results) != len(self.cells):
            raise ValueError(
                f"{len(results)} results for {len(self.cells)} grid cells"
            )
        grid: dict[Any, dict[str, SimulationResult]] = {}
        for cell, result in zip(self.cells, results):
            grid.setdefault(cell.point, {})[cell.display] = result
        return grid


def grid_cells(
    points: Iterable[Any],
    schedulers: Mapping[str, str],
    make_scenario: Callable[[Any, str], Scenario],
) -> tuple[GridCell, ...]:
    """Build the standard (point × scheduler) cell list.

    ``make_scenario(point, registry_name)`` builds one cell's scenario;
    when it leaves ``name`` unset, the cell is labelled
    ``"{display}@{point}"``.  Cells carry their point and display name,
    so :meth:`ScenarioGrid.results_by_point` pairs each result with the
    cell that built it.
    """
    from dataclasses import replace

    cells: list[GridCell] = []
    for point in points:
        for display, registry_name in schedulers.items():
            scenario = make_scenario(point, registry_name)
            if scenario.name is None:
                scenario = replace(scenario, name=f"{display}@{point}")
            cells.append(GridCell(point=point, display=display, scenario=scenario))
    return tuple(cells)


def comparison_grid(
    trace: Any,
    schedulers: Mapping[str, str] | None = None,
    seed: int = 0,
    meta: Mapping[str, Any] | None = None,
    **kwargs: Any,
) -> ScenarioGrid:
    """A single-point comparison grid (the Table 10/11/13/14 shape).

    Wraps :func:`repro.analysis.comparison.comparison_scenarios`; the
    sweep point of every cell is ``None`` and displays follow the
    scheduler mapping's order.  Extra kwargs (interference, delay model,
    ...) pass through to the scenario builder.
    """
    from repro.analysis.comparison import comparison_scenarios

    cells = tuple(
        GridCell(point=None, display=scenario.name, scenario=scenario)
        for scenario in comparison_scenarios(
            trace, schedulers, seed=seed, **kwargs
        )
    )
    return ScenarioGrid(cells=cells, meta=dict(meta or {}))


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """What an experiment shows: structured tables plus the full text.

    ``text`` is exactly what the CLI prints in ``--format text`` (tables
    plus any ASCII charts/CDFs); ``tables`` back the json/csv formats.
    """

    text: str
    tables: tuple[ExperimentTable, ...]

    @classmethod
    def of_tables(cls, *tables: ExperimentTable, extra: str = "") -> "Presentation":
        text = "\n\n".join(t.render() for t in tables)
        if extra:
            text = f"{text}\n\n{extra}" if text else extra
        return cls(text=text, tables=tuple(tables))


@dataclass(frozen=True)
class ExperimentSpec:
    """A declaratively described experiment.

    Exactly one of (``build`` + ``aggregate``) or ``direct`` must be
    set.  Grid specs get caching and multi-seed trials for free; direct
    specs run arbitrary in-process code (data tables, timing
    micro-benchmarks) and ignore seeds/cache.

    Attributes:
        id: CLI name, e.g. ``"table11"``.
        title: One-line human description (shown by ``list``).
        build: ``ctx -> ScenarioGrid`` — the scenario grid builder.
        aggregate: ``(grid, {point: {display: result}}) -> value`` —
            reduces raw results to the experiment's result object.
        present: ``value -> Presentation``; defaults to rendering
            ``value.table`` (or ``value`` itself when it *is* a table).
        direct: ``ctx -> value`` for non-grid experiments.
        multi_seed: Set False on grid specs whose grid already *is* a
            seed sweep (cells built from ``ctx.seed + trial``) —
            :func:`~repro.sim.batch.reseed` would collapse every trial
            onto one seed there, so ``ctx.seeds`` is ignored instead.
        trial_table: Optional override of the generic multi-seed summary
            (``(spec, grid, trials) -> ExperimentTable``) for grid specs
            whose headline metrics go beyond the standard cost/JCT/tput
            columns (e.g. ``deadline-slo``'s attainment columns).
    """

    id: str
    title: str
    build: Callable[[ExperimentContext], ScenarioGrid] | None = None
    aggregate: (
        Callable[[ScenarioGrid, dict[Any, dict[str, SimulationResult]]], Any] | None
    ) = None
    present: Callable[[Any], Presentation] | None = None
    direct: Callable[[ExperimentContext], Any] | None = None
    multi_seed: bool = True
    trial_table: (
        Callable[["ExperimentSpec", ScenarioGrid, TrialSet], ExperimentTable] | None
    ) = None

    def __post_init__(self) -> None:
        has_grid = self.build is not None and self.aggregate is not None
        if has_grid == (self.direct is not None):
            raise ValueError(
                f"experiment {self.id!r} must define either build+aggregate "
                "or direct (and not both)"
            )

    @property
    def kind(self) -> str:
        return "grid" if self.build is not None else "direct"

    def presentation(self, value: Any) -> Presentation:
        if self.present is not None:
            return self.present(value)
        table = value if isinstance(value, ExperimentTable) else value.table
        return Presentation.of_tables(table)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, ExperimentSpec] = {}

#: The spec modules under :mod:`repro.experiments`; each registers its
#: specs when imported.
_SPEC_MODULES = (
    "deadline_slo",
    "fig01_interference",
    "fig04_interference_sweep",
    "fig05_migration_sweep",
    "fig06_workload_mix",
    "fig07_multitask_sweep",
    "fig08_arrival_rate",
    "reliability",
    "spot_eviction",
    "spot_market",
    "table01_delays",
    "table04_microbench",
    "table05_runtime",
    "table06_multitask",
    "table07_workloads",
    "table10_e2e_large",
    "table11_e2e_small",
    "table12_fidelity",
    "table13_alibaba",
    "table14_gavel",
)


def _load_specs() -> None:
    """Import every spec module; a module already imported is not re-run."""
    for name in _SPEC_MODULES:
        importlib.import_module(f"repro.experiments.{name}")


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register ``spec`` under its id (idempotent for identical re-imports)."""
    existing = _REGISTRY.get(spec.id)
    if existing is not None and existing is not spec:
        raise ValueError(f"experiment id {spec.id!r} already registered")
    _REGISTRY[spec.id] = spec
    return spec


def get_experiment(experiment_id: str) -> ExperimentSpec:
    _load_specs()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"registered: {', '.join(experiment_ids())}"
        ) from None


def experiment_ids() -> tuple[str, ...]:
    _load_specs()
    return tuple(sorted(_REGISTRY))


def all_specs() -> tuple[ExperimentSpec, ...]:
    return tuple(_REGISTRY[i] for i in experiment_ids())


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRun:
    """One executed experiment: its value, presentation, and accounting."""

    spec: ExperimentSpec
    value: Any
    presentation: Presentation
    elapsed_s: float
    seeds: tuple[int, ...] | None = None
    cache: CacheStats | None = None

    def to_jsonable(self) -> dict:
        payload: dict[str, Any] = {
            "id": self.spec.id,
            "title": self.spec.title,
            "kind": self.spec.kind,
            "elapsed_s": round(self.elapsed_s, 3),
            "seeds": list(self.seeds) if self.seeds is not None else None,
            "tables": [t.to_jsonable() for t in self.presentation.tables],
            "text": self.presentation.text,
        }
        if self.cache is not None:
            payload["cache"] = self.cache.as_dict()
        return payload


def run_experiment(
    spec: ExperimentSpec | str, ctx: ExperimentContext | None = None
) -> ExperimentRun:
    """Execute one experiment under ``ctx`` (see module docstring).

    Grid specs run through the batch layer (cache-aware, parallel);
    with ``ctx.seeds`` they run every seed and present a mean ± std
    summary (the value is then the :class:`~repro.sim.batch.TrialSet`).
    Direct specs call their runner in-process.
    """
    if isinstance(spec, str):
        spec = get_experiment(spec)
    if ctx is None:
        ctx = ExperimentContext()
    start = time.perf_counter()
    stats_before = ctx.store.stats.copy() if ctx.store is not None else None

    if spec.kind == "direct":
        value = spec.direct(ctx)
        presentation = spec.presentation(value)
        return ExperimentRun(
            spec=spec,
            value=value,
            presentation=presentation,
            elapsed_s=time.perf_counter() - start,
        )

    grid = spec.build(ctx)
    if ctx.seeds is not None and spec.multi_seed:
        trials = run_trials(
            grid.scenarios,
            ctx.seeds,
            workers=ctx.workers,
            store=ctx.store,
            dispatcher=ctx.dispatcher,
        )
        value: Any = trials
        make_table = spec.trial_table or trial_summary_table
        presentation = Presentation.of_tables(make_table(spec, grid, trials))
        seeds: tuple[int, ...] | None = trials.seeds
    else:
        outcomes = run_batch(
            grid.scenarios,
            workers=ctx.workers,
            store=ctx.store,
            dispatcher=ctx.dispatcher,
        )
        results = grid.results_by_point([o.result for o in outcomes])
        value = spec.aggregate(grid, results)
        presentation = spec.presentation(value)
        seeds = None

    cache = (
        ctx.store.stats - stats_before
        if ctx.store is not None and stats_before is not None
        else None
    )
    return ExperimentRun(
        spec=spec,
        value=value,
        presentation=presentation,
        elapsed_s=time.perf_counter() - start,
        seeds=seeds,
        cache=cache,
    )


def trial_summary_table(
    spec: ExperimentSpec, grid: ScenarioGrid, trials: TrialSet
) -> ExperimentTable:
    """The generic multi-seed summary: one row per cell, mean ± std cells.

    Normalized cost divides each trial by the grid's baseline display at
    the same sweep point and seed (omitted when the grid has no
    baseline).
    """
    if len(trials) != len(grid.cells):
        raise ValueError(
            f"{len(trials)} aggregates for {len(grid.cells)} grid cells"
        )
    by_cell = list(zip(grid.cells, trials.aggregates))
    baselines = {
        cell.point: aggregate
        for cell, aggregate in by_cell
        if grid.baseline is not None and cell.display == grid.baseline
    }
    with_norm = bool(baselines)
    multi_point = len(grid.points()) > 1
    rows = []
    for cell, aggregate in by_cell:
        label = (
            f"{cell.display}@{cell.point}" if multi_point else cell.display
        )
        row: list[Any] = [label, f"{aggregate.total_cost:.2f}"]
        if with_norm:
            baseline = baselines.get(cell.point)
            row.append(
                f"{aggregate.normalized_cost(baseline):.3f}"
                if baseline is not None
                else "-"
            )
        row.extend(
            (
                f"{aggregate.mean_jct_hours:.2f}",
                f"{aggregate.mean_normalized_tput:.3f}",
                f"{aggregate.instances_launched:.1f}",
            )
        )
        rows.append(tuple(row))
    headers = ["Scenario", "Total Cost ($)"]
    if with_norm:
        headers.append("Norm. Cost")
    headers.extend(("JCT (hours)", "Norm. Tput", "Instances"))
    seeds_text = ", ".join(str(s) for s in trials.seeds)
    return ExperimentTable(
        title=f"{spec.id}: multi-seed trials ({len(trials.seeds)} seeds)",
        headers=tuple(headers),
        rows=tuple(rows),
        notes=(
            f"mean ± std (population) over seeds [{seeds_text}]",
            *(
                (f"normalized to {grid.baseline} at the same sweep point and seed",)
                if with_norm
                else ()
            ),
        ),
    )
