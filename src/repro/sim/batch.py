"""Parallel scenario/batch execution (the sweep layer).

The evaluation is a grid of (scheduler × workload × seed) simulations.
This module turns one cell of that grid into a picklable
:class:`Scenario` — the trace (inline or as a named :class:`TraceSpec`),
a scheduler *registry name* (see :func:`repro.core.make_scheduler`), the
catalog, and the interference/delay/spot configuration — and fans a list
of scenarios out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

Worker count comes from ``EVA_BENCH_WORKERS`` (default 1).  With one
worker everything runs serially in-process, so coverage, debuggers and
profilers keep working; results are identical either way because every
scenario is executed against a deep copy of its configuration (exactly
what pickling into a worker process would produce).

Results come back as :class:`ScenarioOutcome` objects in **input order**
regardless of completion order, each carrying the scenario, its
:class:`~repro.sim.metrics.SimulationResult`, and the wall-clock time the
simulation took inside its worker.

Two higher layers build on scenarios:

* ``run_batch(..., store=...)`` consults a persistent
  :class:`~repro.sim.results.ResultStore` first and only simulates the
  misses — interrupted sweeps resume, unchanged scenarios replay from
  cache byte-identically.
* :func:`run_trials` runs each scenario across N seeds (see
  :func:`reseed`) and aggregates every metric to mean ± std as a
  first-class :class:`TrialAggregate`.
"""

from __future__ import annotations

import copy
import os
import statistics
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.results import ResultStore

from repro.cloud.delays import DelayModel
from repro.cloud.market import MarketConfig
from repro.cluster.instance import InstanceType
from repro.core.reservation_price import InfeasibleTaskError, ReservationPriceCalculator
from repro.interference.model import InterferenceModel
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import (
    DEFAULT_PERIOD_S,
    FailureConfig,
    SpotConfig,
    run_simulation,
)
from repro.workloads.trace import Trace

_T = TypeVar("_T")
_R = TypeVar("_R")

# ---------------------------------------------------------------------------
# Worker-count configuration
# ---------------------------------------------------------------------------


def bench_workers() -> int:
    """The global fan-out width from ``EVA_BENCH_WORKERS`` (default 1)."""
    raw = os.environ.get("EVA_BENCH_WORKERS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"EVA_BENCH_WORKERS must be an integer, got {raw!r}"
        ) from exc
    if value < 1:
        raise ValueError(f"EVA_BENCH_WORKERS must be >= 1, got {value}")
    return value


def _resolve_workers(workers: int | None, num_items: int) -> int:
    if workers is None:
        workers = bench_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, max(1, num_items))


# ---------------------------------------------------------------------------
# Generic ordered process fan-out
# ---------------------------------------------------------------------------


def _item_label(item: Any) -> str:
    """Best-effort display label for a work item (scenarios have one)."""
    label = getattr(item, "label", None)
    if isinstance(label, str) and label:
        return label
    text = repr(item)
    return text if len(text) <= 80 else text[:77] + "..."


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    workers: int | None = None,
    label: Callable[[_T], str] | None = None,
) -> list[_R]:
    """Apply ``fn`` to every item, fanning out over processes.

    ``fn`` and every item must be picklable (module-level function, plain
    data).  Results are returned in input order regardless of completion
    order.  ``workers=None`` reads ``EVA_BENCH_WORKERS``; ``workers=1``
    (the default environment) runs a plain serial loop in-process.
    ``label`` renders an item for diagnostics (default: the item's
    ``.label`` attribute, else a truncated ``repr``).

    **Worker-crash resilience**: if a worker process dies (OOM kill,
    segfault, ``os._exit``), the executor marks the whole pool broken
    and every unfinished future raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.  Instead of
    losing the sweep, the affected items are retried serially in this
    process with a warning that **names the affected items** — completed
    results are kept.  ``fn``'s own exceptions still propagate unchanged
    (only pool breakage is retried), annotated with the originating
    item's label so a poisoned cell in a thousand-scenario sweep is
    identifiable from the traceback alone.
    """
    items = list(items)
    workers = _resolve_workers(workers, len(items))
    describe = label if label is not None else _item_label
    if workers == 1:
        return [_apply_labelled(fn, item, describe) for item in items]
    results: list[_R | None] = []
    broken: list[int] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures: list[Future[_R] | None] = []
        for item in items:
            try:
                futures.append(pool.submit(fn, item))
            except BrokenProcessPool:
                # A worker died while items were still being submitted;
                # the unsubmitted ones join the serial retry below.
                futures.append(None)
        for index, future in enumerate(futures):
            if future is None:
                results.append(None)
                broken.append(index)
                continue
            try:
                results.append(future.result())
            except BrokenProcessPool:
                results.append(None)
                broken.append(index)
            except Exception as exc:
                exc.add_note(
                    f"parallel_map item {index} ({describe(items[index])}) "
                    "raised in its worker process"
                )
                raise
    if broken:
        poisoned = ", ".join(describe(items[index]) for index in broken)
        warnings.warn(
            f"worker process died mid-batch; retrying {len(broken)} "
            f"item(s) serially in the parent process: {poisoned}",
            RuntimeWarning,
            stacklevel=2,
        )
        for index in broken:
            results[index] = _apply_labelled(fn, items[index], describe)
    return results  # type: ignore[return-value]  # every slot is filled


def _apply_labelled(
    fn: Callable[[_T], _R], item: _T, describe: Callable[[_T], str]
) -> _R:
    """Run ``fn(item)``, annotating any exception with the item's label."""
    try:
        return fn(item)
    except Exception as exc:
        exc.add_note(f"while executing item {describe(item)}")
        raise


# ---------------------------------------------------------------------------
# Trace specs
# ---------------------------------------------------------------------------

TraceBuilder = Callable[..., Trace]

_TRACE_BUILDERS: dict[str, TraceBuilder] = {}


def register_trace_builder(name: str, builder: TraceBuilder) -> None:
    """Register a named trace builder for :class:`TraceSpec` resolution.

    Worker processes resolve specs against *their own* registry, so
    custom builders must be registered at import time of a module the
    workers also import (package code, a conftest) — not inline in a
    script — or parallel runs under the ``spawn`` start method (macOS,
    Windows) will not find them.  The same applies to
    :func:`repro.core.register_scheduler`.
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("trace builder name must be non-empty")
    _TRACE_BUILDERS[key] = builder


def trace_builder_names() -> tuple[str, ...]:
    return tuple(sorted(_TRACE_BUILDERS))


def _register_builtin_builders() -> None:
    from repro.workloads.alibaba import (
        alibaba_gavel_trace,
        alibaba_multi_gpu_trace,
        alibaba_multi_task_trace,
        alibaba_replay_trace,
        gavel_replay_trace,
        synthesize_alibaba_trace,
    )
    from repro.workloads.synthetic import (
        multitask_microbench_trace,
        small_physical_trace,
        synthetic_trace,
    )

    register_trace_builder("alibaba", synthesize_alibaba_trace)
    register_trace_builder("alibaba-gavel", alibaba_gavel_trace)
    register_trace_builder("alibaba-replay", alibaba_replay_trace)
    register_trace_builder("gavel-replay", gavel_replay_trace)
    register_trace_builder("alibaba-multi-gpu", alibaba_multi_gpu_trace)
    register_trace_builder("alibaba-multi-task", alibaba_multi_task_trace)
    register_trace_builder("synthetic", synthetic_trace)
    register_trace_builder("multitask-microbench", multitask_microbench_trace)
    register_trace_builder("small-physical", small_physical_trace)


_register_builtin_builders()


@dataclass(frozen=True)
class TraceSpec:
    """A trace described by builder name + kwargs instead of inline jobs.

    Keeps scenarios small on the wire: the worker process rebuilds the
    trace from the (deterministic, seeded) builder.  ``kwargs`` is stored
    as a sorted tuple of pairs so the spec stays hashable.

    **Fingerprint stability contract** (:meth:`fingerprint`): the digest
    is derived from a canonical JSON encoding of ``builder`` and the
    sorted ``kwargs`` — never from Python's randomized ``hash()`` — so
    it is identical across processes, interpreter restarts, and
    ``PYTHONHASHSEED`` values.  It keys the persistent
    :class:`~repro.sim.results.ResultStore`, so every field that can
    change the built trace must flow into it (they all do: the spec *is*
    builder + kwargs).
    """

    builder: str
    kwargs: tuple[tuple[str, Any], ...] = ()

    def fingerprint(self) -> str:
        """Stable content digest of this spec (see class docstring)."""
        from repro.sim.fingerprint import fingerprint

        return fingerprint(self)

    @classmethod
    def make(cls, builder: str, **kwargs: Any) -> "TraceSpec":
        return cls(builder=builder, kwargs=tuple(sorted(kwargs.items())))

    def build(self, default_seed: int | None = None) -> Trace:
        key = self.builder.strip().lower()
        try:
            builder = _TRACE_BUILDERS[key]
        except KeyError:
            raise KeyError(
                f"unknown trace builder {self.builder!r}; "
                f"registered: {', '.join(trace_builder_names())}"
            ) from None
        kwargs = dict(self.kwargs)
        if default_seed is not None:
            kwargs.setdefault("seed", default_seed)
        return builder(**kwargs)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One (trace, scheduler, environment) cell of an evaluation grid.

    Everything is plain data or a registry name, so a scenario pickles
    cleanly into a worker process.  ``seed`` is handed to the trace
    builder when ``trace`` is a :class:`TraceSpec` without an explicit
    seed; seed the spot market explicitly via ``SpotConfig(seed=...)``.

    **Fingerprint stability contract** (:meth:`fingerprint`): the digest
    is a canonical-JSON content hash (no ``hash()``, no id()s), byte-
    identical across processes and ``PYTHONHASHSEED`` values, covering
    every field that affects the :class:`~repro.sim.metrics.SimulationResult`
    — scheduler name, trace (spec or inline jobs), catalog, interference
    and delay models, spot config, period, validate, and seed.  Only the
    display ``name`` is excluded (cosmetic).  It is the cache key of the
    persistent :class:`~repro.sim.results.ResultStore`; scenarios whose
    models carry live RNG state (e.g. a stochastic ``DelayModel``) raise
    :class:`~repro.sim.fingerprint.FingerprintError` and are treated as
    uncacheable rather than fingerprinted unstably.

    Attributes:
        scheduler: Registry name (see :func:`repro.core.scheduler_names`).
        trace: Inline :class:`Trace` or a :class:`TraceSpec`.
        name: Optional display label (defaults to ``scheduler@trace``).
        catalog: Instance catalog; ``None`` means the §6.1 EC2 catalog.
        interference: Ground-truth co-location model (given to the
            simulator, and to schedulers that take a profile, i.e. Owl).
        delay_model: Reconfiguration delay model (Table 1 means when None).
        spot: Optional spot-market configuration.
        period_s: Scheduling period.
        validate: Validate every target configuration (slower).
        seed: Scenario seed (see above).
        deadline_warning_s: Horizon of the simulator's
            :class:`~repro.core.protocol.DeadlineApproaching` warnings
            (``None`` = the classic two-period default; see
            :class:`~repro.sim.simulator.ClusterSimulator`).  Result-
            affecting for deadline-aware schedulers, hence part of the
            fingerprint like every other field here.
        failures: Optional fault-injection configuration
            (:class:`~repro.sim.simulator.FailureConfig`).  ``None``
            keeps the fault-free engine path byte-identical; any value
            flows into the fingerprint (it is a frozen dataclass of
            plain scalars, so canonical-JSON coverage is automatic).
        market: Optional spot-market economics
            (:class:`~repro.cloud.market.MarketConfig`): per-pool price
            traces, finite capacity, burstable credits.  ``None`` keeps
            the market-free engine path byte-identical; fingerprint
            coverage is automatic (frozen dataclasses of plain
            scalars/tuples all the way down).
    """

    scheduler: str
    trace: Trace | TraceSpec
    name: str | None = None
    catalog: tuple[InstanceType, ...] | None = None
    interference: InterferenceModel | None = None
    delay_model: DelayModel | None = None
    spot: SpotConfig | None = None
    period_s: float = DEFAULT_PERIOD_S
    validate: bool = False
    seed: int = 0
    deadline_warning_s: float | None = None
    failures: FailureConfig | None = None
    market: MarketConfig | None = None

    def __post_init__(self) -> None:
        if self.catalog is not None and not isinstance(self.catalog, tuple):
            object.__setattr__(self, "catalog", tuple(self.catalog))

    @property
    def label(self) -> str:
        if self.name is not None:
            return self.name
        trace_name = (
            self.trace.name
            if isinstance(self.trace, Trace)
            else f"{self.trace.builder}-spec"
        )
        return f"{self.scheduler}@{trace_name}"

    def fingerprint(self) -> str:
        """Stable content digest of this scenario (see class docstring)."""
        from repro.sim.fingerprint import fingerprint

        return fingerprint(replace(self, name=None))


@dataclass(frozen=True)
class ScenarioOutcome:
    """One scenario's result plus its in-worker wall-clock time."""

    scenario: Scenario
    result: SimulationResult
    elapsed_s: float


class InfeasibleScenarioError(InfeasibleTaskError):
    """A scenario's trace holds a task that no instance type in its
    catalog can host.  Raised before anything is simulated; the message
    names the scenario, its fingerprint prefix and the task."""


def _check_feasible(
    scenario: Scenario, trace: Trace, catalog: Sequence[InstanceType]
) -> None:
    """Raise :class:`InfeasibleScenarioError` if some task of ``trace``
    fits no type of ``catalog``.

    Each distinct demand is priced once, through the reservation-price
    calculator's own signature cache; every other task costs its demand
    signature and a dictionary lookup.
    """
    calculator = ReservationPriceCalculator(catalog)
    for job in trace.jobs:
        for task in job.tasks:
            try:
                calculator.rp(task)
            except InfeasibleTaskError as exc:
                from repro.sim.fingerprint import FingerprintError

                try:
                    where = f"fingerprint {scenario.fingerprint()[:12]}"
                except FingerprintError:
                    where = "no fingerprint"
                raise InfeasibleScenarioError(
                    f"scenario {scenario.label} ({where}): {exc}"
                ) from exc


def _execute_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Run one scenario; module-level so it pickles into worker processes.

    The mutable environment models are deep-copied first so serial
    execution sees exactly the fresh-state semantics of a pickled copy
    in a worker process (a shared stochastic ``DelayModel``'s RNG, or an
    ``InterferenceModel`` cache, would otherwise leak state between
    scenarios and break the serial-vs-parallel determinism guarantee).
    The trace and catalog are immutable inputs and stay shared — copying
    a multi-thousand-job trace per scenario would dominate serial runs.
    """
    original = scenario
    interference = copy.deepcopy(scenario.interference)
    delay_model = copy.deepcopy(scenario.delay_model)
    from repro.cloud.catalog import ec2_catalog
    from repro.core import make_scheduler

    catalog: Sequence[InstanceType] = (
        list(scenario.catalog) if scenario.catalog is not None else ec2_catalog()
    )
    trace = (
        scenario.trace
        if isinstance(scenario.trace, Trace)
        else scenario.trace.build(default_seed=scenario.seed)
    )
    _check_feasible(scenario, trace, catalog)
    scheduler = make_scheduler(
        scenario.scheduler,
        catalog,
        interference=interference,
        delay_model=delay_model,
    )
    start = time.perf_counter()
    result = run_simulation(
        trace,
        scheduler,
        interference=interference,
        delay_model=delay_model,
        period_s=scenario.period_s,
        validate=scenario.validate,
        spot=scenario.spot,
        deadline_warning_s=scenario.deadline_warning_s,
        failures=scenario.failures,
        market=scenario.market,
    )
    return ScenarioOutcome(
        scenario=original, result=result, elapsed_s=time.perf_counter() - start
    )


def run_batch(
    scenarios: Iterable[Scenario],
    workers: int | None = None,
    store: "ResultStore | None" = None,
    dispatcher: Any | None = None,
) -> list[ScenarioOutcome]:
    """Run every scenario, fanning out over ``workers`` processes.

    ``workers=None`` reads ``EVA_BENCH_WORKERS`` (default 1 → serial
    in-process execution).  Outcomes are returned in input order, and the
    per-scenario metrics are identical for any worker count: each
    simulation is seeded and self-contained, and serial execution runs
    against a deep copy of the scenario just as a worker would.

    With a ``store`` (a :class:`~repro.sim.results.ResultStore`), cached
    outcomes are served without re-simulating and only the misses run;
    fresh outcomes are written back, so an interrupted sweep resumes
    where it stopped.  Results are byte-identical with or without a
    store (cache entries are pickled originals, keyed by a content
    fingerprint plus a code token).

    With a ``dispatcher`` (a
    :class:`~repro.sim.fabric.dispatch.FabricDispatcher`), the batch
    runs on a multi-host fleet instead of local processes: misses are
    submitted to the fabric's scenario queue, pull-stealing workers
    execute them through this very module's executor, and results come
    back through the shared content-addressed backend — byte-identical
    to a serial run by construction, including under worker loss
    (leases expire and scenarios are re-stolen).  ``workers`` is then
    the *fleet's* concern and is ignored locally.
    """
    scenarios = list(scenarios)
    if dispatcher is not None:
        return dispatcher.run_batch(scenarios, store=store)
    if store is None:
        return parallel_map(
            _execute_scenario, scenarios, workers=workers
        )

    outcomes: list[ScenarioOutcome | None] = []
    missing: list[tuple[int, Scenario]] = []
    for index, scenario in enumerate(scenarios):
        cached = store.get(scenario)
        outcomes.append(cached)
        if cached is None:
            missing.append((index, scenario))
    fresh = parallel_map(
        _execute_scenario, [scenario for _, scenario in missing], workers=workers
    )
    for (index, scenario), outcome in zip(missing, fresh):
        store.put(scenario, outcome)
        outcomes[index] = outcome
    return outcomes  # type: ignore[return-value]  # every slot is filled


def run_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Run a single scenario in-process (convenience wrapper)."""
    return _execute_scenario(scenario)


# ---------------------------------------------------------------------------
# Multi-seed trials (mean ± std across seeds as a first-class result)
# ---------------------------------------------------------------------------


def reseed(scenario: Scenario, seed: int) -> Scenario:
    """Derive the ``seed``-th trial of ``scenario``.

    Overrides every seed the scenario carries: ``Scenario.seed``, an
    explicit ``seed`` kwarg inside a :class:`TraceSpec` (so specs that
    pinned their seed still vary across trials), the spot market's
    ``SpotConfig.seed``, the fault injector's ``FailureConfig.seed``,
    and the spot market's ``MarketConfig.seed`` (the per-pool price
    streams derive from it).  Inline :class:`Trace` objects are already
    built and cannot be re-seeded — express multi-seed sweeps as
    :class:`TraceSpec` scenarios so each trial regenerates its trace.
    """
    trace = scenario.trace
    if isinstance(trace, TraceSpec) and any(k == "seed" for k, _ in trace.kwargs):
        trace = replace(
            trace,
            kwargs=tuple(
                (k, seed if k == "seed" else v) for k, v in trace.kwargs
            ),
        )
    spot = scenario.spot
    if spot is not None:
        spot = replace(spot, seed=seed)
    failures = scenario.failures
    if failures is not None:
        failures = replace(failures, seed=seed)
    market = scenario.market
    if market is not None:
        market = replace(market, seed=seed)
    return replace(
        scenario,
        seed=seed,
        trace=trace,
        spot=spot,
        failures=failures,
        market=market,
    )


@dataclass(frozen=True)
class MetricStats:
    """Mean ± std (population, ``ddof=0``) of one metric across seeds."""

    mean: float
    std: float
    values: tuple[float, ...]

    @classmethod
    def of(cls, values: Iterable[float]) -> "MetricStats":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("MetricStats needs at least one value")
        mean = statistics.fmean(vals)
        std = (
            0.0
            if len(vals) == 1
            else statistics.pstdev(vals, mu=mean)
        )
        return cls(mean=mean, std=std, values=vals)

    def __format__(self, spec: str) -> str:
        spec = spec or ".3f"
        return f"{self.mean:{spec}} ± {self.std:{spec}}"


@dataclass(frozen=True)
class TrialAggregate:
    """One scenario's outcomes across every trial seed.

    ``outcomes`` are ordered like ``seeds``; :meth:`stat` reduces any
    per-result metric to :class:`MetricStats`, and the common paper
    metrics are exposed as properties.
    """

    scenario: Scenario
    seeds: tuple[int, ...]
    outcomes: tuple[ScenarioOutcome, ...]

    @property
    def label(self) -> str:
        return self.scenario.label

    @property
    def results(self) -> tuple[SimulationResult, ...]:
        return tuple(outcome.result for outcome in self.outcomes)

    def stat(self, metric: Callable[[SimulationResult], float]) -> MetricStats:
        return MetricStats.of(metric(result) for result in self.results)

    @property
    def total_cost(self) -> MetricStats:
        return self.stat(lambda r: r.total_cost)

    @property
    def mean_jct_hours(self) -> MetricStats:
        return self.stat(lambda r: r.mean_jct_hours())

    @property
    def mean_normalized_tput(self) -> MetricStats:
        return self.stat(lambda r: r.mean_normalized_tput())

    @property
    def instances_launched(self) -> MetricStats:
        return self.stat(lambda r: r.instances_launched)

    def normalized_cost(self, baseline: "TrialAggregate") -> MetricStats:
        """Per-seed cost ratio against ``baseline``, aggregated.

        Ratios are taken seed-by-seed (trial *i* against baseline trial
        *i*), matching how the paper normalizes repeated trials.
        """
        if baseline.seeds != self.seeds:
            raise ValueError(
                f"baseline seeds {baseline.seeds} != trial seeds {self.seeds}"
            )
        return MetricStats.of(
            mine.total_cost / theirs.total_cost
            for mine, theirs in zip(self.results, baseline.results)
        )


@dataclass(frozen=True)
class TrialSet:
    """Every scenario's :class:`TrialAggregate` for one multi-seed run.

    Aggregates are ordered like the input scenarios; ``seeds`` is shared
    by every aggregate.
    """

    seeds: tuple[int, ...]
    aggregates: tuple[TrialAggregate, ...]

    def __iter__(self):
        return iter(self.aggregates)

    def __len__(self) -> int:
        return len(self.aggregates)


def run_trials(
    scenarios: Iterable[Scenario],
    seeds: Sequence[int],
    workers: int | None = None,
    store: "ResultStore | None" = None,
    dispatcher: Any | None = None,
) -> TrialSet:
    """Run every scenario across every seed and aggregate per scenario.

    The full (scenario × seed) product runs as **one** batch, so it fans
    out over ``workers`` processes (or a fabric fleet via
    ``dispatcher``) and deduplicates against ``store`` like any other
    sweep.  Trials are derived with :func:`reseed`.
    """
    scenarios = list(scenarios)
    seeds = tuple(int(seed) for seed in seeds)
    if not seeds:
        raise ValueError("run_trials needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"trial seeds must be distinct, got {seeds}")
    cells = [
        reseed(scenario, seed) for scenario in scenarios for seed in seeds
    ]
    outcomes = run_batch(cells, workers=workers, store=store, dispatcher=dispatcher)
    aggregates = []
    for index, scenario in enumerate(scenarios):
        per_seed = outcomes[index * len(seeds) : (index + 1) * len(seeds)]
        aggregates.append(
            TrialAggregate(
                scenario=scenario, seeds=seeds, outcomes=tuple(per_seed)
            )
        )
    return TrialSet(seeds=seeds, aggregates=tuple(aggregates))
