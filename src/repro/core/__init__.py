"""Eva's core contribution: reservation-price scheduling (§4).

Also hosts the central scheduler registry: every evaluation scheduler
(Eva, its ablation variants and signal presets, plus the four baselines)
is constructible from a plain string name, so batch scenarios
(:mod:`repro.sim.batch`) stay picklable across process boundaries.
"""

from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.ensemble import (
    EnsemblePolicy,
    PoissonEventEstimator,
    ReconfigDecision,
    mean_time_to_full_reconfig_hours,
    migration_cost,
    provisioning_saving,
)
from repro.core.evaluation import (
    AssignmentEvaluator,
    PackState,
    RPEvaluator,
    TNRPCaches,
    TNRPEvaluator,
)
from repro.core.full_reconfig import (
    PackedInstance,
    PackMemo,
    configuration_cost,
    full_reconfiguration,
    match_existing_instances,
)
from repro.core.heterogeneous import (
    FamilySpeedProfile,
    HeterogeneousEvaluator,
    HeterogeneousRPCalculator,
)
from repro.core.deadline import DeadlineUrgency
from repro.core.failure import FailureHazard
from repro.core.ilp import ILPResult, ilp_schedule
from repro.core.market import MarketPrices
from repro.core.interfaces import JobThroughputReport, Scheduler
from repro.core.monitor import ThroughputMonitor
from repro.core.partial_reconfig import (
    PartialReconfigResult,
    partial_reconfiguration,
)
from repro.core.protocol import (
    Action,
    AssignTask,
    ClusterEnvironment,
    DeadlineApproaching,
    Decision,
    InstanceFailed,
    JobArrived,
    JobFinished,
    LaunchInstance,
    MigrateTask,
    Observation,
    PoolExhausted,
    PriceChanged,
    ProtocolError,
    SpotEvictionNotice,
    StragglerReport,
    TerminateInstance,
    ThroughputReport,
    UnassignTask,
    count_job_events,
    diff_target,
    replay_decision,
    throughput_reports,
)
from repro.core.reservation_price import (
    InfeasibleTaskError,
    ReservationPriceCalculator,
    no_packing_cost,
)
from repro.core.scheduler import (
    EvaConfig,
    EvaScheduler,
    EvictionNotices,
    Signal,
    make_eva_variant,
)
from repro.core.throughput_table import (
    DEFAULT_PAIRWISE_TPUT,
    CoLocationThroughputTable,
    TaskPlacementObservation,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cloud.delays import DelayModel
    from repro.cluster.instance import InstanceType
    from repro.interference.model import InterferenceModel

#: Signature every registry factory implements: catalog plus the two
#: optional environment models (schedulers ignore what they don't use).
SchedulerFactoryFn = Callable[..., Scheduler]

_SCHEDULER_REGISTRY: dict[str, SchedulerFactoryFn] = {}


def _canonical_scheduler_name(name: str) -> str:
    """Normalize a scheduler name: case-insensitive, ``_``/space == ``-``."""
    return name.strip().lower().replace("_", "-").replace(" ", "-")


def register_scheduler(name: str, factory: SchedulerFactoryFn) -> None:
    """Register ``factory`` under ``name`` (canonicalized).

    Factories are called as ``factory(catalog, interference=..., delay_model=...)``
    and must return a fresh :class:`Scheduler` (the evaluation schedulers
    are stateful learners, so instances are never shared between runs).
    """
    key = _canonical_scheduler_name(name)
    if not key:
        raise ValueError("scheduler name must be non-empty")
    _SCHEDULER_REGISTRY[key] = factory


def scheduler_names() -> tuple[str, ...]:
    """All registered scheduler names, sorted."""
    return tuple(sorted(_SCHEDULER_REGISTRY))


def make_scheduler(
    name: str,
    catalog: "Sequence[InstanceType]",
    interference: "InterferenceModel | None" = None,
    delay_model: "DelayModel | None" = None,
) -> Scheduler:
    """Construct a fresh scheduler from its registry name.

    ``interference`` is the ground-truth co-location profile; per §6.1 it
    is provided exclusively to Owl (the other schedulers learn from
    throughput reports).  ``delay_model`` reaches Eva's migration-aware
    ensemble.
    """
    key = _canonical_scheduler_name(name)
    try:
        factory = _SCHEDULER_REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; registered: {', '.join(scheduler_names())}"
        ) from None
    return factory(catalog, interference=interference, delay_model=delay_model)


def _make_no_packing(catalog, interference=None, delay_model=None) -> Scheduler:
    from repro.baselines.no_packing import NoPackingScheduler

    return NoPackingScheduler(catalog)


def _make_stratus(catalog, interference=None, delay_model=None) -> Scheduler:
    from repro.baselines.stratus import StratusScheduler

    return StratusScheduler(catalog)


def _make_synergy(catalog, interference=None, delay_model=None) -> Scheduler:
    from repro.baselines.synergy import SynergyScheduler

    return SynergyScheduler(catalog)


def _make_owl(catalog, interference=None, delay_model=None) -> Scheduler:
    from repro.baselines.owl import OwlScheduler
    from repro.interference.model import InterferenceModel

    return OwlScheduler(catalog, profile=interference or InterferenceModel())


def _eva_variant_factory(variant: str) -> SchedulerFactoryFn:
    def factory(catalog, interference=None, delay_model=None) -> Scheduler:
        return make_eva_variant(catalog, variant, delay_model=delay_model)

    return factory


def _eva_preset(name: str, signal: type[Signal]) -> SchedulerFactoryFn:
    """Default Eva plus one fresh ``signal``, under display ``name``."""

    def factory(catalog, interference=None, delay_model=None) -> Scheduler:
        return EvaScheduler(
            catalog, delay_model=delay_model, name=name, signals=[signal()]
        )

    return factory


for _name, _display, _signal in (
    ("eva-eviction-aware", "Eva-Eviction-Aware", EvictionNotices),
    ("eva-deadline", "Eva-Deadline", DeadlineUrgency),
    ("eva-failure", "Eva-Failure-Aware", FailureHazard),
    ("eva-market", "Eva-Market-Aware", MarketPrices),
):
    register_scheduler(_name, _eva_preset(_display, _signal))
del _name, _display, _signal
register_scheduler("no-packing", _make_no_packing)
register_scheduler("stratus", _make_stratus)
register_scheduler("synergy", _make_synergy)
register_scheduler("owl", _make_owl)
for _variant in (
    "eva",
    "eva-tnrp",
    "eva-rp",
    "eva-single",
    "eva-full-only",
    "eva-partial-only",
):
    register_scheduler(_variant, _eva_variant_factory(_variant))
del _variant

__all__ = [
    "EnsemblePolicy",
    "PoissonEventEstimator",
    "ReconfigDecision",
    "mean_time_to_full_reconfig_hours",
    "migration_cost",
    "provisioning_saving",
    "AssignmentEvaluator",
    "PackState",
    "RPEvaluator",
    "TNRPCaches",
    "TNRPEvaluator",
    "PackMemo",
    "PackedInstance",
    "configuration_cost",
    "full_reconfiguration",
    "match_existing_instances",
    "FamilySpeedProfile",
    "HeterogeneousEvaluator",
    "HeterogeneousRPCalculator",
    "ILPResult",
    "ilp_schedule",
    "JobThroughputReport",
    "Scheduler",
    "ThroughputMonitor",
    "PartialReconfigResult",
    "partial_reconfiguration",
    "InfeasibleTaskError",
    "ReservationPriceCalculator",
    "no_packing_cost",
    "EvaConfig",
    "EvaScheduler",
    "Signal",
    "EvictionNotices",
    "DeadlineUrgency",
    "FailureHazard",
    "MarketPrices",
    "make_eva_variant",
    "Action",
    "AssignTask",
    "ClusterEnvironment",
    "DeadlineApproaching",
    "Decision",
    "InstanceFailed",
    "JobArrived",
    "JobFinished",
    "LaunchInstance",
    "MigrateTask",
    "Observation",
    "PoolExhausted",
    "PriceChanged",
    "ProtocolError",
    "SpotEvictionNotice",
    "StragglerReport",
    "TerminateInstance",
    "ThroughputReport",
    "UnassignTask",
    "count_job_events",
    "diff_target",
    "replay_decision",
    "throughput_reports",
    "DEFAULT_PAIRWISE_TPUT",
    "CoLocationThroughputTable",
    "TaskPlacementObservation",
    "SchedulerFactoryFn",
    "register_scheduler",
    "scheduler_names",
    "make_scheduler",
]
