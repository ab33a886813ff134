"""Discrete-event simulation: engine, cluster simulator, metrics, batching."""

from repro.sim.batch import (
    Scenario,
    ScenarioOutcome,
    TraceSpec,
    bench_workers,
    parallel_map,
    register_trace_builder,
    run_batch,
    run_scenario,
    trace_builder_names,
)
from repro.sim.engine import Event, EventKind, EventQueue
from repro.sim.metrics import (
    AllocationIntegrator,
    FailureOutcome,
    JobOutcome,
    RepairOutcome,
    SimulationResult,
    normalize_costs,
)
from repro.sim.simulator import (
    DEFAULT_PERIOD_S,
    ClusterSimulator,
    FailureConfig,
    RetryPolicy,
    SimulationError,
    SpotConfig,
    run_simulation,
)

__all__ = [
    "Scenario",
    "ScenarioOutcome",
    "TraceSpec",
    "bench_workers",
    "parallel_map",
    "register_trace_builder",
    "run_batch",
    "run_scenario",
    "trace_builder_names",
    "Event",
    "EventKind",
    "EventQueue",
    "AllocationIntegrator",
    "FailureOutcome",
    "JobOutcome",
    "RepairOutcome",
    "SimulationResult",
    "normalize_costs",
    "DEFAULT_PERIOD_S",
    "ClusterSimulator",
    "FailureConfig",
    "RetryPolicy",
    "SimulationError",
    "SpotConfig",
    "run_simulation",
]
