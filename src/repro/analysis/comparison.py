"""Multi-scheduler comparison harness.

The evaluation repeatedly runs the same trace under several schedulers and
reports costs normalized against No-Packing (§6.1 "Metrics").  This module
packages that loop, including fresh-scheduler construction per run (the
schedulers are stateful learners) and the standard end-to-end table shape.

Scheduler grids are expressed as ``{display name: registry name}`` (see
:func:`repro.core.make_scheduler`) and executed through
:func:`repro.sim.batch.run_batch`, so a comparison fans out over
``EVA_BENCH_WORKERS`` processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.reporting import ExperimentTable, percent
from repro.cloud.delays import DelayModel
from repro.interference.model import InterferenceModel
from repro.sim.batch import Scenario, TraceSpec, run_batch
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import DEFAULT_PERIOD_S
from repro.workloads.trace import Trace

#: The five evaluation schedulers (§6.1), display name → registry name.
STANDARD_SCHEDULERS: dict[str, str] = {
    "No-Packing": "no-packing",
    "Stratus": "stratus",
    "Synergy": "synergy",
    "Owl": "owl",
    "Eva": "eva",
}


def standard_scheduler_names() -> dict[str, str]:
    """A fresh copy of the standard display-name → registry-name grid."""
    return dict(STANDARD_SCHEDULERS)


@dataclass
class ComparisonResult:
    """Results of one trace under several schedulers."""

    trace_name: str
    results: dict[str, SimulationResult]
    baseline_name: str = "No-Packing"

    def normalized_cost(self, name: str) -> float:
        return self.results[name].total_cost / self.results[self.baseline_name].total_cost

    def end_to_end_table(self, title: str) -> ExperimentTable:
        """The Table 13/14-shaped summary."""
        rows = []
        for name, res in self.results.items():
            rows.append(
                (
                    name,
                    round(res.total_cost, 2),
                    percent(self.normalized_cost(name)),
                    round(res.tasks_per_instance, 2),
                    round(res.mean_normalized_tput(), 2),
                    round(res.mean_jct_hours(), 2),
                    round(res.mean_idle_hours(), 2),
                )
            )
        return ExperimentTable(
            title=title,
            headers=(
                "Scheduler",
                "Total Cost ($)",
                "Norm. Cost",
                "Tasks/Instance",
                "Norm. Job Tput",
                "JCT (hours)",
                "Job Idle (hours)",
            ),
            rows=tuple(rows),
        )

    def allocation_table(self, title: str) -> ExperimentTable:
        """The Table 10/11-shaped summary with resource allocation."""
        rows = []
        for name, res in self.results.items():
            rows.append(
                (
                    name,
                    round(res.total_cost, 2),
                    percent(self.normalized_cost(name)),
                    res.instances_launched,
                    round(res.migrations_per_task(), 2),
                    percent(res.allocation["gpus"]),
                    percent(res.allocation["cpus"]),
                    percent(res.allocation["ram_gb"]),
                )
            )
        return ExperimentTable(
            title=title,
            headers=(
                "Scheduler",
                "Total Cost ($)",
                "Norm. Cost",
                "Instances",
                "Migr./Task",
                "GPU Alloc",
                "CPU Alloc",
                "RAM Alloc",
            ),
            rows=tuple(rows),
        )


def comparison_scenarios(
    trace: Trace | TraceSpec,
    schedulers: Mapping[str, str] | None = None,
    interference: InterferenceModel | None = None,
    delay_model: DelayModel | None = None,
    period_s: float = DEFAULT_PERIOD_S,
    validate: bool = False,
    seed: int = 0,
) -> list[Scenario]:
    """The scenario list of a comparison: one per display name.

    This is the declarative half of :func:`compare_schedulers` — the
    experiment registry builds grids from it and hands execution to the
    (cache-aware, parallel) batch layer.  ``schedulers`` maps display
    names to registry names; ``None`` means the standard five.
    """
    if schedulers is None:
        schedulers = standard_scheduler_names()
    return [
        Scenario(
            scheduler=registry_name,
            trace=trace,
            name=display,
            interference=interference,
            delay_model=delay_model,
            period_s=period_s,
            validate=validate,
            seed=seed,
        )
        for display, registry_name in schedulers.items()
    ]


def comparison_from_results(
    trace: Trace | TraceSpec,
    results: Mapping[str, SimulationResult],
    baseline_name: str = "No-Packing",
) -> ComparisonResult:
    """Bundle per-display results into a :class:`ComparisonResult`."""
    results = dict(results)
    if isinstance(trace, Trace):
        trace_name = trace.name
    elif results:
        trace_name = next(iter(results.values())).trace_name
    else:
        trace_name = f"{trace.builder}-spec"
    return ComparisonResult(
        trace_name=trace_name, results=results, baseline_name=baseline_name
    )


def compare_schedulers(
    trace: Trace | TraceSpec,
    schedulers: Mapping[str, str] | None = None,
    interference: InterferenceModel | None = None,
    delay_model: DelayModel | None = None,
    period_s: float = DEFAULT_PERIOD_S,
    validate: bool = False,
    workers: int | None = None,
    store=None,
    seed: int = 0,
) -> ComparisonResult:
    """Run ``trace`` under every scheduler and bundle the results.

    ``trace`` may be an inline :class:`Trace` or a
    :class:`~repro.sim.batch.TraceSpec` — pass a spec for large traces
    so workers rebuild it instead of unpickling one copy per scheduler.
    ``schedulers`` maps display names to scheduler registry names, run as
    :class:`~repro.sim.batch.Scenario` lists that fan out over
    ``EVA_BENCH_WORKERS``/``workers`` processes; ``None`` means the
    standard five.  ``store`` is an optional
    :class:`~repro.sim.results.ResultStore`; cached scenarios are served
    without re-simulating.
    """
    scenarios = comparison_scenarios(
        trace,
        schedulers,
        interference=interference,
        delay_model=delay_model,
        period_s=period_s,
        validate=validate,
        seed=seed,
    )
    results = {
        outcome.scenario.name: outcome.result
        for outcome in run_batch(scenarios, workers=workers, store=store)
    }
    return comparison_from_results(trace, results)
