"""Simulation metrics (§6.1).

Collects the statistics the paper reports: total dollar cost, per-job JCT
and idle time, normalized job throughput, time-weighted resource
allocation (Figure/Table columns "Avg. Resource Alloc."), time-weighted
tasks-per-instance, migration counts, instances launched, and per-instance
uptimes (the Figure 3 CDF).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.cluster.resources import RESOURCE_NAMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.accounting import ClusterAccounting


@dataclass(frozen=True, slots=True)
class FailureOutcome:
    """One injected instance failure (crash or domain shock).

    Recorded in dispatch order.  ``job_losses`` keeps the *per-job*
    rolled-back work (sorted by job id within the event) rather than a
    pre-summed total; :func:`~repro.sim.accounting.failure_totals` sums
    these into the run's ``work_lost_h``.

    ``instance_index`` is the victim's **per-run launch ordinal** (0 for
    the run's first launch), *not* its ``i-...`` id: instance ids come
    from a process-global counter (see
    :mod:`repro.cluster.instance`), so embedding one in the result
    would break the byte-identity contract between runs in the same
    process and between serial and parallel batch execution.
    """

    instance_index: int
    time_s: float
    failure_domain: int
    #: ``"crash"`` (independent draw) or ``"domain-shock"`` (correlated).
    kind: str
    #: Tasks knocked back to the queue (each counts one restart).
    tasks_lost: int
    #: ``(job_id, rolled-back standalone-hours)`` per affected job with
    #: un-checkpointed progress, in sorted-job-id order.
    job_losses: tuple[tuple[str, float], ...]

    @property
    def work_lost_h(self) -> float:
        return sum(lost for _, lost in self.job_losses)


@dataclass(frozen=True, slots=True)
class RepairOutcome:
    """One job outage span: instance failure until its rate recovered.

    Recorded in recovery order; per-job MTTR aggregates over these.
    """

    job_id: str
    failed_s: float
    recovered_s: float

    @property
    def repair_s(self) -> float:
        return self.recovered_s - self.failed_s


@dataclass(frozen=True, slots=True)
class DeadlineOutcome:
    """One deadline-bearing job's SLO record.

    ``lateness_s`` is ``max(0, finish_s - deadline_s)``; a job met its
    deadline iff its lateness is exactly zero (``finish_s`` strictly
    beyond the deadline always yields strictly positive lateness, so the
    two encodings cannot disagree).
    """

    job_id: str
    deadline_s: float
    finish_s: float
    lateness_s: float

    @property
    def met(self) -> bool:
        return self.lateness_s == 0.0


@dataclass
class JobOutcome:
    """Per-job record produced by the simulator."""

    job_id: str
    workload: str
    num_tasks: int
    arrival_s: float
    finish_s: float
    duration_hours: float
    idle_hours: float

    @property
    def jct_hours(self) -> float:
        return (self.finish_s - self.arrival_s) / 3600.0

    @property
    def active_hours(self) -> float:
        return max(1e-12, self.jct_hours - self.idle_hours)

    @property
    def normalized_tput(self) -> float:
        """Standalone duration over active (non-idle) execution time.

        Equals 1.0 when the job ran without interference; lower when
        co-location stretched execution.
        """
        return min(1.0, self.duration_hours / self.active_hours)


@dataclass
class AllocationIntegrator:
    """Time-weighted integrals of allocated vs provisioned resources.

    ``accumulate`` is called with the current cluster aggregates before
    every state change; ratios are integrals of allocated over integrals
    of capacity (per resource), matching "average resource allocation".
    """

    allocated_integral: dict[str, float] = field(
        default_factory=lambda: {r: 0.0 for r in RESOURCE_NAMES}
    )
    capacity_integral: dict[str, float] = field(
        default_factory=lambda: {r: 0.0 for r in RESOURCE_NAMES}
    )
    task_instance_integral: float = 0.0
    instance_time_integral: float = 0.0

    def accumulate(
        self,
        dt_s: float,
        allocated: Mapping[str, float],
        capacity: Mapping[str, float],
        num_tasks_assigned: int,
        num_instances: int,
    ) -> None:
        if dt_s <= 0:
            return
        for r in RESOURCE_NAMES:
            self.allocated_integral[r] += allocated[r] * dt_s
            self.capacity_integral[r] += capacity[r] * dt_s
        self.task_instance_integral += num_tasks_assigned * dt_s
        self.instance_time_integral += num_instances * dt_s

    def accumulate_totals(self, dt_s: float, totals: "ClusterAccounting") -> None:
        """Accumulate from incrementally maintained cluster aggregates.

        Same arithmetic as :meth:`accumulate`; takes the running totals a
        :class:`~repro.sim.accounting.ClusterAccounting` maintains so the
        simulator's per-event accounting stays O(delta).
        """
        self.accumulate(
            dt_s,
            totals.allocated,
            totals.capacity,
            totals.num_tasks,
            totals.num_instances,
        )

    def allocation_ratios(self) -> dict[str, float]:
        return {
            r: (
                self.allocated_integral[r] / self.capacity_integral[r]
                if self.capacity_integral[r] > 0
                else 0.0
            )
            for r in RESOURCE_NAMES
        }

    def tasks_per_instance(self) -> float:
        if self.instance_time_integral <= 0:
            return 0.0
        return self.task_instance_integral / self.instance_time_integral


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulated run."""

    scheduler_name: str
    trace_name: str
    total_cost: float
    jobs: list[JobOutcome]
    instances_launched: int
    migrations: int
    placements: int
    uptimes_hours: list[float]
    allocation: dict[str, float]
    tasks_per_instance: float
    makespan_hours: float
    full_adoption_fraction: float | None = None
    scheduling_rounds: int = 0
    preemptions: int = 0
    #: Per-job SLO records (deadline-bearing jobs only, in finish order)
    #: plus the aggregates the paper-style tables report, which
    #: :func:`~repro.sim.accounting.deadline_totals` sums over the
    #: records in that order at the end of the run.  Legacy traces
    #: without deadlines leave all three at their defaults, and the
    #: pickled state then omits them entirely (see ``__getstate__``), so
    #: pre-deadline results stay byte-identical — the golden digest
    #: matrix pins this.
    deadline_outcomes: tuple[DeadlineOutcome, ...] = ()
    deadline_miss_count: int = 0
    deadline_total_lateness_s: float = 0.0
    #: Reliability records (failure injection): per-event failure
    #: records in dispatch order, per-job outage spans in recovery order,
    #: and the totals :func:`~repro.sim.accounting.failure_totals` sums
    #: over the failure records.  All defaults with :class:`FailureConfig`
    #: disabled, and then omitted from the pickled state like the
    #: deadline fields — the golden digest matrices pin this.
    failure_outcomes: tuple[FailureOutcome, ...] = ()
    repair_outcomes: tuple[RepairOutcome, ...] = ()
    task_restarts: int = 0
    work_lost_h: float = 0.0
    #: Spot-market accounting (all zero — and omitted from the pickle —
    #: without an active :class:`~repro.cloud.market.MarketConfig`):
    #: effective pool price moves, over-capacity launches, and burstable
    #: credit exhaustions observed during the run.
    price_changes: int = 0
    pool_exhaustions: int = 0
    credit_exhaustions: int = 0

    # ------------------------------------------------------------------
    # Byte-identity of legacy results across the field additions
    # ------------------------------------------------------------------
    #: Fields introduced by the deadline-SLO subsystem, with their
    #: legacy-default values.  Any of them at its default is dropped from
    #: the pickled state so no-deadline results serialize exactly as
    #: before the fields existed.
    _DEADLINE_FIELD_DEFAULTS = {
        "deadline_outcomes": (),
        "deadline_miss_count": 0,
        "deadline_total_lateness_s": 0.0,
    }
    #: Same contract for the failure-injection fields.
    _FAILURE_FIELD_DEFAULTS = {
        "failure_outcomes": (),
        "repair_outcomes": (),
        "task_restarts": 0,
        "work_lost_h": 0.0,
    }
    #: Same contract for the spot-market fields.
    _MARKET_FIELD_DEFAULTS = {
        "price_changes": 0,
        "pool_exhaustions": 0,
        "credit_exhaustions": 0,
    }
    _OMITTED_FIELD_DEFAULTS = {
        **_DEADLINE_FIELD_DEFAULTS,
        **_FAILURE_FIELD_DEFAULTS,
        **_MARKET_FIELD_DEFAULTS,
    }

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name, default in self._OMITTED_FIELD_DEFAULTS.items():
            if name in state and state[name] == default:
                del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        for name, default in self._OMITTED_FIELD_DEFAULTS.items():
            state.setdefault(name, default)
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def num_tasks(self) -> int:
        return sum(j.num_tasks for j in self.jobs)

    def mean_jct_hours(self) -> float:
        return mean(j.jct_hours for j in self.jobs) if self.jobs else 0.0

    def mean_idle_hours(self) -> float:
        return mean(j.idle_hours for j in self.jobs) if self.jobs else 0.0

    def mean_normalized_tput(self) -> float:
        return mean(j.normalized_tput for j in self.jobs) if self.jobs else 1.0

    def migrations_per_task(self) -> float:
        return self.migrations / self.num_tasks if self.num_tasks else 0.0

    # ------------------------------------------------------------------
    # Deadline SLO statistics
    # ------------------------------------------------------------------
    @property
    def deadline_job_count(self) -> int:
        """Number of deadline-bearing jobs in this run."""
        return len(self.deadline_outcomes)

    @property
    def deadline_met_count(self) -> int:
        return self.deadline_job_count - self.deadline_miss_count

    @property
    def deadline_attainment(self) -> float:
        """Fraction of deadline-bearing jobs that met their SLO.

        1.0 when the trace carries no deadlines (an empty SLO is
        vacuously attained), so legacy tables can print the column
        without special-casing.
        """
        count = self.deadline_job_count
        if count == 0:
            return 1.0
        return self.deadline_met_count / count

    # ------------------------------------------------------------------
    # Reliability statistics (failure injection)
    # ------------------------------------------------------------------
    @property
    def instance_failures(self) -> int:
        """Injected instance failures (crashes + domain-shock kills)."""
        return len(self.failure_outcomes)

    @property
    def total_work_hours(self) -> float:
        """Useful standalone work delivered (sum of job durations)."""
        return sum(j.duration_hours for j in self.jobs)

    @property
    def goodput_fraction(self) -> float:
        """Useful work over gross work executed.

        Gross work is useful work plus the progress rolled back by
        failures (re-executed after restart), so this is 1.0 in a
        fault-free run and degrades as crashes burn iterations.
        """
        useful = self.total_work_hours
        gross = useful + self.work_lost_h
        if gross <= 0:
            return 1.0
        return useful / gross

    def mean_mttr_s(self) -> float:
        """Mean time-to-recovery over job outages (0.0 without any)."""
        if not self.repair_outcomes:
            return 0.0
        return mean(o.repair_s for o in self.repair_outcomes)

    def restarts_per_job(self) -> float:
        return self.task_restarts / self.num_jobs if self.num_jobs else 0.0

    def uptime_cdf(self, points: int = 50) -> tuple[np.ndarray, np.ndarray]:
        """(uptime_hours, cumulative_fraction) pairs for the Figure 3 CDF."""
        if not self.uptimes_hours:
            return np.array([]), np.array([])
        xs = np.sort(np.array(self.uptimes_hours))
        ys = np.arange(1, len(xs) + 1) / len(xs)
        if len(xs) > points:
            idx = np.linspace(0, len(xs) - 1, points).astype(int)
            xs, ys = xs[idx], ys[idx]
        return xs, ys

    def normalized_cost(self, baseline: "SimulationResult") -> float:
        """Cost relative to a baseline run (the paper's Norm. Cost)."""
        if baseline.total_cost <= 0:
            return float("inf")
        return self.total_cost / baseline.total_cost


def normalize_costs(
    results: Sequence[SimulationResult], baseline_name: str = "No-Packing"
) -> dict[str, float]:
    """Normalized total costs relative to the named baseline's run."""
    baseline = next(
        (r for r in results if r.scheduler_name == baseline_name), None
    )
    if baseline is None:
        raise ValueError(f"no result named {baseline_name!r} to normalize against")
    return {r.scheduler_name: r.normalized_cost(baseline) for r in results}
