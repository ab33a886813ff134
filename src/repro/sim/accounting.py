"""Incremental cluster accounting — O(delta) aggregate totals.

The simulator bills time-weighted allocation/capacity integrals before
every event (§6.1 "Avg. Resource Alloc.").  Re-deriving the aggregates by
scanning every instance and every assigned task makes each event cost
O(cluster size); :class:`ClusterAccounting` instead maintains the running
totals and updates them on the four state deltas the simulator performs —
instance launch/terminate and task assign/unassign — so per-event
accounting work is proportional to what changed.

Demands and capacities are small integer-valued floats (Table 7 / the EC2
catalog), so the incremental sums are exact: the totals are bit-for-bit
equal to a fresh re-scan, and ``SimulationResult`` stays byte-identical
with the pre-incremental engine.  :func:`naive_totals` retains the
re-scan as a reference implementation; ``validate=True`` simulations
cross-check against it on every accounting step, and the randomized
equivalence test in ``tests/test_sim_invariants.py`` compares whole-run
results between the two paths.

The SLO and reliability totals are not kept here: :func:`deadline_totals`
and :func:`failure_totals` sum them once, at the end of a run, over the
outcome records the result already stores.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.cluster.instance import InstanceType
from repro.cluster.resources import RESOURCE_NAMES
from repro.cluster.task import Task

_REL_TOL = 1e-9
_ABS_TOL = 1e-9


class AccountingDriftError(RuntimeError):
    """Incremental totals diverged from the naive re-scan (a delta was missed)."""


class ClusterAccounting:
    """Running cluster aggregates, updated on launch/terminate/assign/unassign.

    Attributes:
        allocated: Summed task demand per resource over live instances.
        capacity: Summed instance-type capacity per resource over live
            instances.
        num_tasks: Number of tasks assigned to live instances.
        num_instances: Number of live instances.
    """

    __slots__ = ("allocated", "capacity", "num_tasks", "num_instances")

    def __init__(self) -> None:
        self.allocated: dict[str, float] = {r: 0.0 for r in RESOURCE_NAMES}
        self.capacity: dict[str, float] = {r: 0.0 for r in RESOURCE_NAMES}
        self.num_tasks = 0
        self.num_instances = 0

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def instance_up(self, instance_type: InstanceType) -> None:
        cap = instance_type.capacity
        for r in RESOURCE_NAMES:
            self.capacity[r] += cap.get(r)
        self.num_instances += 1

    def instance_down(self, instance_type: InstanceType) -> None:
        cap = instance_type.capacity
        for r in RESOURCE_NAMES:
            self.capacity[r] -= cap.get(r)
        self.num_instances -= 1

    def task_assigned(self, task: Task, instance_type: InstanceType) -> None:
        demand = task.demand_for(instance_type.family)
        for r in RESOURCE_NAMES:
            self.allocated[r] += demand.get(r)
        self.num_tasks += 1

    def task_unassigned(self, task: Task, instance_type: InstanceType) -> None:
        demand = task.demand_for(instance_type.family)
        for r in RESOURCE_NAMES:
            self.allocated[r] -= demand.get(r)
        self.num_tasks -= 1

    # ------------------------------------------------------------------
    # Reference implementation + cross-check
    # ------------------------------------------------------------------
    def verify(
        self, instances: Mapping[str, object], tasks: Mapping[str, object]
    ) -> None:
        """Assert the incremental totals match a naive re-scan.

        Called on every accounting step when the simulator runs with
        ``validate=True``; raises :class:`AccountingDriftError` when any
        total drifted (i.e. a state mutation bypassed the delta hooks).
        """
        allocated, capacity, num_tasks, num_instances = naive_totals(instances, tasks)
        if num_tasks != self.num_tasks or num_instances != self.num_instances:
            raise AccountingDriftError(
                f"count drift: incremental ({self.num_tasks} tasks, "
                f"{self.num_instances} instances) vs naive ({num_tasks}, {num_instances})"
            )
        for r in RESOURCE_NAMES:
            for label, inc, ref in (
                ("allocated", self.allocated[r], allocated[r]),
                ("capacity", self.capacity[r], capacity[r]),
            ):
                if not math.isclose(inc, ref, rel_tol=_REL_TOL, abs_tol=_ABS_TOL):
                    raise AccountingDriftError(
                        f"{label}[{r}] drift: incremental {inc!r} vs naive {ref!r}"
                    )


def naive_totals(
    instances: Mapping[str, object], tasks: Mapping[str, object]
) -> tuple[dict[str, float], dict[str, float], int, int]:
    """O(cluster size) re-scan of the aggregate totals.

    ``instances`` maps instance id → runtime record exposing ``alive``,
    ``instance`` and ``assigned``; ``tasks`` maps task id → runtime record
    exposing ``task`` (the simulator's ``_InstanceRT`` / ``_TaskRT``).
    This is the pre-incremental accounting loop, retained as the reference
    the incremental path is checked against.
    """
    allocated = {r: 0.0 for r in RESOURCE_NAMES}
    capacity = {r: 0.0 for r in RESOURCE_NAMES}
    num_tasks = 0
    num_instances = 0
    for rt in instances.values():
        if not rt.alive:
            continue
        num_instances += 1
        itype = rt.instance.instance_type
        for r in RESOURCE_NAMES:
            capacity[r] += itype.capacity.get(r)
        for tid in rt.assigned:
            task = tasks[tid].task
            demand = task.demand_for(itype.family)
            for r in RESOURCE_NAMES:
                allocated[r] += demand.get(r)
            num_tasks += 1
    return allocated, capacity, num_tasks, num_instances


def deadline_totals(deadline_outcomes: Sequence[object]) -> tuple[int, float]:
    """``(misses, total lateness)`` over the SLO records.

    ``deadline_outcomes`` is the simulator's finish-order list of
    :class:`~repro.sim.metrics.DeadlineOutcome` records; the lateness
    sum adds in that order, so a run's totals are a pure function of its
    records.
    """
    misses = 0
    lateness = 0.0
    for outcome in deadline_outcomes:
        if outcome.lateness_s > 0:
            misses += 1
            lateness += outcome.lateness_s
    return misses, lateness


def failure_totals(failure_outcomes: Sequence[object]) -> tuple[int, float]:
    """``(task restarts, work lost in standalone-hours)`` over the records.

    ``failure_outcomes`` are the simulator's dispatch-order
    :class:`~repro.sim.metrics.FailureOutcome` records; the work-lost sum
    adds each event's per-job losses in their stored (sorted job id)
    order.
    """
    restarts = 0
    lost = 0.0
    for outcome in failure_outcomes:
        restarts += outcome.tasks_lost
        for _, job_lost in outcome.job_losses:
            lost += job_lost
    return restarts, lost
