"""Synergy baseline (Mohan et al., OSDI '22), adapted per §6.1.

Synergy packs with a best-fit heuristic to minimize resource fragmentation
in a fixed-size cluster.  The paper adapts it to cloud-based clusters by
(a) launching the lowest-cost instance type that fits a task when no
existing instance has capacity, and (b) making the packing
interference-aware: a task joins an existing instance only if the
instance's throughput-normalized reservation price stays at or above its
hourly cost, using the same online-learned throughput table as Eva.

One more adaptation is required for a variable-size cluster: when job
completions leave an instance hosting tasks whose value no longer covers
its price (e.g. a small long-running task stranded on a large GPU
instance), Synergy *right-sizes* — it re-places those tasks (a migration)
rather than paying the oversized instance indefinitely.  Without this,
best-fit packing costs **more** than No-Packing on heavy-tailed traces,
which contradicts the paper's measurements (DESIGN.md §4).
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.instance import InstanceType
from repro.cluster.state import ClusterSnapshot
from repro.cluster.task import Task
from repro.core.evaluation import TNRPEvaluator
from repro.core.interfaces import JobThroughputReport
from repro.core.monitor import ThroughputMonitor
from repro.core.protocol import (
    AssignTask,
    LaunchInstance,
    MigrateTask,
    TerminateInstance,
    ThroughputReport,
)
from repro.baselines.base import OpenInstance, ReactiveScheduler


class SynergyScheduler(ReactiveScheduler):
    """Best-fit packing with a TNRP admission check and right-sizing."""

    name = "Synergy"

    #: Reactive placement plus the right-sizing adaptation, which
    #: re-places stranded tasks (migrations) and drops their instances.
    action_types = frozenset(
        {LaunchInstance, AssignTask, MigrateTask, TerminateInstance}
    )

    #: The throughput reports feed its admission check's table.
    observation_types = frozenset({ThroughputReport})

    def __init__(self, catalog: Sequence[InstanceType], default_tput: float = 0.95):
        super().__init__(catalog)
        self.monitor = ThroughputMonitor()
        self.monitor.table.default_tput = default_tput

    def on_throughput_reports(self, reports: tuple[JobThroughputReport, ...]) -> None:
        self.monitor.ingest(reports)

    def release_inefficient(
        self, open_instances: list[OpenInstance], snapshot: ClusterSnapshot
    ) -> list[Task]:
        evaluator = self._evaluator(snapshot)
        released: list[Task] = []
        for oi in list(open_instances):
            if not oi.tasks:
                continue
            if evaluator.set_value(oi.tasks) < oi.hourly_cost - 1e-9:
                released.extend(oi.tasks)
                open_instances.remove(oi)
        return released

    def _evaluator(self, snapshot: ClusterSnapshot) -> TNRPEvaluator:
        return TNRPEvaluator(
            calculator=self.rp_calculator,
            table=self.monitor.table,
            jobs=snapshot.jobs,
            multi_task_aware=False,
        )

    def _fit_score(self, open_instance: OpenInstance, task: Task) -> float:
        """Normalized leftover after adding the task (lower = tighter fit)."""
        itype = open_instance.instance_type
        rem = open_instance.remaining() - task.demand_for(itype.family)
        cap = itype.capacity
        score = 0.0
        dims = 0
        for left, total in zip(rem.as_tuple(), cap.as_tuple()):
            if total > 0:
                score += left / total
                dims += 1
        return score / max(1, dims)

    def choose_placement(
        self,
        task: Task,
        open_instances: list[OpenInstance],
        snapshot: ClusterSnapshot,
    ) -> OpenInstance | InstanceType:
        evaluator = self._evaluator(snapshot)
        viable = []
        for oi in open_instances:
            if not oi.fits(task):
                continue
            value = evaluator.set_value(oi.tasks + [task])
            if value >= oi.hourly_cost - 1e-9:
                viable.append(oi)
        if viable:
            return min(
                viable,
                key=lambda oi: (self._fit_score(oi, task), oi.instance.instance_id),
            )
        return self.cheapest_type_for(task)
