"""Owl baseline (Tian et al., SoCC '22), adapted per §6.1.

Owl co-locates only task *pairs* whose profiled interference is low, and
it receives the full pairwise co-location profile up front (the paper
provides the measured profile exclusively to Owl — no online learning
required).  The §6.1 adaptation optimizes for cost-efficiency: candidate
pairs are considered in descending ratio of their throughput-normalized
reservation price to the cost of the cheapest instance type that can host
the pair.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.instance import InstanceType, fresh_instance
from repro.cluster.state import ClusterSnapshot, TargetConfiguration
from repro.cluster.task import Task
from repro.core.interfaces import Scheduler
from repro.core.protocol import (
    AssignTask,
    LaunchInstance,
    MigrateTask,
    TerminateInstance,
)
from repro.core.reservation_price import ReservationPriceCalculator
from repro.interference.model import InterferenceModel
from repro.baselines.base import OpenInstance, open_instances_of

#: Pairs whose min pairwise throughput falls below this are "high
#: interference" and never co-located by Owl.
DEFAULT_INTERFERENCE_FLOOR = 0.90


class OwlScheduler(Scheduler):
    """Profile-driven pairwise packing, ranked by cost-efficiency."""

    name = "Owl"

    #: Pairwise placement plus the right-sizing adaptation (see
    #: :meth:`schedule`), which migrates stranded tasks off
    #: no-longer-worthwhile instances and terminates them.
    action_types = frozenset(
        {LaunchInstance, AssignTask, MigrateTask, TerminateInstance}
    )

    #: Packs from an offline interference profile and reads no
    #: observations.
    observation_types = frozenset()

    def __init__(
        self,
        catalog: Sequence[InstanceType],
        profile: InterferenceModel | None = None,
    ):
        self.catalog = [it for it in catalog if not it.is_ghost]
        self.rp_calculator = ReservationPriceCalculator(self.catalog)
        self.profile = profile or InterferenceModel()

    # ------------------------------------------------------------------
    def _pair_metrics(
        self, a: Task, b: Task
    ) -> tuple[float, InstanceType] | None:
        """(TNRP/cost ratio, type) for a candidate pair, or None if unfit."""
        tput_a = self.profile.pairwise(a.workload, b.workload)
        tput_b = self.profile.pairwise(b.workload, a.workload)
        if min(tput_a, tput_b) < DEFAULT_INTERFERENCE_FLOOR:
            return None
        itype = self._cheapest_pair_type(a, b)
        if itype is None:
            return None
        tnrp = tput_a * self.rp_calculator.rp(a) + tput_b * self.rp_calculator.rp(b)
        if tnrp < itype.hourly_cost - 1e-9:
            return None  # not cost-efficient even before fragmentation
        return (tnrp / itype.hourly_cost, itype)

    def _cheapest_pair_type(self, a: Task, b: Task) -> InstanceType | None:
        best: InstanceType | None = None
        for itype in self.catalog:
            demand = a.demand_for(itype.family) + b.demand_for(itype.family)
            if demand.fits_within(itype.capacity):
                if best is None or itype.hourly_cost < best.hourly_cost:
                    best = itype
        return best

    def _instance_value(self, tasks: list[Task]) -> float:
        """Profile-based TNRP of an instance's task set."""
        total = 0.0
        for task in tasks:
            tput = 1.0
            for other in tasks:
                if other is not task:
                    tput *= self.profile.pairwise(task.workload, other.workload)
            total += tput * self.rp_calculator.rp(task)
        return total

    # ------------------------------------------------------------------
    def schedule(self, snapshot: ClusterSnapshot) -> TargetConfiguration:
        open_instances = open_instances_of(snapshot)
        # Right-size: release tasks stranded on instances whose value no
        # longer covers their price (same adaptation as Synergy — see
        # repro.baselines.synergy module docstring).
        released: list[Task] = []
        for oi in list(open_instances):
            if oi.tasks and self._instance_value(oi.tasks) < oi.hourly_cost - 1e-9:
                released.extend(oi.tasks)
                open_instances.remove(oi)
        queued = sorted(
            snapshot.unassigned_tasks() + released,
            key=lambda t: (-self.rp_calculator.rp(t), t.task_id),
        )

        # Try to complete existing singleton instances into pairs first —
        # Owl prefers filling profiled-compatible slots over opening new
        # instances.
        placed: set[str] = set()
        for oi in open_instances:
            if len(oi.tasks) != 1:
                continue
            resident = oi.tasks[0]
            best_task = None
            best_ratio = 0.0
            for task in queued:
                if task.task_id in placed or not oi.fits(task):
                    continue
                tput_r = self.profile.pairwise(resident.workload, task.workload)
                tput_t = self.profile.pairwise(task.workload, resident.workload)
                if min(tput_r, tput_t) < DEFAULT_INTERFERENCE_FLOOR:
                    continue
                tnrp = tput_r * self.rp_calculator.rp(resident) + (
                    tput_t * self.rp_calculator.rp(task)
                )
                if tnrp < oi.hourly_cost - 1e-9:
                    continue
                ratio = tnrp / oi.hourly_cost
                if ratio > best_ratio:
                    best_ratio, best_task = ratio, task
            if best_task is not None:
                oi.add(best_task)
                placed.add(best_task.task_id)

        remaining = [t for t in queued if t.task_id not in placed]

        # Rank all remaining pairs by TNRP / pair-instance cost.
        scored: list[tuple[float, Task, Task, InstanceType]] = []
        for i, a in enumerate(remaining):
            for b in remaining[i + 1 :]:
                metrics = self._pair_metrics(a, b)
                if metrics is not None:
                    scored.append((metrics[0], a, b, metrics[1]))
        scored.sort(key=lambda s: (-s[0], s[1].task_id, s[2].task_id))

        for ratio, a, b, itype in scored:
            if a.task_id in placed or b.task_id in placed:
                continue
            open_instances.append(
                OpenInstance(instance=fresh_instance(itype), tasks=[a, b])
            )
            placed.update((a.task_id, b.task_id))

        for task in remaining:
            if task.task_id in placed:
                continue
            itype = self.rp_calculator.rp_type(task)
            open_instances.append(
                OpenInstance(instance=fresh_instance(itype), tasks=[task])
            )
            placed.add(task.task_id)

        return TargetConfiguration.from_bins(open_instances)
