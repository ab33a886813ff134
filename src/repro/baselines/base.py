"""Shared machinery for the reactive baseline schedulers (§6.1).

All four baselines are *reactive*: they keep every existing assignment,
place newly arrived (queued) tasks each round, and never migrate (the
right-sizing adaptation in Synergy/Owl being the one exception).  They
do not share one code path:

* Synergy places through :class:`ReactiveScheduler`, the
  keep-everything skeleton, by overriding
  :meth:`ReactiveScheduler.choose_placement`;
* Stratus and Owl subclass :class:`~repro.core.interfaces.Scheduler`
  and write their own ``schedule`` over the round's bins
  (:class:`OpenInstance`, from :func:`open_instances_of`);
* No-Packing needs no bins: its ``decide`` launches one instance per
  queued task and emits the actions itself.

Synergy, Stratus and Owl speak the legacy snapshot→target contract; the
default :meth:`~repro.core.interfaces.Scheduler.decide` routes them
through the :func:`~repro.core.protocol.diff_target` shim.  Each
concrete baseline declares its action vocabulary
(:attr:`~repro.core.interfaces.Scheduler.action_types`), which makes
"never migrates" a machine-checked contract: environments in validate
mode reject any decision that strays outside it.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.cluster.instance import Instance, InstanceType, fresh_instance
from repro.cluster.resources import ResourceVector
from repro.cluster.state import ClusterSnapshot, TargetConfiguration
from repro.cluster.task import Task
from repro.core.interfaces import Scheduler
from repro.core.reservation_price import ReservationPriceCalculator


@dataclass
class OpenInstance:
    """A live instance viewed as a mutable bin during one round."""

    instance: Instance
    tasks: list[Task]

    @property
    def instance_type(self) -> InstanceType:
        return self.instance.instance_type

    @property
    def hourly_cost(self) -> float:
        return self.instance.hourly_cost

    def used(self) -> ResourceVector:
        family = self.instance_type.family
        return ResourceVector.sum(t.demand_for(family) for t in self.tasks)

    def remaining(self) -> ResourceVector:
        return self.instance_type.capacity - self.used()

    def fits(self, task: Task) -> bool:
        return task.demand_for(self.instance_type.family).fits_within(
            self.remaining()
        )

    def add(self, task: Task) -> None:
        self.tasks.append(task)


def open_instances_of(snapshot: ClusterSnapshot) -> list[OpenInstance]:
    """The snapshot's instances as bins, each holding its tasks in id order."""
    return [
        OpenInstance(
            instance=state.instance,
            tasks=[snapshot.tasks[tid] for tid in sorted(state.task_ids)],
        )
        for state in snapshot.instances
    ]


class ReactiveScheduler(Scheduler):
    """Keep-everything, place-new-tasks scheduling skeleton."""

    def __init__(self, catalog: Sequence[InstanceType]):
        self.catalog = [it for it in catalog if not it.is_ghost]
        self.rp_calculator = ReservationPriceCalculator(self.catalog)

    # -- subclass hooks ----------------------------------------------------
    @abstractmethod
    def choose_placement(
        self,
        task: Task,
        open_instances: list[OpenInstance],
        snapshot: ClusterSnapshot,
    ) -> OpenInstance | InstanceType:
        """Pick an existing instance or an instance type to launch."""

    def placement_order(
        self, tasks: list[Task], snapshot: ClusterSnapshot
    ) -> list[Task]:
        """Order in which queued tasks are placed (default: by RP desc)."""
        return sorted(
            tasks, key=lambda t: (-self.rp_calculator.rp(t), t.task_id)
        )

    def release_inefficient(
        self, open_instances: list[OpenInstance], snapshot: ClusterSnapshot
    ) -> list[Task]:
        """Right-sizing hook: remove no-longer-worthwhile instances from
        ``open_instances`` and return their tasks for re-placement.

        The default keeps everything; Synergy overrides this (see its
        module docstring).
        """
        return []

    # -- Scheduler contract -------------------------------------------------
    def schedule(self, snapshot: ClusterSnapshot) -> TargetConfiguration:
        open_instances = open_instances_of(snapshot)
        to_place = snapshot.unassigned_tasks()
        to_place.extend(self.release_inefficient(open_instances, snapshot))
        for task in self.placement_order(to_place, snapshot):
            choice = self.choose_placement(task, open_instances, snapshot)
            if isinstance(choice, OpenInstance):
                if not choice.fits(task):
                    raise ValueError(
                        f"{self.name}: chose instance {choice.instance.instance_id} "
                        f"without capacity for {task.task_id}"
                    )
                choice.add(task)
            else:
                opened = OpenInstance(instance=fresh_instance(choice), tasks=[task])
                open_instances.append(opened)
        return TargetConfiguration.from_bins(open_instances)

    # -- helpers -------------------------------------------------------------
    def cheapest_type_for(self, task: Task) -> InstanceType:
        """The task's reservation-price type (cheapest feasible)."""
        return self.rp_calculator.rp_type(task)
