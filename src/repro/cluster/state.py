"""Cluster snapshots and target configurations.

The scheduler interface (§3) is snapshot → target configuration:

* :class:`ClusterSnapshot` is a read-only view of the cluster at a
  scheduling round: which tasks exist, where they run, what each job looks
  like, and what throughput has been observed.
* :class:`TargetConfiguration` is the scheduler's decision: a set of
  instances (existing or to-be-launched) and the task-to-instance mapping.

Both hold :class:`InstanceState` records.
:func:`~repro.core.protocol.diff_target` plans the actions that move a
snapshot to a target: launch/terminate instances and start/migrate tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, Sequence

from repro.cluster.instance import Instance, InstanceType
from repro.cluster.resources import ResourceVector
from repro.cluster.task import Job, Task


def tasks_fit_on_type(tasks: Iterable[Task], instance_type: InstanceType) -> bool:
    """True if the summed (family-specific) demand of ``tasks`` fits the type."""
    total = ResourceVector.sum(t.demand_for(instance_type.family) for t in tasks)
    return total.fits_within(instance_type.capacity)


@dataclass(frozen=True, slots=True)
class InstanceState:
    """One instance and the tasks assigned to it.

    In a snapshot, a provisioned instance and its current tasks.  In a
    target, an instance with the snapshot's id is kept and any other is
    launched.
    """

    instance: Instance
    task_ids: frozenset[str]

    @property
    def instance_id(self) -> str:
        return self.instance.instance_id

    @property
    def instance_type(self) -> InstanceType:
        return self.instance.instance_type

    @property
    def hourly_cost(self) -> float:
        return self.instance.hourly_cost


@dataclass(frozen=True)
class ClusterSnapshot:
    """Read-only view of the cluster at one scheduling round.

    Attributes:
        time_s: Current time (seconds since trace start).
        tasks: All live tasks (queued or running), keyed by task id.
        jobs: Owning jobs, keyed by job id.
        instances: Current instances with their assignments.
    """

    time_s: float
    tasks: Mapping[str, Task]
    jobs: Mapping[str, Job]
    instances: Sequence[InstanceState]

    def task(self, task_id: str) -> Task:
        return self.tasks[task_id]

    def assigned_task_ids(self) -> set[str]:
        assigned: set[str] = set()
        for state in self.instances:
            assigned.update(state.task_ids)
        return assigned

    def unassigned_tasks(self) -> list[Task]:
        assigned = self.assigned_task_ids()
        return [t for tid, t in self.tasks.items() if tid not in assigned]


class Bin(Protocol):
    """An instance with the tasks a packing put on it."""

    @property
    def instance(self) -> Instance: ...

    @property
    def tasks(self) -> Iterable[Task]: ...


@dataclass(frozen=True)
class TargetConfiguration:
    """A scheduler's decision for the next period.

    Instances absent from the target (relative to the snapshot) are
    terminated; tasks mapped to a different instance than in the snapshot
    are migrated.  A queued task absent from the target stays queued; an
    assigned one stays put only if the target keeps its instance, since
    terminating an instance that still holds tasks is an invalid plan.
    """

    instances: tuple[InstanceState, ...] = field(default=())

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[Instance, Iterable[str]]]
    ) -> "TargetConfiguration":
        return cls(
            instances=tuple(
                InstanceState(instance=inst, task_ids=frozenset(tids))
                for inst, tids in pairs
            )
        )

    @classmethod
    def from_bins(cls, bins: Iterable[Bin]) -> "TargetConfiguration":
        """The target that places each bin's tasks on its instance."""
        return cls.from_pairs(
            (b.instance, (t.task_id for t in b.tasks)) for b in bins
        )

    def hourly_cost(self) -> float:
        """Provisioning cost per hour of this configuration."""
        return sum(ti.hourly_cost for ti in self.instances)

    def assignment(self) -> dict[str, str]:
        """Mapping task id → instance id."""
        mapping: dict[str, str] = {}
        for ti in self.instances:
            for tid in sorted(ti.task_ids):
                if tid in mapping:
                    raise ValueError(f"task {tid} assigned to two instances")
                mapping[tid] = ti.instance_id
        return mapping

    def validate(self, snapshot: ClusterSnapshot) -> None:
        """Check structural invariants against a snapshot.

        Raises ``ValueError`` on: unknown task ids, duplicate assignment,
        or resource over-subscription on any instance.
        """
        seen: set[str] = set()
        for ti in self.instances:
            tasks = []
            for tid in sorted(ti.task_ids):
                if tid not in snapshot.tasks:
                    raise ValueError(f"target assigns unknown task {tid}")
                if tid in seen:
                    raise ValueError(f"task {tid} assigned to two instances")
                seen.add(tid)
                tasks.append(snapshot.tasks[tid])
            if not tasks_fit_on_type(tasks, ti.instance_type):
                raise ValueError(
                    f"instance {ti.instance_id} ({ti.instance_type.name}) "
                    f"over-subscribed by tasks {sorted(ti.task_ids)}"
                )
