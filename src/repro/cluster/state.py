"""Cluster snapshots and target configurations.

The scheduler interface (§3) is snapshot → target configuration:

* :class:`ClusterSnapshot` is a read-only view of the cluster at a
  scheduling round: which tasks exist, where they run, what each job looks
  like, and what throughput has been observed.
* :class:`TargetConfiguration` is the scheduler's decision: a set of
  instances (existing or to-be-launched) and the task-to-instance mapping.

The simulator (and the runtime's Provisioner/Executor) *diffs* the target
against the snapshot to derive operations: launch/terminate instances and
start/migrate tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.cluster.instance import Instance, InstanceType
from repro.cluster.resources import ResourceVector
from repro.cluster.task import Job, Task


def tasks_fit_on_type(tasks: Iterable[Task], instance_type: InstanceType) -> bool:
    """True if the summed (family-specific) demand of ``tasks`` fits the type."""
    total = ResourceVector.sum(t.demand_for(instance_type.family) for t in tasks)
    return total.fits_within(instance_type.capacity)


@dataclass(frozen=True, slots=True)
class InstanceState:
    """One provisioned instance and the tasks currently assigned to it."""

    instance: Instance
    task_ids: frozenset[str]

    @property
    def instance_id(self) -> str:
        return self.instance.instance_id

    @property
    def instance_type(self) -> InstanceType:
        return self.instance.instance_type


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


@dataclass(frozen=True, slots=True)
class TargetInstance:
    """One instance in a target configuration.

    ``instance`` may be an existing instance (same id as in the snapshot,
    meaning "keep it") or a fresh one (meaning "launch a new instance of
    this type").
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
class TargetConfiguration:
    """A scheduler's decision for the next period.

    Instances absent from the target (relative to the snapshot) are
    terminated; tasks mapped to a different instance than in the snapshot
    are migrated.  Tasks absent from the target stay queued.
    """

    instances: tuple[TargetInstance, ...] = field(default=())

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[Instance, Iterable[str]]]
    ) -> "TargetConfiguration":
        return cls(
            instances=tuple(
                TargetInstance(instance=inst, task_ids=frozenset(tids))
                for inst, tids in pairs
            )
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

    def instance_ids(self) -> set[str]:
        return {ti.instance_id for ti in self.instances}

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


@dataclass(frozen=True, slots=True)
class ConfigurationDiff:
    """Operations needed to move from a snapshot to a target configuration."""

    launches: tuple[TargetInstance, ...]
    terminations: tuple[str, ...]  # instance ids
    migrations: tuple[tuple[str, str | None, str], ...]  # (task, from, to)
    unchanged_tasks: tuple[str, ...]


def diff_configuration(
    snapshot: ClusterSnapshot, target: TargetConfiguration
) -> ConfigurationDiff:
    """Compute launch/terminate/migrate operations between snapshot and target."""
    current_assignment: dict[str, str] = {}
    current_instances: set[str] = set()
    for state in snapshot.instances:
        current_instances.add(state.instance_id)
        for tid in sorted(state.task_ids):
            current_assignment[tid] = state.instance_id

    target_assignment = target.assignment()
    target_instances = target.instance_ids()

    launches = tuple(
        ti for ti in target.instances if ti.instance_id not in current_instances
    )
    terminations = tuple(sorted(current_instances - target_instances))

    migrations: list[tuple[str, str | None, str]] = []
    unchanged: list[str] = []
    for tid, dst in sorted(target_assignment.items()):
        src = current_assignment.get(tid)
        if src == dst:
            unchanged.append(tid)
        else:
            migrations.append((tid, src, dst))

    return ConfigurationDiff(
        launches=launches,
        terminations=terminations,
        migrations=tuple(migrations),
        unchanged_tasks=tuple(unchanged),
    )
