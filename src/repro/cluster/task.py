"""Tasks and jobs.

A job submitted to Eva consists of one or more tasks (§3).  Each task has a
resource demand per instance family (Table 7 shows CPU demands that differ
between P3 and C7i/R7i instances), a standalone throughput baseline, and
per-workload migration delays (checkpoint + launch, Table 7).

``Task`` and ``Job`` are immutable *specifications*; all mutable runtime
state (progress, placement, observed throughput) lives in the simulator or
runtime, keeping scheduling algorithms purely functional over snapshots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cluster.resources import ResourceVector

#: Demand-map key used when a task does not specialize its demand by family.
DEFAULT_FAMILY = "*"


@dataclass(frozen=True, slots=True)
class MigrationDelays:
    """Per-task migration delay components, in seconds (Table 1 / Table 7).

    ``checkpoint_s`` is paid on the source instance when a task is stopped;
    ``launch_s`` is paid on the destination instance before the task resumes.
    """

    checkpoint_s: float
    launch_s: float


@dataclass(frozen=True, slots=True)
class Task:
    """A schedulable unit of work.

    Attributes:
        task_id: Unique id, stable across migrations.
        job_id: Id of the owning job; tasks of a multi-task job share it.
        workload: Workload name (Table 7) — keys interference lookups.
        demands: Mapping from instance family to demand vector.  The
            ``"*"`` key (``DEFAULT_FAMILY``) is the fallback demand.
        migration: Checkpoint/launch delays for this task.
    """

    task_id: str
    job_id: str
    workload: str
    demands: Mapping[str, ResourceVector]
    migration: MigrationDelays = field(default=MigrationDelays(8.0, 47.0))

    def __post_init__(self) -> None:
        if not self.demands:
            raise ValueError(f"task {self.task_id} has no demand vectors")

    def demand_for(self, family: str) -> ResourceVector:
        """Demand vector when running on an instance of ``family``.

        Falls back to the ``"*"`` entry, then to any entry (tasks always
        have at least one demand vector).
        """
        if family in self.demands:
            return self.demands[family]
        if DEFAULT_FAMILY in self.demands:
            return self.demands[DEFAULT_FAMILY]
        return next(iter(self.demands.values()))

    @property
    def max_demand(self) -> ResourceVector:
        """Element-wise max over family demands (used for quick sanity checks)."""
        gpus = max(d.gpus for d in self.demands.values())
        cpus = max(d.cpus for d in self.demands.values())
        ram = max(d.ram_gb for d in self.demands.values())
        return ResourceVector(gpus, cpus, ram)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.task_id}, {self.workload})"


@dataclass(frozen=True, slots=True)
class Job:
    """A batch job: one or more tasks plus arrival/duration metadata.

    Attributes:
        job_id: Unique id.
        tasks: The job's tasks.  All tasks of a data-parallel job are
            interdependent: the job's throughput is the minimum of its
            tasks' throughputs (§4.4).
        arrival_time_s: Submission time, seconds since trace start.
        duration_hours: Standalone running time (at throughput 1.0) of the
            job.  Total work per task equals this duration; interference
            stretches wall-clock time proportionally.
        workload: Workload name shared by the tasks.
        deadline_hours: Optional completion SLO, measured from arrival.
            Jobs that carry one trigger
            :class:`~repro.core.protocol.DeadlineApproaching`
            observations as the deadline nears; ``None`` (the default)
            means no SLO.
    """

    job_id: str
    tasks: Sequence[Task]
    arrival_time_s: float
    duration_hours: float
    workload: str
    deadline_hours: float | None = None

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError(f"job {self.job_id} has no tasks")
        if not 0 < self.duration_hours < math.inf:
            raise ValueError(
                f"job {self.job_id} duration must be finite and > 0, "
                f"got {self.duration_hours}"
            )
        if self.deadline_hours is not None and not 0 < self.deadline_hours < math.inf:
            raise ValueError(
                f"job {self.job_id} deadline must be finite and > 0, "
                f"got {self.deadline_hours}"
            )
        if not math.isfinite(self.arrival_time_s):
            raise ValueError(
                f"job {self.job_id} arrival time must be finite, "
                f"got {self.arrival_time_s}"
            )
        for task in self.tasks:
            if task.job_id != self.job_id:
                raise ValueError(
                    f"task {task.task_id} has job_id {task.job_id!r}, expected {self.job_id!r}"
                )

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def is_multi_task(self) -> bool:
        return len(self.tasks) > 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job({self.job_id}, {self.workload}, tasks={self.num_tasks}, "
            f"dur={self.duration_hours:g}h)"
        )


_job_counter = itertools.count(1)


def make_job(
    workload: str,
    demands: Mapping[str, ResourceVector],
    duration_hours: float,
    arrival_time_s: float = 0.0,
    num_tasks: int = 1,
    migration: MigrationDelays | None = None,
    job_id: str | None = None,
    deadline_hours: float | None = None,
) -> Job:
    """Convenience constructor building a job with ``num_tasks`` identical tasks."""
    jid = job_id if job_id is not None else f"job-{next(_job_counter):05d}"
    mig = migration if migration is not None else MigrationDelays(8.0, 47.0)
    tasks = tuple(
        Task(
            task_id=f"{jid}/t{idx}",
            job_id=jid,
            workload=workload,
            demands=dict(demands),
            migration=mig,
        )
        for idx in range(num_tasks)
    )
    return Job(
        job_id=jid,
        tasks=tasks,
        arrival_time_s=arrival_time_s,
        duration_hours=duration_hours,
        workload=workload,
        deadline_hours=deadline_hours,
    )
