"""Eva master (§3, §5).

The master is the deployment's control plane: it accepts job submissions,
runs the Scheduler every period through the typed action/observation
protocol (:mod:`repro.core.protocol`), and executes the resulting action
stream through the Provisioner and Executor via the same
:class:`~repro.core.protocol.ClusterEnvironment` interpreter the
simulator uses.  This in-process implementation uses
logical time (callers alternate :meth:`advance` and :meth:`run_round`),
which keeps it deterministic and directly testable; the discrete-event
simulator (:mod:`repro.sim`) is the tool for delay-accurate evaluation,
while this runtime demonstrates the deployment architecture end to end —
RPC surfaces, checkpoint/restore through global storage, throughput
reporting via EvaIterator-style queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.cloud.provider import SimulatedCloud
from repro.cluster.instance import InstanceType
from repro.cluster.state import ClusterSnapshot, InstanceState
from repro.cluster.task import Job, Task
from repro.core.interfaces import JobThroughputReport, Scheduler
from repro.core.protocol import (
    AssignTask,
    ClusterEnvironment,
    DeadlineApproaching,
    JobArrived,
    JobFinished,
    LaunchInstance,
    MigrateTask,
    Observation,
    TerminateInstance,
    ThroughputReport,
    UnassignTask,
)
from repro.core.throughput_table import TaskPlacementObservation
from repro.interference.model import InterferenceModel
from repro.runtime.container import GlobalStorage
from repro.runtime.executor import Executor
from repro.runtime.provisioner import Provisioner
from repro.runtime.rpc import RpcBus


class _RuntimeEnvironment(ClusterEnvironment):
    """RPC-backed backend of the action protocol.

    Implements the five primitives against the live deployment —
    Provisioner launches/terminations, Executor worker RPCs — and
    inherits the shared action interpreter from
    :class:`~repro.core.protocol.ClusterEnvironment`, so the master and
    the simulator execute the *same* canonical action streams with no
    duplicated apply logic.
    """

    def __init__(self, master: "EvaMaster"):
        self._master = master

    def launch_instance(self, action: LaunchInstance) -> None:
        master = self._master
        master.provisioner.launch(action.instance, master.now_s)

    def assign_task(self, action: AssignTask) -> None:
        master = self._master
        task = master.task_of(action.task_id)
        master.executor.place_task(task, action.instance_id)
        master._assignment[action.task_id] = action.instance_id

    def migrate_task(self, action: MigrateTask) -> None:
        master = self._master
        task = master.task_of(action.task_id)
        master.executor.migrate_task(
            task, action.src_instance_id, action.dst_instance_id
        )
        master._assignment[action.task_id] = action.dst_instance_id

    def unassign_task(self, action: UnassignTask) -> None:
        master = self._master
        task = master.task_of(action.task_id)
        master.executor.unassign_task(task, action.instance_id)
        master._assignment.pop(action.task_id, None)

    def terminate_instance(self, action: TerminateInstance) -> None:
        master = self._master
        master.provisioner.terminate(action.instance_id, master.now_s)


@dataclass
class CompletedJob:
    job_id: str
    submitted_s: float
    completed_s: float

    @property
    def jct_hours(self) -> float:
        return (self.completed_s - self.submitted_s) / 3600.0


@dataclass
class EvaMaster:
    """Centralized master orchestrating a cloud-based cluster."""

    catalog: Sequence[InstanceType]
    scheduler: Scheduler
    interference: InterferenceModel = field(default_factory=InterferenceModel)
    period_s: float = 300.0
    now_s: float = 0.0
    #: Horizon of :class:`~repro.core.protocol.DeadlineApproaching`
    #: warnings (``None`` = two periods), matching the simulator's knob:
    #: a deadline-bearing job's warning is emitted at the first round
    #: within this many seconds of its deadline, once per job.
    deadline_warning_s: float | None = None

    def __post_init__(self) -> None:
        self.bus = RpcBus()
        self.storage = GlobalStorage()
        self.cloud = SimulatedCloud()
        self.provisioner = Provisioner(
            cloud=self.cloud,
            bus=self.bus,
            storage=self.storage,
            interference=self.interference,
        )
        self.executor = Executor(bus=self.bus, provisioner=self.provisioner)
        self._jobs: dict[str, Job] = {}
        self._task_index: dict[str, Task] = {}
        self._submit_times: dict[str, float] = {}
        self._assignment: dict[str, str] = {}  # task_id -> instance_id
        self.completed: list[CompletedJob] = []
        self.rounds_run = 0
        self._env = _RuntimeEnvironment(self)
        #: Typed observations accumulated since the last scheduling round.
        self._pending_obs: list[Observation] = []
        if self.deadline_warning_s is not None and self.deadline_warning_s < 0:
            raise ValueError("deadline_warning_s must be >= 0")
        if self.deadline_warning_s is None:
            self.deadline_warning_s = 2.0 * self.period_s
        #: Jobs whose deadline warning was already emitted (once per job).
        self._deadline_warned: set[str] = set()

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def submit_job(self, job: Job) -> None:
        """Accept a job (the user supplied a Dockerfile + demand vectors)."""
        if job.job_id in self._jobs:
            raise ValueError(f"job {job.job_id} already submitted")
        self._jobs[job.job_id] = job
        for task in job.tasks:
            self._task_index[task.task_id] = task
        self._submit_times[job.job_id] = self.now_s
        self._pending_obs.append(JobArrived(job_id=job.job_id, time_s=self.now_s))

    def live_jobs(self) -> list[Job]:
        return [self._jobs[jid] for jid in sorted(self._jobs)]

    def task_of(self, task_id: str) -> Task:
        """The live task with ``task_id`` (actions resolve ids through this)."""
        return self._task_index[task_id]

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def advance(self, dt_s: float) -> None:
        """Advance logical time: workers make progress, jobs may finish."""
        if dt_s < 0:
            raise ValueError("dt_s must be >= 0")
        for worker in self.provisioner.workers.values():
            worker.advance(dt_s)
        self.now_s += dt_s
        self._collect_completions()

    def run_round(self) -> None:
        """One scheduling round: observations in, decision out, execute.

        The scheduler is driven exclusively through the typed protocol
        (:meth:`~repro.core.interfaces.Scheduler.decide`); the returned
        action stream is validated and executed by the same
        :class:`~repro.core.protocol.ClusterEnvironment` interpreter the
        simulator uses.
        """
        snapshot = self._snapshot()
        decision = self.scheduler.decide(snapshot, self._observations())
        decision.validate(snapshot, allowed_actions=self.scheduler.action_types)
        self._env.execute(decision)
        self.rounds_run += 1

    def run_for(self, hours: float) -> None:
        """Convenience loop: alternate rounds and progress for ``hours``."""
        remaining_s = hours * 3600.0
        while remaining_s > 0:
            self.run_round()
            step = min(self.period_s, remaining_s)
            self.advance(step)
            remaining_s -= step

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _observations(self) -> tuple[Observation, ...]:
        """Drain pending job events, then deadline warnings, then reports.

        Same deterministic order, same once-per-job deadline-warning
        semantics (the deadline clock starts at submission) and the same
        rule as the simulator's observation stream: warnings and reports
        are built only for a scheduler whose ``observation_types`` admits
        them, so a scheduler that reads no reports costs no worker
        queries.
        """
        observations = self._pending_obs
        self._pending_obs = []
        if self.scheduler.reads_observation(DeadlineApproaching):
            self._deadline_warnings(observations)
        if self.scheduler.reads_observation(ThroughputReport):
            observations.extend(ThroughputReport(r) for r in self._reports())
        return tuple(observations)

    def _deadline_warnings(self, observations: list[Observation]) -> None:
        """Append the first warning of each live job within the horizon."""
        for job in self.live_jobs():
            if job.deadline_hours is None or job.job_id in self._deadline_warned:
                continue
            deadline_s = (
                self._submit_times[job.job_id] + job.deadline_hours * 3600.0
            )
            if self.now_s + self.deadline_warning_s >= deadline_s:
                self._deadline_warned.add(job.job_id)
                observations.append(
                    DeadlineApproaching(job_id=job.job_id, deadline_s=deadline_s)
                )

    def _snapshot(self) -> ClusterSnapshot:
        tasks = dict(self._task_index)
        instances = []
        for iid in self.provisioner.active_instance_ids():
            worker = self.provisioner.worker_of(iid)
            assigned = frozenset(
                tid for tid, inst in self._assignment.items() if inst == iid
            )
            instances.append(
                InstanceState(instance=worker.instance, task_ids=assigned)
            )
        return ClusterSnapshot(
            time_s=self.now_s, tasks=tasks, jobs=dict(self._jobs), instances=instances
        )

    def _reports(self) -> tuple[JobThroughputReport, ...]:
        """Query every worker's throughput and fold into per-job reports."""
        tputs: dict[str, float] = {}
        for iid in self.provisioner.active_instance_ids():
            worker = self.provisioner.worker_of(iid)
            response = self.bus.call(worker.service_name, "report_throughput")
            tputs.update(response["throughputs"])
        reports = []
        for job in self.live_jobs():
            task_tputs = [tputs.get(t.task_id) for t in job.tasks]
            if any(tp is None for tp in task_tputs):
                continue  # not all tasks running yet
            placements = tuple(
                TaskPlacementObservation(
                    workload=t.workload,
                    neighbours=tuple(self._neighbours(t.task_id)),
                )
                for t in job.tasks
            )
            reports.append(
                JobThroughputReport(
                    job_id=job.job_id,
                    normalized_tput=min(task_tputs),  # type: ignore[type-var]
                    placements=placements,
                )
            )
        return tuple(reports)

    def _neighbours(self, task_id: str) -> list[str]:
        iid = self._assignment.get(task_id)
        if iid is None:
            return []
        worker = self.provisioner.worker_of(iid)
        return sorted(
            self._task_index[tid].workload
            for tid in worker.hosted_task_ids()
            if tid != task_id and tid in self._task_index
        )

    def _collect_completions(self) -> None:
        for job in list(self.live_jobs()):
            done = True
            for task in job.tasks:
                iid = self._assignment.get(task.task_id)
                if iid is None:
                    done = False
                    break
                worker = self.provisioner.worker_of(iid)
                needed = job.duration_hours * 3600.0  # 1 iter/s standalone
                if worker.iterations_of(task.task_id) < needed:
                    done = False
                    break
            if not done:
                continue
            for task in job.tasks:
                iid = self._assignment.pop(task.task_id)
                self.executor.remove_task(task.task_id, iid)
                del self._task_index[task.task_id]
                worker = self.provisioner.worker_of(iid)
                if not worker.hosted_task_ids():
                    self.provisioner.terminate(iid, self.now_s)
            self.completed.append(
                CompletedJob(
                    job_id=job.job_id,
                    submitted_s=self._submit_times.pop(job.job_id),
                    completed_s=self.now_s,
                )
            )
            del self._jobs[job.job_id]
            self._deadline_warned.discard(job.job_id)
            self._pending_obs.append(
                JobFinished(job_id=job.job_id, time_s=self.now_s)
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def total_cost(self) -> float:
        return self.provisioner.total_cost(self.now_s)

    def stats(self) -> dict:
        return {
            "now_hours": self.now_s / 3600.0,
            "total_cost": self.total_cost(),
            "live_jobs": len(self._jobs),
            "completed_jobs": len(self.completed),
            "active_instances": len(self.provisioner.active_instance_ids()),
            "placements": self.executor.stats.placements,
            "migrations": self.executor.stats.migrations,
            "rpc_calls": self.bus.calls_made,
            "rounds": self.rounds_run,
        }
