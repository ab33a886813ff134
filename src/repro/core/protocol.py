"""Typed action/observation protocol between schedulers and the cluster.

Eva's §3 contract is "snapshot in, target configuration out".  This
module makes the *hand-off* explicit and typed instead of leaving every
backend to re-derive operations from a whole-state rewrite:

* **Actions** are the five primitive cluster operations —
  :class:`LaunchInstance`, :class:`TerminateInstance`,
  :class:`AssignTask`, :class:`UnassignTask`, :class:`MigrateTask` —
  bundled into an ordered :class:`Decision`.
* **Observations** are the typed events a scheduler may react to at a
  round: :class:`JobArrived`, :class:`JobFinished`,
  :class:`SpotEvictionNotice`, :class:`DeadlineApproaching`,
  :class:`InstanceFailed`, :class:`StragglerReport`,
  :class:`ThroughputReport`.
* :class:`ClusterEnvironment` is the driver interface: a backend (the
  discrete-event simulator, the live runtime master) implements the five
  primitives and inherits :meth:`ClusterEnvironment.execute`, the single
  shared interpreter of an action stream.  There is exactly one apply
  loop in the codebase — backends differ only in what a primitive does.
* :func:`diff_target` is the legacy shim: it converts a snapshot-to-
  :class:`~repro.cluster.state.TargetConfiguration` decision
  into the canonical ordered action list, so every existing
  ``Scheduler.schedule`` implementation keeps working unchanged while
  protocol-native policies implement
  ``decide(snapshot, observations) -> Decision`` directly.

**Canonical action order** (the order :func:`diff_target` emits and the
order every conforming decision must respect): launches first (in
target order), then task starts/migrations (ascending task id), then
terminations (ascending instance id).  Backends rely on this — e.g. the
simulator's checkpoint-hold bookkeeping assumes a task has migrated off
an instance before that instance's termination is executed.

The contract is exercised with a hard byte-identity guarantee: routing
a legacy scheduler through ``diff_target`` + a backend's executor must
reproduce the pre-protocol ``SimulationResult`` bit for bit (see
``tests/test_golden_digests.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Union

from repro.cluster.instance import Instance
from repro.cluster.state import (
    ClusterSnapshot,
    TargetConfiguration,
    tasks_fit_on_type,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.core.interfaces import JobThroughputReport

__all__ = [
    "Action",
    "AssignTask",
    "ClusterEnvironment",
    "Decision",
    "DeadlineApproaching",
    "InstanceFailed",
    "JobArrived",
    "JobFinished",
    "LaunchInstance",
    "MigrateTask",
    "Observation",
    "PoolExhausted",
    "PriceChanged",
    "ProtocolError",
    "SpotEvictionNotice",
    "StragglerReport",
    "TerminateInstance",
    "ThroughputReport",
    "count_job_events",
    "diff_target",
    "replay_decision",
    "throughput_reports",
]


class ProtocolError(ValueError):
    """An action stream violates the protocol's structural contract."""


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LaunchInstance:
    """Provision a fresh instance (id must not exist in the cluster)."""

    instance: Instance

    @property
    def instance_id(self) -> str:
        return self.instance.instance_id


@dataclass(frozen=True, slots=True)
class TerminateInstance:
    """Release an instance; it must host no tasks by the time this runs."""

    instance_id: str


@dataclass(frozen=True, slots=True)
class AssignTask:
    """First placement of a queued task onto an instance."""

    task_id: str
    instance_id: str


@dataclass(frozen=True, slots=True)
class UnassignTask:
    """Return a task to the queue without placing it elsewhere.

    The legacy ``diff_target`` path never emits this (a target simply
    omits tasks that should stay queued, and tasks it keeps assigned
    stay put); it exists for protocol-native policies and for
    environment-initiated evictions.
    """

    task_id: str
    instance_id: str


@dataclass(frozen=True, slots=True)
class MigrateTask:
    """Checkpoint a task on its source instance and resume it on another."""

    task_id: str
    src_instance_id: str
    dst_instance_id: str


Action = Union[LaunchInstance, TerminateInstance, AssignTask, UnassignTask, MigrateTask]


@dataclass(frozen=True)
class Decision:
    """One scheduling round's ordered action bundle.

    ``target`` optionally carries the legacy
    :class:`~repro.cluster.state.TargetConfiguration` the actions were
    derived from (set by :func:`diff_target`); validation uses it for
    the classic whole-configuration checks on top of the action-level
    replay, and Equation 1 reads a candidate's saving from it.
    Protocol-native decisions may leave it ``None``.
    """

    actions: tuple[Action, ...] = field(default=())
    target: TargetConfiguration | None = None

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def count(self, action_type: type) -> int:
        return sum(1 for action in self.actions if isinstance(action, action_type))

    def validate(
        self,
        snapshot: ClusterSnapshot,
        allowed_actions: frozenset[type] | None = None,
    ) -> None:
        """Raise if this decision is structurally invalid against ``snapshot``.

        Checks the emitter's declared action vocabulary when one is
        given (see :attr:`~repro.core.interfaces.Scheduler.action_types`),
        then the legacy target invariants when a target is attached
        (unknown tasks, duplicate assignment, over-subscription), then
        replays the action stream, which enforces the action-level
        contract (see :func:`replay_decision`).  Enforcement lives here,
        in the protocol layer, so every environment applies the same
        rules.
        """
        if allowed_actions is not None:
            for action in self.actions:
                if type(action) not in allowed_actions:
                    raise ProtocolError(
                        f"decision contains {type(action).__name__}, outside "
                        f"the declared action vocabulary"
                    )
        if self.target is not None:
            self.target.validate(snapshot)
        replay_decision(snapshot, self)


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class JobArrived:
    """A job was submitted since the last scheduling round."""

    job_id: str
    time_s: float


@dataclass(frozen=True, slots=True)
class JobFinished:
    """A job completed (and its tasks were torn down) since the last round."""

    job_id: str
    time_s: float


@dataclass(frozen=True, slots=True)
class SpotEvictionNotice:
    """The spot market will reclaim ``instance_id`` at ``eviction_time_s``.

    Emitted ahead of the preemption when the spot configuration grants a
    notice window (``SpotConfig.notice_s``); a notice may outlive its
    instance (the market can reclaim it before the next round), so
    consumers must prune against the snapshot.
    """

    instance_id: str
    eviction_time_s: float


@dataclass(frozen=True, slots=True)
class DeadlineApproaching:
    """A job with a deadline is within the warning horizon of missing it."""

    job_id: str
    deadline_s: float


@dataclass(frozen=True, slots=True)
class InstanceFailed:
    """``instance_id`` crashed abruptly at ``time_s`` (no graceful notice).

    ``failure_domain`` identifies the instance's failure domain (rack /
    AZ analogue) so hazard-estimating policies can attribute correlated
    shocks.  The instance is already gone when the observation is
    delivered; its tasks rolled back to their last completed checkpoint
    and returned to the queue.
    """

    instance_id: str
    time_s: float
    failure_domain: int


@dataclass(frozen=True, slots=True)
class StragglerReport:
    """``instance_id`` runs at ``slowdown`` × its nominal speed.

    Emitted when a straggler fault begins (``slowdown < 1``) and again
    when it clears (``slowdown == 1.0``).  A report may outlive its
    instance, so consumers must prune against the snapshot.
    """

    instance_id: str
    time_s: float
    slowdown: float


@dataclass(frozen=True, slots=True)
class PriceChanged:
    """A market pool's spot price moved to a new level.

    ``multiplier`` scales the catalog on-demand rates of every family in
    ``families`` (the pool's catalog slice); ``previous`` is the level it
    replaced.  Emitted once per effective change — segments whose
    quantized price matches the current level are silent.
    """

    pool: str
    time_s: float
    multiplier: float
    previous: float
    families: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class PoolExhausted:
    """A launch landed beyond its market pool's capacity.

    The launch still succeeds — the provider waitlists it with an extra
    provisioning delay — but the pool is running hot; policies should
    treat ``families`` as scarce until launches stop tripping this.
    """

    pool: str
    time_s: float
    families: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class ThroughputReport:
    """One job's per-round throughput report (§5), as an observation."""

    report: "JobThroughputReport"


Observation = Union[
    JobArrived,
    JobFinished,
    SpotEvictionNotice,
    DeadlineApproaching,
    InstanceFailed,
    StragglerReport,
    PriceChanged,
    PoolExhausted,
    ThroughputReport,
]


def throughput_reports(
    observations: tuple[Observation, ...],
) -> tuple["JobThroughputReport", ...]:
    """Unwrap the :class:`ThroughputReport` observations, preserving order."""
    return tuple(
        obs.report for obs in observations if isinstance(obs, ThroughputReport)
    )


def count_job_events(observations: tuple[Observation, ...]) -> int:
    """Arrivals plus completions — the §4.5 D̂ estimator's event count."""
    return sum(
        1 for obs in observations if isinstance(obs, (JobArrived, JobFinished))
    )


# ---------------------------------------------------------------------------
# Legacy shim: TargetConfiguration -> canonical action list
# ---------------------------------------------------------------------------


def diff_target(snapshot: ClusterSnapshot, target: TargetConfiguration) -> Decision:
    """Plan the canonical action list moving ``snapshot`` to ``target``.

    This is the one interpretation of the legacy §3 contract, and the
    only code that turns a target into actions: launches of the target
    instances the snapshot lacks (in target order), then an assign or a
    migration for every targeted task that is not already where the
    target puts it (ascending task id), then terminations of the
    snapshot instances the target drops (ascending instance id).  Tasks
    the target leaves unmentioned stay where they are — queued tasks
    stay queued, assigned tasks stay put — exactly as the pre-protocol
    apply paths behaved; so a target that drops an instance but leaves
    out its tasks plans a termination that strands them, which
    :func:`replay_decision` and the simulator reject.  A task the
    target assigns to two instances raises ``ValueError``.
    """
    live: set[str] = set()
    placed_on: dict[str, str] = {}
    for state in snapshot.instances:
        live.add(state.instance_id)
        for tid in sorted(state.task_ids):
            placed_on[tid] = state.instance_id
    assignment = target.assignment()

    actions: list[Action] = [
        LaunchInstance(instance=ti.instance)
        for ti in target.instances
        if ti.instance_id not in live
    ]
    for task_id, dst in sorted(assignment.items()):
        src = placed_on.get(task_id)
        if src is None:
            actions.append(AssignTask(task_id=task_id, instance_id=dst))
        elif src != dst:
            actions.append(
                MigrateTask(task_id=task_id, src_instance_id=src, dst_instance_id=dst)
            )
    kept = {ti.instance_id for ti in target.instances}
    actions.extend(
        TerminateInstance(instance_id=instance_id)
        for instance_id in sorted(live - kept)
    )
    return Decision(actions=tuple(actions), target=target)


# ---------------------------------------------------------------------------
# Structural replay (validation + round-trip testing)
# ---------------------------------------------------------------------------


def replay_decision(
    snapshot: ClusterSnapshot, decision: Decision
) -> dict[str, frozenset[str]]:
    """Apply ``decision`` structurally and return the final assignment.

    Replays the action stream against the snapshot's assignment state,
    raising :class:`ProtocolError` on any violation of the action
    contract:

    * ``LaunchInstance`` ids must be fresh;
    * ``AssignTask`` must target a live, currently unassigned task;
    * ``MigrateTask`` must move a task from the instance it is on to a
      different instance;
    * ``UnassignTask`` must name the task's current instance;
    * ``TerminateInstance`` must not strand tasks — every hosted task
      needs a matching unassign/migrate earlier in the stream;
    * after the final action, no surviving instance may be
      over-subscribed.  (Fit is a *final-state* property: within a
      stream, a task may legally arrive on an instance before another
      departs it, exactly as the checkpoint/resume overlap plays out on
      a real cluster.)

    Returns ``{instance_id: frozenset(task_ids)}`` after all actions,
    which makes the legacy round-trip property directly testable:
    ``replay_decision(s, diff_target(s, t))`` reproduces ``t`` for any
    target that keeps all assigned tasks assigned.
    """
    instances: dict[str, Instance] = {}
    hosted: dict[str, set[str]] = {}
    placed_on: dict[str, str] = {}
    for state in snapshot.instances:
        instances[state.instance_id] = state.instance
        hosted[state.instance_id] = set(state.task_ids)
        for tid in sorted(state.task_ids):
            placed_on[tid] = state.instance_id

    def _put(task_id: str, instance_id: str) -> None:
        if instance_id not in instances:
            raise ProtocolError(
                f"task {task_id} placed on unknown instance {instance_id}"
            )
        hosted[instance_id].add(task_id)
        placed_on[task_id] = instance_id

    def _take(task_id: str, instance_id: str) -> None:
        if placed_on.get(task_id) != instance_id:
            raise ProtocolError(
                f"task {task_id} is on {placed_on.get(task_id)!r}, "
                f"not {instance_id!r}"
            )
        hosted[instance_id].discard(task_id)
        del placed_on[task_id]

    for action in decision.actions:
        if isinstance(action, LaunchInstance):
            if action.instance_id in instances:
                raise ProtocolError(
                    f"launch of existing instance {action.instance_id}"
                )
            instances[action.instance_id] = action.instance
            hosted[action.instance_id] = set()
        elif isinstance(action, AssignTask):
            if action.task_id not in snapshot.tasks:
                raise ProtocolError(f"assign of unknown task {action.task_id}")
            if action.task_id in placed_on:
                raise ProtocolError(
                    f"assign of task {action.task_id} already on "
                    f"{placed_on[action.task_id]} (use MigrateTask)"
                )
            _put(action.task_id, action.instance_id)
        elif isinstance(action, MigrateTask):
            if action.src_instance_id == action.dst_instance_id:
                raise ProtocolError(
                    f"migration of task {action.task_id} onto its own instance"
                )
            _take(action.task_id, action.src_instance_id)
            _put(action.task_id, action.dst_instance_id)
        elif isinstance(action, UnassignTask):
            _take(action.task_id, action.instance_id)
        elif isinstance(action, TerminateInstance):
            if action.instance_id not in instances:
                raise ProtocolError(
                    f"termination of unknown instance {action.instance_id}"
                )
            if hosted[action.instance_id]:
                raise ProtocolError(
                    f"termination of instance {action.instance_id} strands "
                    f"tasks {sorted(hosted[action.instance_id])}"
                )
            del instances[action.instance_id]
            del hosted[action.instance_id]
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unknown action {action!r}")
    for instance_id in sorted(hosted):
        instance = instances[instance_id]
        tasks = [snapshot.tasks[tid] for tid in sorted(hosted[instance_id])]
        if not tasks_fit_on_type(tasks, instance.instance_type):
            raise ProtocolError(
                f"instance {instance_id} ({instance.instance_type.name}) "
                f"over-subscribed by tasks {sorted(hosted[instance_id])}"
            )
    return {iid: frozenset(tids) for iid, tids in hosted.items()}


# ---------------------------------------------------------------------------
# Environment driver
# ---------------------------------------------------------------------------


class ClusterEnvironment(ABC):
    """Backend interface executing canonical action streams.

    Subclasses implement the five primitives against their substrate
    (simulated event queue, RPC-driven workers, ...) and inherit
    :meth:`execute`, the single shared interpreter — there must be no
    other apply loop.  ``begin_decision``/``finish_decision`` bracket a
    decision for backends that keep per-round state (e.g. the
    simulator's checkpoint-hold map).
    """

    @abstractmethod
    def launch_instance(self, action: LaunchInstance) -> None:
        """Provision the instance (and whatever worker rides on it)."""

    @abstractmethod
    def assign_task(self, action: AssignTask) -> None:
        """Start a queued task on an instance."""

    @abstractmethod
    def unassign_task(self, action: UnassignTask) -> None:
        """Checkpoint a task and return it to the queue."""

    @abstractmethod
    def migrate_task(self, action: MigrateTask) -> None:
        """Checkpoint a task on its source and resume it on the destination."""

    @abstractmethod
    def terminate_instance(self, action: TerminateInstance) -> None:
        """Release an (empty) instance."""

    def begin_decision(self) -> None:
        """Hook before the first action of a decision (default: no-op)."""

    def finish_decision(self) -> None:
        """Hook after the last action of a decision (default: no-op)."""

    def execute(self, decision: Decision) -> None:
        """Run every action of ``decision`` in order (the one apply loop)."""
        self.begin_decision()
        for action in decision.actions:
            if isinstance(action, LaunchInstance):
                self.launch_instance(action)
            elif isinstance(action, AssignTask):
                self.assign_task(action)
            elif isinstance(action, MigrateTask):
                self.migrate_task(action)
            elif isinstance(action, UnassignTask):
                self.unassign_task(action)
            elif isinstance(action, TerminateInstance):
                self.terminate_instance(action)
            else:  # pragma: no cover - defensive
                raise ProtocolError(f"unknown action {action!r}")
        self.finish_decision()
