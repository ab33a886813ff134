"""High-fidelity cluster simulator (§5).

The simulator replays a trace against a scheduler exactly as a real
deployment would: jobs arrive, the scheduler runs at every scheduling
period, the Provisioner/Executor operations it implies (instance launches
and terminations, task placements and migrations) are applied with the
measured Table 1 delays, and job progress accrues at interference-degraded
rates drawn from the ground-truth model (Figure 1 data).  The scheduler
never sees the ground truth — interference reaches it only through
per-round throughput reports, as in the real system.

Cost accounting bills every instance per second from launch request to
termination, so acquisition/setup delays and migration stalls show up as
paid-but-idle time (§2.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from repro.cloud.delays import DelayModel
from repro.cloud.market import MarketConfig, MarketRuntime
from repro.cloud.provider import SPOT_DISCOUNT, SimulatedCloud
from repro.cluster.instance import Instance
from repro.cluster.state import ClusterSnapshot, InstanceState
from repro.cluster.task import Job, Task
from repro.core.interfaces import JobThroughputReport, Scheduler
from repro.core.protocol import (
    AssignTask,
    ClusterEnvironment,
    DeadlineApproaching,
    InstanceFailed,
    JobArrived,
    JobFinished,
    LaunchInstance,
    MigrateTask,
    Observation,
    PoolExhausted,
    PriceChanged,
    SpotEvictionNotice,
    StragglerReport,
    TerminateInstance,
    ThroughputReport,
    UnassignTask,
)
from repro.core.throughput_table import TaskPlacementObservation
from repro.interference.model import InterferenceModel
from repro.sim.accounting import (
    ClusterAccounting,
    deadline_totals,
    failure_totals,
)
from repro.sim.engine import Event, EventKind, EventQueue
from repro.sim.metrics import (
    AllocationIntegrator,
    DeadlineOutcome,
    FailureOutcome,
    JobOutcome,
    RepairOutcome,
    SimulationResult,
)
from repro.workloads.trace import Trace

#: Default scheduling period (§3 suggests e.g. 5 minutes).
DEFAULT_PERIOD_S = 300.0

#: Safety bound on simulated time (ten years): an event past it raises
#: :class:`SimulationError`.
MAX_SIMULATED_S = 24.0 * 365 * 10 * 3600.0


@dataclass(frozen=True)
class SpotConfig:
    """Spot-market configuration (the §7 "cheaper, preemptible spot
    instances" extension).

    When enabled, every launch is a spot request: billed at
    :data:`~repro.cloud.provider.SPOT_DISCOUNT` of the on-demand price, and
    preempted after an exponentially distributed lifetime with the given
    rate.  Preempted instances vanish; their tasks are checkpointed (the
    two-minute interruption notice suffices for the Table-7 checkpoint
    times) and return to the queue for the next scheduling round.

    ``notice_s`` grants schedulers an *advance eviction warning*: that
    many seconds before an instance is reclaimed, the simulator emits a
    :class:`~repro.core.protocol.SpotEvictionNotice` observation and
    arms a scheduling round, so eviction-aware policies can drain the
    doomed instance while it is still running.  Notices are delivered
    at scheduling rounds, so a notice window shorter than the period
    may be observed too late to react; ``notice_s >= period_s`` makes
    at least one reacting round certain.  ``0`` (the default) disables
    notices and reproduces the classic no-warning spot market
    byte-identically.
    """

    enabled: bool = False
    preemption_rate_per_hour: float = 0.05
    seed: int = 0
    notice_s: float = 0.0

    def __post_init__(self) -> None:
        if self.enabled:
            if not math.isfinite(self.preemption_rate_per_hour):
                raise ValueError(
                    f"preemption rate must be finite, "
                    f"got {self.preemption_rate_per_hour}"
                )
            if self.preemption_rate_per_hour <= 0:
                raise ValueError("preemption rate must be positive when enabled")
        if not math.isfinite(self.notice_s):
            raise ValueError(f"notice_s must be finite, got {self.notice_s}")
        if self.notice_s < 0:
            raise ValueError("notice_s must be >= 0")


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class RetryPolicy:
    """How failed tasks are retried and how often progress is saved.

    Attributes:
        backoff_base_s: First-retry delay of a failed task; doubles with
            every subsequent failure of the same task (capped).  ``0``
            disables backoff (failed tasks requeue immediately).
        backoff_cap_s: Upper bound on the per-task retry delay.
        checkpoint_interval_s: Wall-clock cadence of job checkpoints; a
            crash rolls a job back to its last completed checkpoint, so
            shorter intervals lose less work.
        checkpoint_overhead: Fraction of throughput spent writing
            checkpoints (``[0, 1)``) — the cost side of the cadence
            trade-off, charged against every running job's rate while
            failure injection is enabled.
    """

    backoff_base_s: float = 60.0
    backoff_cap_s: float = 3600.0
    checkpoint_interval_s: float = 1800.0
    checkpoint_overhead: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("backoff_base_s", self.backoff_base_s)
        _require_finite("backoff_cap_s", self.backoff_cap_s)
        _require_finite("checkpoint_interval_s", self.checkpoint_interval_s)
        _require_finite("checkpoint_overhead", self.checkpoint_overhead)
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("backoff_cap_s must be >= backoff_base_s")
        if self.checkpoint_interval_s <= 0:
            raise ValueError("checkpoint_interval_s must be positive")
        if not 0.0 <= self.checkpoint_overhead < 1.0:
            raise ValueError("checkpoint_overhead must be in [0, 1)")


@dataclass(frozen=True)
class FailureConfig:
    """Stochastic fault-injection configuration (ROADMAP open item 5).

    Three fault processes, all disabled by default (and byte-identical
    to the fault-free simulator when disabled — the golden digest
    matrices pin this):

    * **Independent crashes**: every instance draws an exponential
      time-to-crash at launch (rate ``crash_rate_per_hour``).  Unlike
      spot preemption there is no graceful notice: affected jobs roll
      back to their last completed checkpoint
      (:class:`RetryPolicy.checkpoint_interval_s`), making
      ``_TaskRT.resume_version`` work-loss accounting real.
    * **Correlated domain shocks**: instances are assigned round-robin
      to ``num_domains`` failure domains (rack/AZ analogue); a Poisson
      process (rate ``domain_shock_rate_per_hour``) kills *every* alive
      instance in a uniformly drawn domain at once.
    * **Stragglers**: each instance draws an exponential onset (rate
      ``straggler_rate_per_hour``) after which its effective throughput
      is multiplied by a factor uniform in ``straggler_slowdown`` for
      ``straggler_duration_s`` seconds, then recovers.

    Faults surface on the typed observation channel
    (:class:`~repro.core.protocol.InstanceFailed`,
    :class:`~repro.core.protocol.StragglerReport`) so policies can react
    without snapshot sniffing.  Two independent seeded streams drive the
    draws: per-launch draws (crash, straggler) and the domain-shock
    process, so shock timing does not depend on how many instances a
    scheduler launched.
    """

    enabled: bool = False
    crash_rate_per_hour: float = 0.0
    num_domains: int = 4
    domain_shock_rate_per_hour: float = 0.0
    straggler_rate_per_hour: float = 0.0
    straggler_slowdown: tuple[float, float] = (0.3, 0.7)
    straggler_duration_s: float = 3600.0
    seed: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        for name in (
            "crash_rate_per_hour",
            "domain_shock_rate_per_hour",
            "straggler_rate_per_hour",
            "straggler_duration_s",
        ):
            value = getattr(self, name)
            _require_finite(name, value)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.straggler_duration_s <= 0:
            raise ValueError("straggler_duration_s must be positive")
        if self.num_domains < 1:
            raise ValueError("num_domains must be >= 1")
        lo, hi = self.straggler_slowdown
        _require_finite("straggler_slowdown[0]", lo)
        _require_finite("straggler_slowdown[1]", hi)
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError(
                "straggler_slowdown must satisfy 0 < lo <= hi <= 1, "
                f"got {self.straggler_slowdown}"
            )


_WORK_EPS = 1e-9


class TaskStatus(Enum):
    QUEUED = "queued"  # never placed
    PENDING = "pending"  # placed; waiting for instance/migration delays
    RUNNING = "running"


@dataclass
class _TaskRT:
    task: Task
    status: TaskStatus = TaskStatus.QUEUED
    instance_id: str | None = None
    resume_version: int = 0
    #: Instance crashes this task has survived (drives the capped
    #: exponential retry backoff; scheduler unassigns don't count).
    failures: int = 0
    #: Earliest time the task may resume after a failure (capped
    #: exponential backoff); 0.0 — never constraining — without faults.
    retry_until_s: float = 0.0


@dataclass
class _JobRT:
    job: Job
    arrival_s: float
    work_done_h: float = 0.0
    rate: float = 0.0
    last_update_s: float = 0.0
    idle_h: float = 0.0
    finish_version: int = 0
    finished: bool = False
    finish_s: float = 0.0
    #: Immutable task_id → Task map, built once at arrival and reused by
    #: every snapshot instead of re-walking ``job.tasks``.
    task_map: dict[str, Task] = field(default_factory=dict)
    #: Checkpoint cadence in wall-clock seconds; None when failure
    #: injection is off (the rollback machinery then costs nothing).
    ckpt_interval_s: float | None = None
    #: Work recorded at the last completed checkpoint — what an abrupt
    #: crash rolls ``work_done_h`` back to.
    ckpt_work_h: float = 0.0
    #: Time of the last completed checkpoint (anchored at arrival).
    last_ckpt_s: float = 0.0
    #: Start of the current failure outage, or None when healthy; spans
    #: from an instance crash until the job's rate recovers above zero
    #: (per-job MTTR accumulates from these).
    outage_start_s: float | None = None

    def advance(self, now_s: float) -> None:
        """Integrate progress (and idle time) up to ``now_s``."""
        dt_h = (now_s - self.last_update_s) / 3600.0
        if dt_h <= 0:
            return
        interval = self.ckpt_interval_s
        if interval is not None:
            # Complete every checkpoint boundary crossed in this span.
            # ``last_ckpt_s + interval > last_update_s`` holds because
            # every advance consumes its boundaries, so the rate is
            # constant from ``last_update_s`` to the latest boundary and
            # the work there is exact.
            periods = (now_s - self.last_ckpt_s) // interval
            if periods >= 1.0:
                boundary_s = self.last_ckpt_s + periods * interval
                self.ckpt_work_h = self.work_done_h + self.rate * (
                    (boundary_s - self.last_update_s) / 3600.0
                )
                self.last_ckpt_s = boundary_s
        if self.rate > 0:
            self.work_done_h += self.rate * dt_h
        else:
            self.idle_h += dt_h
        self.last_update_s = now_s

    @property
    def remaining_h(self) -> float:
        return max(0.0, self.job.duration_hours - self.work_done_h)


@dataclass
class _InstanceRT:
    instance: Instance
    ready_time_s: float
    assigned: set[str] = field(default_factory=set)
    alive: bool = True
    #: Sorted workloads of the RUNNING tasks on this instance; None when a
    #: membership/status change invalidated it (recomputed lazily).
    running_cache: tuple[str, ...] | None = None
    #: This instance as snapshots show it; None when ``assigned`` changed.
    state_cache: InstanceState | None = None
    #: Round-robin failure-domain id (rack/AZ analogue); only assigned
    #: when fault injection is on.
    failure_domain: int = 0
    #: Straggler multiplier on effective throughput; 1.0 when healthy.
    slowdown: float = 1.0
    #: Burstable-credit multiplier; 1.0 until the instance exhausts its
    #: CPU credits (kept separate from ``slowdown`` so a straggler fault
    #: and credit exhaustion compose instead of clobbering each other).
    credit_mult: float = 1.0
    #: Whether the instance was launched on the spot market (price-change
    #: re-rating must keep the spot discount in the new rate).
    spot: bool = False
    #: Per-run launch ordinal (0 = the run's first launch).  Result
    #: records use this instead of ``instance_id``: ids come from a
    #: process-global counter, so embedding one would break run-to-run
    #: and serial-vs-parallel byte identity.
    launch_index: int = 0

    def invalidate(self) -> None:
        self.running_cache = None
        self.state_cache = None

    def state(self) -> InstanceState:
        state = self.state_cache
        if state is None:
            state = self.state_cache = InstanceState(
                instance=self.instance, task_ids=frozenset(self.assigned)
            )
        return state


class SimulationError(RuntimeError):
    """Raised on internal inconsistencies or runaway simulations."""


class _SimEnvironment(ClusterEnvironment):
    """Simulator backend of the action protocol.

    Implements the five primitives against the discrete-event state —
    cloud ledger, runtime tables, delay-model draws, event queue — and
    inherits the shared action interpreter from
    :class:`~repro.core.protocol.ClusterEnvironment`.  Checkpoint holds
    (a migrated or unassigned task's source instance must stay up until
    its checkpoint completes) are per-decision state, reset by
    ``begin_decision``; the canonical action order guarantees every
    migration off an instance precedes that instance's termination.
    """

    def __init__(self, sim: "ClusterSimulator"):
        self._sim = sim
        self._hold_until: dict[str, float] = {}

    def begin_decision(self) -> None:
        self._hold_until.clear()

    def launch_instance(self, action: LaunchInstance) -> None:
        sim = self._sim
        instance = action.instance
        # Schedulers may opt out of the spot market per round by setting
        # a ``use_spot = False`` attribute (the eva-market on-demand
        # fallback during eviction storms): the launch then bills at the
        # full on-demand rate and draws no preemption lifetime.  Absent
        # the attribute this is exactly ``sim.spot.enabled``.
        spot_launch = sim.spot.enabled and bool(
            getattr(sim.scheduler, "use_spot", True)
        )
        receipt = sim.cloud.launch(
            instance.instance_type,
            sim.now_s,
            instance=instance,
            spot=spot_launch,
        )
        rt = _InstanceRT(
            instance=instance,
            ready_time_s=receipt.ready_time_s,
            launch_index=sim._launch_seq,
            spot=spot_launch,
        )
        sim._launch_seq += 1
        sim._instances[instance.instance_id] = rt
        sim._placement_epoch += 1
        sim._acct.instance_up(instance.instance_type)
        if sim._market_rt is not None:
            if receipt.pool_exhausted:
                sim._pool_exhaustions += 1
                index = sim._market_rt.pool_index_for_family(
                    instance.instance_type.family
                )
                sim._pending_obs.append(
                    PoolExhausted(
                        pool=receipt.pool,
                        time_s=sim.now_s,
                        families=sim._market_rt.pool(index).families,
                    )
                )
            credits = sim.market.credits
            if (
                sim._credit_enabled
                and instance.instance_type.family in credits.families
            ):
                # Exhaustion is deterministic from the launch timestamp
                # (fixed net burn while billed; see CreditModel).
                sim.queue.push(
                    Event(
                        sim.now_s + credits.exhaustion_horizon_s,
                        EventKind.CREDIT_EXHAUSTED,
                        instance.instance_id,
                    )
                )
        if sim._fail_enabled:
            fail = sim.failures
            rt.failure_domain = sim._next_domain
            sim._next_domain = (sim._next_domain + 1) % fail.num_domains
            # Fixed per-launch draw order (crash lifetime, then straggler
            # onset + factor) keeps the stream deterministic regardless
            # of which events later turn out stale.
            if fail.crash_rate_per_hour > 0:
                life_s = float(
                    sim._fail_rng.exponential(
                        3600.0 / fail.crash_rate_per_hour
                    )
                )
                sim.queue.push(
                    Event(
                        sim.now_s + life_s,
                        EventKind.INSTANCE_FAILURE,
                        ("instance", instance.instance_id),
                    )
                )
            if fail.straggler_rate_per_hour > 0:
                onset_s = float(
                    sim._fail_rng.exponential(
                        3600.0 / fail.straggler_rate_per_hour
                    )
                )
                lo, hi = fail.straggler_slowdown
                factor = float(sim._fail_rng.uniform(lo, hi))
                sim.queue.push(
                    Event(
                        sim.now_s + onset_s,
                        EventKind.SLOWDOWN_START,
                        (instance.instance_id, factor),
                    )
                )
        if spot_launch:
            rate_per_hour = sim.spot.preemption_rate_per_hour
            if (
                sim._market_rt is not None
                and sim.market.eviction_coupling != 0.0
            ):
                # Price pressure at launch scales the eviction hazard:
                # hot markets reclaim discounted capacity faster.  The
                # guard keeps the legacy draw arithmetic untouched when
                # no market (or no coupling) is configured.
                mult = sim._market_rt.multiplier_at(
                    instance.instance_type, sim.now_s
                )
                if mult != 1.0:
                    rate_per_hour = rate_per_hour * (
                        mult**sim.market.eviction_coupling
                    )
            lifetime_s = float(
                sim._spot_rng.exponential(3600.0 / rate_per_hour)
            )
            preempt_at = sim.now_s + lifetime_s
            sim.queue.push(
                Event(
                    preempt_at,
                    EventKind.INSTANCE_PREEMPTION,
                    instance.instance_id,
                )
            )
            if sim.spot.notice_s > 0:
                sim.queue.push(
                    Event(
                        max(sim.now_s, preempt_at - sim.spot.notice_s),
                        EventKind.EVICTION_NOTICE,
                        (instance.instance_id, preempt_at),
                    )
                )

    def assign_task(self, action: AssignTask) -> None:
        sim = self._sim
        sim._placements += 1
        self._start_task(
            sim._tasks[action.task_id],
            action.instance_id,
            checkpoint_done=sim.now_s,
        )

    def migrate_task(self, action: MigrateTask) -> None:
        sim = self._sim
        task_rt = sim._tasks[action.task_id]
        checkpoint_done = self._checkpoint_off(task_rt, action.src_instance_id)
        sim._migrations += 1
        self._start_task(
            task_rt, action.dst_instance_id, checkpoint_done=checkpoint_done
        )

    def unassign_task(self, action: UnassignTask) -> None:
        task_rt = self._sim._tasks[action.task_id]
        self._checkpoint_off(task_rt, action.instance_id)
        self._sim._requeue(task_rt)

    def terminate_instance(self, action: TerminateInstance) -> None:
        sim = self._sim
        iid = action.instance_id
        rt = sim._instances.get(iid)
        if rt is None or not rt.alive:
            return
        if rt.assigned:
            raise SimulationError(
                f"terminating instance {iid} with assigned tasks {rt.assigned}"
            )
        sim._retire(rt, self._hold_until.get(iid))

    def _checkpoint_off(self, task_rt: _TaskRT, src: str) -> float:
        """Checkpoint a task off ``src`` (migration or unassign).

        The checkpoint keeps the task's progress; ``src`` must stay up
        (and billed) until it completes, so a termination of ``src`` in
        this decision is held until then.  Returns the completion time.
        """
        sim = self._sim
        task = task_rt.task
        sim._detach(task, sim._instances[src])
        checkpoint = sim.delay_model.checkpoint_s(task.migration.checkpoint_s)
        done = sim.now_s + checkpoint
        self._hold_until[src] = max(self._hold_until.get(src, 0.0), done)
        return done

    def _start_task(
        self, task_rt: _TaskRT, dst: str, checkpoint_done: float
    ) -> None:
        """Shared placement tail: bind the task and queue its resume."""
        sim = self._sim
        task = task_rt.task
        dst_rt = sim._instances[dst]
        dst_rt.assigned.add(task.task_id)
        dst_rt.invalidate()
        sim._acct.task_assigned(task, dst_rt.instance.instance_type)
        task_rt.instance_id = dst
        task_rt.status = TaskStatus.PENDING
        task_rt.resume_version += 1
        sim._placement_epoch += 1
        # Delays are sequential (Table 1): the checkpoint must finish
        # AND the destination must be up before the task launch delay
        # starts.
        launch = sim.delay_model.launch_s(task.migration.launch_s)
        resume = max(dst_rt.ready_time_s, checkpoint_done) + launch
        if task_rt.retry_until_s > resume:
            # Capped exponential backoff of a repeatedly failing task:
            # the placement happens, but the restart waits out the
            # cooldown (0.0 without faults — never constraining).
            resume = task_rt.retry_until_s
        sim.queue.push(
            Event(
                resume,
                EventKind.TASK_READY,
                (task.task_id, task_rt.resume_version),
            )
        )


class ClusterSimulator:
    """Replays a trace against one scheduler and collects metrics.

    Args:
        trace: Arrival-ordered jobs.
        scheduler: Any :class:`~repro.core.interfaces.Scheduler`.
        interference: Ground-truth co-location model (Figure 1 data by
            default).
        delay_model: Reconfiguration delay model (Table 1 means by
            default).
        period_s: Scheduling period.
        validate: Validate every target configuration against its
            snapshot (slower; on by default in tests).
        spot: Optional spot-market configuration (discounted, preemptible
            instances).
        deadline_warning_s: Horizon of the
            :class:`~repro.core.protocol.DeadlineApproaching` warning: a
            deadline-bearing job's warning is emitted at the first
            scheduling round within this many seconds of its deadline
            (once per job — warnings are deduplicated across rounds).
            ``None`` (the default) keeps the classic two-period horizon
            — the round that could still react plus one period of slack;
            large values tell deadline-aware policies about SLOs
            essentially at arrival.
        failures: Optional stochastic fault injection (crashes, domain
            shocks, stragglers; see :class:`FailureConfig`).  ``None``
            or a disabled config reproduces the fault-free simulator
            byte-identically.
        market: Optional spot-market economics (per-pool price traces,
            finite capacity, burstable credits; see
            :class:`~repro.cloud.market.MarketConfig`).  ``None``, a
            disabled config, or a single static-price pool at
            multiplier 1 reproduces the market-free simulator
            byte-identically.
    """

    def __init__(
        self,
        trace: Trace,
        scheduler: Scheduler,
        interference: InterferenceModel | None = None,
        delay_model: DelayModel | None = None,
        period_s: float = DEFAULT_PERIOD_S,
        validate: bool = False,
        spot: SpotConfig | None = None,
        deadline_warning_s: float | None = None,
        failures: FailureConfig | None = None,
        market: MarketConfig | None = None,
    ):
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if deadline_warning_s is not None and deadline_warning_s < 0:
            raise ValueError("deadline_warning_s must be >= 0")
        self.trace = trace
        self.scheduler = scheduler
        self.interference = interference or InterferenceModel()
        self.delay_model = delay_model or DelayModel()
        self.period_s = period_s
        self.validate = validate
        self.spot = spot or SpotConfig()
        self._spot_rng = np.random.default_rng(self.spot.seed)
        self._preemptions = 0
        self.failures = failures or FailureConfig()
        self._fail_enabled = self.failures.enabled
        #: Two independent streams (see :class:`FailureConfig`): one for
        #: per-launch draws (crash lifetime, straggler onset + factor),
        #: one for the domain-shock Poisson process, so shock timing does
        #: not depend on how many instances the scheduler launched.
        self._fail_rng = np.random.default_rng([self.failures.seed, 1])
        self._shock_rng = np.random.default_rng([self.failures.seed, 2])
        self._next_domain = 0
        self._launch_seq = 0
        #: Throughput multiplier charging checkpoint overhead against
        #: every running job; exactly 1.0 when faults are off, keeping
        #: the fault-free rate arithmetic byte-identical.
        self._ckpt_rate_mult = (
            1.0 - self.failures.retry.checkpoint_overhead
            if self._fail_enabled
            else 1.0
        )
        self._failure_outcomes: list[FailureOutcome] = []
        self._repair_outcomes: list[RepairOutcome] = []

        self.market = market or MarketConfig()
        #: Runtime market state (prices, capacity, membership); None on
        #: the no-market path, which then performs no price arithmetic.
        self._market_rt = (
            MarketRuntime(self.market) if self.market.active else None
        )
        credits = self.market.credits if self._market_rt is not None else None
        self._credit_enabled = credits is not None and bool(credits.families)
        self._price_changes = 0
        self._pool_exhaustions = 0
        self._credit_exhaustions = 0

        self.cloud = SimulatedCloud(
            delay_model=self.delay_model, market=self._market_rt
        )
        self.queue = EventQueue()
        self.now_s = 0.0

        self._jobs: dict[str, _JobRT] = {}
        self._tasks: dict[str, _TaskRT] = {}
        self._instances: dict[str, _InstanceRT] = {}
        self._terminate_holds: dict[str, float] = {}
        #: Epoch counter over placement-visible state: live jobs/tasks,
        #: task statuses, and task-to-instance assignments.  Everything
        #: the per-round snapshot and throughput reports are computed
        #: from is a pure function of this state, so while the epoch
        #: stands still last round's snapshot collections and reports
        #: tuple are reused outright (steady-state rounds between job
        #: events dominate long traces).
        self._placement_epoch = 0
        #: Jobs whose report or rate a transition may have moved since
        #: the last round-end re-rate (see :meth:`_mark`).
        self._moved: set[str] = set()
        #: Each live job's last report (None while any of its tasks is
        #: not RUNNING); a mark drops the job's entry.
        self._job_reports: dict[str, JobThroughputReport | None] = {}
        self._reports_cache: tuple[JobThroughputReport, ...] = ()
        self._reports_epoch = -1
        #: The snapshot's ``tasks`` and ``jobs`` dicts (in ``_jobs``
        #: order) and the live job ids in ascending order; None once a
        #: job arrived or finished.
        self._live_cache: (
            tuple[dict[str, Task], dict[str, Job], list[str]] | None
        ) = None
        self._instance_states: tuple[InstanceState, ...] = ()
        self._snapshot_epoch = -1
        #: Timestamp of the queued scheduling round, or None when no round
        #: is armed.  Tracking the timestamp (not a bool) dedupes redundant
        #: round events: an arm request whose boundary is already covered
        #: by the queued round is a no-op, and a round event superseded by
        #: an earlier re-arm is recognized as stale in ``_on_round``.
        self._armed_round_s: float | None = None
        self._finished_jobs = 0
        self._outcomes: list[JobOutcome] = []
        self._migrations = 0
        self._placements = 0
        self._rounds = 0
        self.events_dispatched = 0
        self._alloc = AllocationIntegrator()
        self._acct = ClusterAccounting()
        self._accounting_time_s = 0.0
        #: Action-protocol backend; the single apply path.
        self._env = _SimEnvironment(self)
        #: Typed observations accumulated since the last scheduler call.
        self._pending_obs: list[Observation] = []
        #: Deadline warnings fire within this many seconds of a job's
        #: deadline (default: two periods — the round that could still
        #: react plus one of slack).
        self.deadline_warning_s = (
            2.0 * period_s if deadline_warning_s is None else deadline_warning_s
        )
        #: Jobs whose DeadlineApproaching warning was already emitted
        #: (warnings are delivered once, not re-emitted every round).
        self._deadline_warned: set[str] = set()
        #: Deadline-free traces, and schedulers that read no warnings,
        #: skip the per-round warning scan outright.
        self._scans_deadlines = scheduler.reads_observation(
            DeadlineApproaching
        ) and any(job.deadline_hours is not None for job in trace)
        #: A scheduler that reads no reports gets none built.
        self._builds_reports = scheduler.reads_observation(ThroughputReport)
        #: Steady-round observation tuple, keyed by the identity of the
        #: (epoch-cached) reports tuple it wraps.
        self._obs_cache: tuple[Observation, ...] = ()
        self._obs_cache_src: tuple[JobThroughputReport, ...] | None = None
        #: Finish-order SLO records of deadline-bearing jobs.
        self._deadline_outcomes: list[DeadlineOutcome] = []

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        self.queue.push_all(
            Event(job.arrival_time_s, EventKind.JOB_ARRIVAL, job)
            for job in self.trace
        )
        if self._fail_enabled and self.failures.domain_shock_rate_per_hour > 0:
            self._schedule_next_shock()
        if self._market_rt is not None:
            # One self-scheduling PRICE_CHANGE stream per non-static
            # pool; a static pool (or an all-static market) arms nothing
            # and the event loop is untouched.
            for index, boundary in self._market_rt.initial_boundaries():
                self.queue.push(
                    Event(boundary, EventKind.PRICE_CHANGE, index)
                )
        total_jobs = len(self.trace)

        while self.queue:
            event = self.queue.pop()
            if event.time_s > MAX_SIMULATED_S:
                raise SimulationError(
                    f"simulation exceeded {MAX_SIMULATED_S / 3600.0} hours"
                )
            self._account_until(event.time_s)
            self.now_s = event.time_s
            self._dispatch(event)
            if self._finished_jobs == total_jobs:
                break

        self._drain_terminations()
        end_s = self.now_s
        uptimes = self.cloud.ledger.uptimes_hours(end_s)
        full_fraction = None
        adoption = getattr(self.scheduler, "full_adoption_fraction", None)
        if callable(adoption):
            full_fraction = adoption()
        deadline_misses, lateness_s = deadline_totals(self._deadline_outcomes)
        task_restarts, work_lost_h = failure_totals(self._failure_outcomes)
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            trace_name=self.trace.name,
            total_cost=self.cloud.total_cost(end_s),
            jobs=sorted(self._outcomes, key=lambda o: o.job_id),
            instances_launched=self.cloud.ledger.instances_launched(),
            migrations=self._migrations,
            placements=self._placements,
            uptimes_hours=uptimes,
            allocation=self._alloc.allocation_ratios(),
            tasks_per_instance=self._alloc.tasks_per_instance(),
            makespan_hours=end_s / 3600.0,
            full_adoption_fraction=full_fraction,
            scheduling_rounds=self._rounds,
            preemptions=self._preemptions,
            # SLO records in finish order and the totals summed over
            # them; reliability records in dispatch/recovery order and
            # theirs.  All at their defaults (and omitted from the
            # pickle) without deadlines or fault injection.
            deadline_outcomes=tuple(self._deadline_outcomes),
            deadline_miss_count=deadline_misses,
            deadline_total_lateness_s=lateness_s,
            failure_outcomes=tuple(self._failure_outcomes),
            repair_outcomes=tuple(self._repair_outcomes),
            task_restarts=task_restarts,
            work_lost_h=work_lost_h,
            # Spot-market totals; all zero (and omitted from the pickle)
            # without an active market.
            price_changes=self._price_changes,
            pool_exhaustions=self._pool_exhaustions,
            credit_exhaustions=self._credit_exhaustions,
        )

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, event: Event) -> None:
        self.events_dispatched += 1
        if event.kind == EventKind.JOB_ARRIVAL:
            self._on_arrival(event.payload)
        elif event.kind == EventKind.TASK_READY:
            task_id, version = event.payload
            self._on_task_ready(task_id, version)
        elif event.kind == EventKind.JOB_FINISH:
            job_id, version = event.payload
            self._on_job_finish(job_id, version)
        elif event.kind == EventKind.INSTANCE_PREEMPTION:
            self._on_instance_preemption(event.payload)
        elif event.kind == EventKind.INSTANCE_TERMINATE:
            self._on_instance_terminate(event.payload)
        elif event.kind == EventKind.EVICTION_NOTICE:
            instance_id, eviction_time_s = event.payload
            self._on_eviction_notice(instance_id, eviction_time_s)
        elif event.kind == EventKind.INSTANCE_FAILURE:
            scope, target = event.payload
            self._on_instance_failure(scope, target)
        elif event.kind == EventKind.SLOWDOWN_START:
            instance_id, factor = event.payload
            self._on_slowdown_start(instance_id, factor)
        elif event.kind == EventKind.SLOWDOWN_END:
            self._on_slowdown_end(event.payload)
        elif event.kind == EventKind.PRICE_CHANGE:
            self._on_price_change(event.payload)
        elif event.kind == EventKind.CREDIT_EXHAUSTED:
            self._on_credit_exhausted(event.payload)
        elif event.kind == EventKind.SCHEDULING_ROUND:
            self._on_round()
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event kind {event.kind}")

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def _on_arrival(self, job: Job) -> None:
        rt = _JobRT(
            job=job,
            arrival_s=self.now_s,
            last_update_s=self.now_s,
            task_map={t.task_id: t for t in job.tasks},
        )
        if self._fail_enabled:
            # Checkpoint cadence anchors at arrival; a crash rolls the
            # job back to the last completed boundary.
            rt.ckpt_interval_s = self.failures.retry.checkpoint_interval_s
            rt.last_ckpt_s = self.now_s
        self._jobs[job.job_id] = rt
        self._live_cache = None
        for task in job.tasks:
            self._tasks[task.task_id] = _TaskRT(task=task)
        self._placement_epoch += 1
        self._mark((job.job_id,))
        self._pending_obs.append(JobArrived(job_id=job.job_id, time_s=self.now_s))
        self._ensure_round_scheduled()

    def _ensure_round_scheduled(self) -> None:
        periods_done = int(self.now_s // self.period_s)
        next_round = periods_done * self.period_s
        if next_round < self.now_s:
            next_round = (periods_done + 1) * self.period_s
        # An arrival exactly on a period boundary is handled by the round
        # at that same timestamp (rounds sort after arrivals).
        armed = self._armed_round_s
        if armed is not None and armed <= next_round:
            return  # a round at or before that boundary is already queued
        self.queue.push(Event(next_round, EventKind.SCHEDULING_ROUND))
        self._armed_round_s = next_round

    # ------------------------------------------------------------------
    # Scheduling rounds
    # ------------------------------------------------------------------
    def _live_views(self) -> tuple[dict[str, Task], dict[str, Job], list[str]]:
        views = self._live_cache
        if views is None:
            tasks: dict[str, Task] = {}
            jobs: dict[str, Job] = {}
            for jid, rt in self._jobs.items():
                jobs[jid] = rt.job
                tasks.update(rt.task_map)
            views = self._live_cache = (tasks, jobs, sorted(jobs))
        return views

    def _on_round(self) -> None:
        if self._armed_round_s is None or self.now_s != self._armed_round_s:
            return  # stale round event, superseded by an earlier re-arm
        self._armed_round_s = None
        tasks, jobs, live = self._live_views()
        if not live:
            return  # next arrival re-arms the round cadence
        self._rounds += 1

        self._advance_all(live)
        snapshot = self._snapshot(tasks, jobs)
        decision = self.scheduler.decide(snapshot, self._round_observations(live))
        if self.validate:
            decision.validate(
                snapshot, allowed_actions=self.scheduler.action_types
            )
        self._env.execute(decision)
        # A job no transition marked since the last re-rate keeps the
        # rate it was last given, so re-rating it would change nothing.
        self._refresh_rates(self._moved)
        self._moved.clear()

        next_round = self.now_s + self.period_s
        self.queue.push(Event(next_round, EventKind.SCHEDULING_ROUND))
        self._armed_round_s = next_round

    def _snapshot(
        self, tasks: dict[str, Task], jobs: dict[str, Job]
    ) -> ClusterSnapshot:
        # ``tasks`` and ``jobs`` change only when a job arrives or
        # finishes, an instance keeps its state until its task set
        # changes, and the instances tuple stays last round's while it
        # would hold the same states: a round after task-status changes
        # alone hands the scheduler last round's collections, restamped.
        # Consumers treat snapshots as immutable, which the frozen
        # dataclass already promises.
        if self._snapshot_epoch != self._placement_epoch:
            alive = sorted(
                (irt for irt in self._instances.values() if irt.alive),
                key=lambda irt: irt.instance.instance_id,
            )
            self._instance_states = _same_or_new(
                [irt.state() for irt in alive], self._instance_states
            )
            self._snapshot_epoch = self._placement_epoch
        return ClusterSnapshot(
            time_s=self.now_s,
            tasks=tasks,
            jobs=jobs,
            instances=self._instance_states,
        )

    def _round_observations(
        self, live: Sequence[str]
    ) -> tuple[Observation, ...]:
        """Drain and assemble this round's typed observation stream.

        ``live`` holds the live job ids in ascending order.  Order is
        deterministic: events accumulated since the last scheduler call
        (arrivals, completions, eviction notices) in dispatch order,
        then deadline warnings for live deadline-bearing jobs (ascending
        job id), then per-job throughput reports.

        A job's :class:`~repro.core.protocol.DeadlineApproaching`
        warning is emitted exactly once — at the first round falling
        within ``deadline_warning_s`` of its deadline — mirroring how
        arrivals/completions fire once; consumers keep their own
        deadline map (pruned against the snapshot) like eviction-notice
        consumers do.

        Warnings and reports are built only for a scheduler whose
        :attr:`~repro.core.interfaces.Scheduler.observation_types` admits
        them; the accumulated events are passed on unfiltered.
        """
        observations = self._pending_obs
        self._pending_obs = []
        if self._scans_deadlines:
            for jid in live:
                if jid in self._deadline_warned:
                    continue
                rt = self._jobs[jid]
                deadline_hours = rt.job.deadline_hours
                if deadline_hours is None:
                    continue
                deadline_s = rt.arrival_s + deadline_hours * 3600.0
                if self.now_s + self.deadline_warning_s >= deadline_s:
                    self._deadline_warned.add(jid)
                    observations.append(
                        DeadlineApproaching(job_id=jid, deadline_s=deadline_s)
                    )
        if not self._builds_reports:
            return tuple(observations)
        reports = self._throughput_reports(live)
        if observations:
            observations.extend(ThroughputReport(r) for r in reports)
            return tuple(observations)
        # Steady rounds: the reports tuple is last round's object, so the
        # wrapper tuple can be reused as-is.
        if reports is not self._obs_cache_src:
            self._obs_cache_src = reports
            self._obs_cache = tuple(ThroughputReport(r) for r in reports)
        return self._obs_cache

    def _throughput_reports(
        self, live: Sequence[str]
    ) -> tuple[JobThroughputReport, ...]:
        """Ground-truth job throughputs for fully running jobs (§5), in
        the order of ``live`` (ascending job id).

        A job's report is kept until a transition marks the job, so a
        round recomputes only the marked jobs' reports.  When every
        report is the object last round returned, so is the tuple, which
        lets the monitor's ingest fast path recognize an already-applied
        round of reports.
        """
        if self._reports_epoch == self._placement_epoch:
            return self._reports_cache
        kept = self._job_reports
        reports = []
        for jid in live:
            if jid not in kept:
                kept[jid] = self._job_report(self._jobs[jid])
            report = kept[jid]
            if report is not None:
                reports.append(report)
        self._reports_cache = _same_or_new(reports, self._reports_cache)
        self._reports_epoch = self._placement_epoch
        return self._reports_cache

    def _job_report(self, job_rt: _JobRT) -> JobThroughputReport | None:
        """The job's report, or None while any of its tasks is not RUNNING."""
        task_rts = [self._tasks[t.task_id] for t in job_rt.job.tasks]
        if any(t.status is not TaskStatus.RUNNING for t in task_rts):
            return None
        placements = tuple(
            TaskPlacementObservation(
                workload=t.task.workload,
                neighbours=tuple(self._running_neighbours(t)),
            )
            for t in task_rts
        )
        return JobThroughputReport(
            job_id=job_rt.job.job_id,
            normalized_tput=self._job_rate(job_rt),
            placements=placements,
        )

    # ------------------------------------------------------------------
    # Cluster-state transitions: every event handler and environment
    # action changes task and instance state through these, so each
    # ClusterAccounting update has one call site.
    # ------------------------------------------------------------------
    def _mark(self, job_ids: Iterable[str]) -> None:
        """The reports and rates of ``job_ids`` may have moved: drop
        their kept reports and re-rate them at the round's end.

        A job's report and rate read its tasks' statuses, their
        instances' running neighbours and the instances' throughput
        multipliers, so the transitions that change those mark the jobs
        they touch.  ``_start_task`` marks none: a PENDING task is in no
        running-neighbour multiset, and its job already had a task that
        was not RUNNING (a migrating task's ``_detach`` marked it).
        """
        reports = self._job_reports
        for jid in job_ids:
            reports.pop(jid, None)
        self._moved.update(job_ids)

    def _detach(self, task: Task, inst: _InstanceRT) -> None:
        """``task`` leaves ``inst`` (still billed if it is alive)."""
        inst.assigned.discard(task.task_id)
        inst.invalidate()
        if inst.alive:
            self._acct.task_unassigned(task, inst.instance.instance_type)
        self._placement_epoch += 1
        touched = self._jobs_sharing_instance(inst.instance.instance_id)
        touched.add(task.job_id)
        self._mark(touched)

    def _requeue(self, task_rt: _TaskRT) -> None:
        """The task waits for a new placement; a pending resume goes stale."""
        task_rt.status = TaskStatus.QUEUED
        task_rt.instance_id = None
        task_rt.resume_version += 1
        self._placement_epoch += 1
        self._mark((task_rt.task.job_id,))

    def _retire(self, inst: _InstanceRT, hold_until_s: float | None = None) -> None:
        """``inst`` goes down: it leaves the cluster now, and its billing
        stops now or, under a checkpoint hold, at ``hold_until_s``."""
        inst.alive = False
        self._placement_epoch += 1
        self._acct.instance_down(inst.instance.instance_type)
        iid = inst.instance.instance_id
        if hold_until_s is None or hold_until_s <= self.now_s:
            self.cloud.terminate(iid, self.now_s)
            del self._instances[iid]
        else:
            self._terminate_holds[iid] = hold_until_s
            self.queue.push(Event(hold_until_s, EventKind.INSTANCE_TERMINATE, iid))

    def _lose_instance(self, inst: _InstanceRT) -> list[_TaskRT]:
        """Preemption, crash or domain shock: every task on ``inst``
        returns to the queue (ascending task id) and ``inst`` retires at
        once.  Returns the requeued tasks."""
        lost: list[_TaskRT] = []
        for task_id in sorted(inst.assigned):
            task_rt = self._tasks.get(task_id)
            if task_rt is None:
                continue
            self._detach(task_rt.task, inst)
            self._requeue(task_rt)
            lost.append(task_rt)
        self._retire(inst)
        return lost

    def _rerate(self, inst: _InstanceRT, multiplier: str, value: float) -> None:
        """One of ``inst``'s throughput multipliers (``slowdown`` or
        ``credit_mult``) becomes ``value``: progress is integrated at the
        old rates, a ``StragglerReport`` carries ``value`` to the next
        round (which this arms), and the jobs on ``inst`` are re-rated."""
        iid = inst.instance.instance_id
        affected = self._jobs_sharing_instance(iid)
        self._advance_all(affected)
        setattr(inst, multiplier, value)
        # Reported rates are placement-visible state: the affected jobs'
        # reports are rebuilt with the new throughput.
        self._placement_epoch += 1
        self._mark(affected)
        self._pending_obs.append(
            StragglerReport(instance_id=iid, time_s=self.now_s, slowdown=value)
        )
        self._refresh_rates(affected)
        self._ensure_round_scheduled()

    # ------------------------------------------------------------------
    # Task / job / instance events
    # ------------------------------------------------------------------
    def _on_task_ready(self, task_id: str, version: int) -> None:
        task_rt = self._tasks.get(task_id)
        if task_rt is None or task_rt.resume_version != version:
            return
        job_rt = self._jobs.get(task_rt.task.job_id)
        if job_rt is None or job_rt.finished:
            return
        affected = self._jobs_sharing_instance(task_rt.instance_id)
        affected.add(task_rt.task.job_id)
        self._advance_all(affected)
        task_rt.status = TaskStatus.RUNNING
        self._placement_epoch += 1
        self._mark(affected)
        inst = self._instances.get(task_rt.instance_id)
        if inst is not None:
            inst.running_cache = None
        self._refresh_rates(affected)

    def _on_job_finish(self, job_id: str, version: int) -> None:
        job_rt = self._jobs.get(job_id)
        if job_rt is None or job_rt.finished or job_rt.finish_version != version:
            return  # stale event from a superseded rate estimate
        job_rt.advance(self.now_s)
        if job_rt.remaining_h > 1e-6:
            raise SimulationError(
                f"job {job_id} finish event fired with {job_rt.remaining_h:.6f}h left"
            )
        affected: set[str] = set()
        for task in job_rt.job.tasks:
            task_rt = self._tasks[task.task_id]
            iid = task_rt.instance_id
            if iid is not None:
                affected |= self._jobs_sharing_instance(iid)
        affected.discard(job_id)
        self._advance_all(affected)

        job_rt.finished = True
        job_rt.finish_s = self.now_s
        self._placement_epoch += 1
        self._finished_jobs += 1
        for task in job_rt.job.tasks:
            task_rt = self._tasks[task.task_id]
            iid = task_rt.instance_id
            if iid is not None and iid in self._instances:
                inst = self._instances[iid]
                self._detach(task, inst)
                if not inst.assigned and inst.alive:
                    self._retire(inst)
            del self._tasks[task.task_id]
        self._outcomes.append(
            JobOutcome(
                job_id=job_id,
                workload=job_rt.job.workload,
                num_tasks=job_rt.job.num_tasks,
                arrival_s=job_rt.arrival_s,
                finish_s=self.now_s,
                duration_hours=job_rt.job.duration_hours,
                idle_hours=job_rt.idle_h,
            )
        )
        deadline_hours = job_rt.job.deadline_hours
        if deadline_hours is not None:
            deadline_s = job_rt.arrival_s + deadline_hours * 3600.0
            lateness_s = max(0.0, self.now_s - deadline_s)
            self._deadline_outcomes.append(
                DeadlineOutcome(
                    job_id=job_id,
                    deadline_s=deadline_s,
                    finish_s=self.now_s,
                    lateness_s=lateness_s,
                )
            )
        del self._jobs[job_id]
        self._live_cache = None
        # Its tasks' ``_detach`` calls dropped its kept report and marked
        # it, and every job in ``affected``.
        self._moved.discard(job_id)
        self._pending_obs.append(JobFinished(job_id=job_id, time_s=self.now_s))
        self._refresh_rates(affected)

    def _on_eviction_notice(self, instance_id: str, eviction_time_s: float) -> None:
        """The spot market warns that ``instance_id`` will be reclaimed.

        The notice becomes a typed observation for the next scheduling
        round (which this arms); if the instance is already gone the
        notice is stale and dropped.
        """
        rt = self._instances.get(instance_id)
        if rt is None or not rt.alive:
            return
        self._pending_obs.append(
            SpotEvictionNotice(
                instance_id=instance_id, eviction_time_s=eviction_time_s
            )
        )
        self._ensure_round_scheduled()

    def _on_instance_preemption(self, instance_id: str) -> None:
        """The spot market reclaims an instance: tasks return to the queue.

        Progress is preserved — the interruption notice covers the
        checkpoint — but the tasks wait for the next scheduling round and
        pay fresh launch delays wherever they land.
        """
        rt = self._instances.get(instance_id)
        if rt is None or not rt.alive:
            return  # already terminated; stale preemption draw
        affected = self._jobs_sharing_instance(instance_id)
        self._advance_all(affected)
        self._lose_instance(rt)
        self._preemptions += 1
        self._refresh_rates(affected)
        self._ensure_round_scheduled()

    # ------------------------------------------------------------------
    # Fault injection (FailureConfig)
    # ------------------------------------------------------------------
    def _schedule_next_shock(self) -> None:
        """Arm the next correlated domain shock (Poisson process).

        Draws come from the dedicated shock stream in a fixed order
        (inter-arrival gap, then target domain), so the shock schedule
        is a pure function of the failure seed — independent of how many
        instances any scheduler launched.
        """
        fail = self.failures
        gap_s = float(
            self._shock_rng.exponential(
                3600.0 / fail.domain_shock_rate_per_hour
            )
        )
        domain = int(self._shock_rng.integers(fail.num_domains))
        self.queue.push(
            Event(
                self.now_s + gap_s,
                EventKind.INSTANCE_FAILURE,
                ("domain", domain),
            )
        )

    def _on_instance_failure(self, scope: str, target) -> None:
        """An injected failure fires: one instance or a whole domain.

        Unlike spot preemption there is no graceful checkpoint — every
        affected job rolls back to its last completed checkpoint and the
        failure surfaces as an :class:`~repro.core.protocol.InstanceFailed`
        observation at the next round (which this arms).
        """
        if scope == "domain":
            victims = sorted(
                iid
                for iid, rt in self._instances.items()
                if rt.alive and rt.failure_domain == target
            )
            for iid in victims:
                self._fail_instance(iid, kind="domain-shock")
            # The process is self-scheduling: each shock arms the next,
            # keeping the queue bounded without knowing the makespan.
            self._schedule_next_shock()
            if victims:
                self._ensure_round_scheduled()
            return
        rt = self._instances.get(target)
        if rt is None or not rt.alive:
            return  # stale crash draw: instance already gone
        self._fail_instance(target, kind="crash")
        self._ensure_round_scheduled()

    def _fail_instance(self, instance_id: str, kind: str) -> None:
        """Abruptly kill one instance: rollback, retry backoff, the record."""
        rt = self._instances[instance_id]
        domain = rt.failure_domain
        retry = self.failures.retry
        affected = self._jobs_sharing_instance(instance_id)
        self._advance_all(affected)
        lost_tasks = self._lose_instance(rt)
        for task_rt in lost_tasks:
            task_rt.failures += 1
            if retry.backoff_base_s > 0:
                delay = min(
                    retry.backoff_cap_s,
                    retry.backoff_base_s * (2.0 ** (task_rt.failures - 1)),
                )
                task_rt.retry_until_s = max(
                    task_rt.retry_until_s, self.now_s + delay
                )
        job_losses: list[tuple[str, float]] = []
        for jid in sorted(affected):
            job_rt = self._jobs.get(jid)
            if job_rt is None or job_rt.finished:
                continue
            lost = job_rt.work_done_h - job_rt.ckpt_work_h
            if lost > 0.0:
                # The un-checkpointed progress is gone; the requeue's
                # resume_version bump makes the loss observable as real
                # re-execution, not just bookkeeping.
                job_rt.work_done_h = job_rt.ckpt_work_h
                job_losses.append((jid, lost))
            if job_rt.outage_start_s is None:
                job_rt.outage_start_s = self.now_s
        self._failure_outcomes.append(
            FailureOutcome(
                instance_index=rt.launch_index,
                time_s=self.now_s,
                failure_domain=domain,
                kind=kind,
                tasks_lost=len(lost_tasks),
                job_losses=tuple(job_losses),
            )
        )
        self._pending_obs.append(
            InstanceFailed(
                instance_id=instance_id,
                time_s=self.now_s,
                failure_domain=domain,
            )
        )
        self._refresh_rates(affected)

    def _on_slowdown_start(self, instance_id: str, factor: float) -> None:
        """A straggler fault begins: the instance runs at ``factor``."""
        rt = self._instances.get(instance_id)
        if rt is None or not rt.alive:
            return  # stale straggler draw
        self.queue.push(
            Event(
                self.now_s + self.failures.straggler_duration_s,
                EventKind.SLOWDOWN_END,
                instance_id,
            )
        )
        self._rerate(rt, "slowdown", factor)

    def _on_slowdown_end(self, instance_id: str) -> None:
        """The straggler recovers; a ``slowdown=1.0`` report announces it."""
        rt = self._instances.get(instance_id)
        if rt is None or not rt.alive or rt.slowdown == 1.0:
            return
        self._rerate(rt, "slowdown", 1.0)

    def _on_price_change(self, pool_index: int) -> None:
        """A pool's price segment boundary: refresh, re-rate, re-arm.

        Consumes no RNG (the walk's draws are a pure function of the
        segment index), so price events never perturb the spot/failure
        streams.  Live instances in the pool are re-rated in sorted-id
        order through the O(1) billing-record split; a boundary whose
        quantized price matches the current level is silent (no
        observation, no re-rate, no round).
        """
        rt = self._market_rt
        old, new = rt.refresh(pool_index, self.now_s)
        boundary = rt.next_boundary_after(pool_index, self.now_s)
        if boundary is not None:
            self.queue.push(Event(boundary, EventKind.PRICE_CHANGE, pool_index))
        if new == old:
            return
        self._price_changes += 1
        pool = rt.pool(pool_index)
        for iid in rt.members_of(pool_index):
            inst = self._instances[iid]
            itype = inst.instance.instance_type
            discount = SPOT_DISCOUNT if inst.spot else 1.0
            self.cloud.ledger.change_rate(
                iid, self.now_s, itype.hourly_cost * discount * new
            )
        self._pending_obs.append(
            PriceChanged(
                pool=pool.name,
                time_s=self.now_s,
                multiplier=new,
                previous=old,
                families=pool.families,
            )
        )
        self._ensure_round_scheduled()

    def _on_credit_exhausted(self, instance_id: str) -> None:
        """A burstable instance runs out of CPU credits.

        Effective throughput drops to the credit model's baseline for
        the rest of the instance's life; schedulers learn of the
        degraded capacity through the existing ``StragglerReport``
        channel (same semantics: slow, not down), so drain policies
        like eva-failure's apply unchanged.
        """
        rt = self._instances.get(instance_id)
        if rt is None or not rt.alive or rt.credit_mult != 1.0:
            return  # stale draw: the instance died first, or already burnt
        self._credit_exhaustions += 1
        self._rerate(rt, "credit_mult", self.market.credits.baseline_fraction)

    def _on_instance_terminate(self, instance_id: str) -> None:
        when = self._terminate_holds.pop(instance_id, None)
        if when is None:
            return
        self.cloud.terminate(instance_id, self.now_s)
        self._instances.pop(instance_id, None)

    def _drain_terminations(self) -> None:
        """Flush checkpoint-hold terminations left in the queue at the end."""
        while self.queue:
            event = self.queue.pop()
            if event.kind == EventKind.INSTANCE_TERMINATE:
                self._account_until(event.time_s)
                self.now_s = max(self.now_s, event.time_s)
                self._on_instance_terminate(event.payload)
        for _, rt in sorted(self._instances.items()):
            if rt.alive:
                self._retire(rt)
        self._instances.clear()

    # ------------------------------------------------------------------
    # Rates and progress
    # ------------------------------------------------------------------
    def _running_neighbours(self, task_rt: _TaskRT) -> list[str]:
        iid = task_rt.instance_id
        if iid is None or iid not in self._instances:
            return []
        inst = self._instances[iid]
        cache = inst.running_cache
        if cache is None:
            tasks = self._tasks
            cache = tuple(
                sorted(
                    tasks[tid].task.workload
                    for tid in inst.assigned
                    if tasks[tid].status is TaskStatus.RUNNING
                )
            )
            inst.running_cache = cache
        neighbours = list(cache)
        if task_rt.status is TaskStatus.RUNNING:
            # Removing the first occurrence of the task's own workload from
            # the sorted multiset equals sorting the neighbour multiset.
            neighbours.remove(task_rt.task.workload)
        return neighbours

    def _job_rate(self, job_rt: _JobRT) -> float:
        rate = 1.0
        fail_enabled = self._fail_enabled
        credit_enabled = self._credit_enabled
        for task in job_rt.job.tasks:
            task_rt = self._tasks[task.task_id]
            if task_rt.status is not TaskStatus.RUNNING:
                return 0.0
            tput = self.interference.task_throughput_sorted(
                task.workload, tuple(self._running_neighbours(task_rt))
            )
            if fail_enabled:
                inst = self._instances.get(task_rt.instance_id)
                if inst is not None and inst.slowdown != 1.0:
                    tput *= inst.slowdown
            if credit_enabled:
                inst = self._instances.get(task_rt.instance_id)
                if inst is not None and inst.credit_mult != 1.0:
                    tput *= inst.credit_mult
            rate = min(rate, tput)
        if self._ckpt_rate_mult != 1.0:
            rate *= self._ckpt_rate_mult
        return rate

    def _jobs_sharing_instance(self, instance_id: str | None) -> set[str]:
        if instance_id is None or instance_id not in self._instances:
            return set()
        return {
            self._tasks[tid].task.job_id
            for tid in self._instances[instance_id].assigned
            if tid in self._tasks
        }

    def _advance_all(self, job_ids: Sequence[str] | set[str]) -> None:
        for jid in job_ids:
            rt = self._jobs.get(jid)
            if rt is not None and not rt.finished:
                rt.advance(self.now_s)

    def _refresh_rates(self, job_ids: Sequence[str] | set[str]) -> None:
        for jid in sorted(job_ids):
            rt = self._jobs.get(jid)
            if rt is None or rt.finished:
                continue
            new_rate = self._job_rate(rt)
            if abs(new_rate - rt.rate) < 1e-12 and rt.finish_version > 0:
                continue
            rt.rate = new_rate
            rt.finish_version += 1
            if new_rate > 0 and rt.outage_start_s is not None:
                # The job's first positive rate since a failure closes
                # its outage span (per-job MTTR accumulates from these).
                self._repair_outcomes.append(
                    RepairOutcome(
                        job_id=jid,
                        failed_s=rt.outage_start_s,
                        recovered_s=self.now_s,
                    )
                )
                rt.outage_start_s = None
            if new_rate > 0:
                eta_s = self.now_s + (rt.remaining_h / new_rate) * 3600.0
                self.queue.push(
                    Event(
                        max(eta_s, self.now_s),
                        EventKind.JOB_FINISH,
                        (jid, rt.finish_version),
                    )
                )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _account_until(self, time_s: float) -> None:
        dt = time_s - self._accounting_time_s
        if dt <= 0:
            return
        if self.validate:
            # Cross-check the O(delta) totals against the naive re-scan on
            # every accounting step (tests run with validate=True).
            self._acct.verify(self._instances, self._tasks)
        self._alloc.accumulate_totals(dt, self._acct)
        self._accounting_time_s = time_s


def _same_or_new(items: list, last: tuple) -> tuple:
    """``last`` when ``items`` holds its objects in its order, else a new
    tuple: consumers' identity fast paths then see an unchanged round."""
    if len(items) == len(last) and all(a is b for a, b in zip(items, last)):
        return last
    return tuple(items)


def run_simulation(
    trace: Trace,
    scheduler: Scheduler,
    interference: InterferenceModel | None = None,
    delay_model: DelayModel | None = None,
    period_s: float = DEFAULT_PERIOD_S,
    validate: bool = False,
    spot: SpotConfig | None = None,
    deadline_warning_s: float | None = None,
    failures: FailureConfig | None = None,
    market: MarketConfig | None = None,
) -> SimulationResult:
    """Convenience wrapper: simulate ``trace`` under ``scheduler``."""
    sim = ClusterSimulator(
        trace=trace,
        scheduler=scheduler,
        interference=interference,
        delay_model=delay_model,
        period_s=period_s,
        validate=validate,
        spot=spot,
        deadline_warning_s=deadline_warning_s,
        failures=failures,
        market=market,
    )
    return sim.run()
