"""Scheduler interface and throughput-report types.

Every scheduler — Eva and the four baselines — drives the cluster
through the typed action/observation protocol
(:mod:`repro.core.protocol`): each round it receives a
:class:`~repro.cluster.state.ClusterSnapshot` plus the round's typed
observations and returns a :class:`~repro.core.protocol.Decision` (an
ordered action bundle).  Legacy schedulers keep implementing the
classic §3 contract — snapshot in,
:class:`~repro.cluster.state.TargetConfiguration` out — via
:meth:`Scheduler.schedule`; the default :meth:`Scheduler.decide` routes
them through the :func:`~repro.core.protocol.diff_target` shim, which
is byte-identical to the pre-protocol apply paths.  Protocol-native
policies override :meth:`decide` (or the :meth:`observe` hook) and emit
actions directly.

Interference-aware schedulers receive per-job throughput reports (§5:
the worker queries each job's ``EvaIterator`` and reports to the master
every scheduling round) — on the wire these are
:class:`~repro.core.protocol.ThroughputReport` observations, unwrapped
by the default ``decide`` into :meth:`Scheduler.on_throughput_reports`.
A scheduler that reads no reports declares so in
:attr:`Scheduler.observation_types`, and the environment then builds
none for it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.cluster.state import ClusterSnapshot, TargetConfiguration
from repro.core.protocol import (
    Decision,
    Observation,
    diff_target,
    throughput_reports,
)
from repro.core.throughput_table import TaskPlacementObservation


@dataclass(frozen=True, slots=True)
class JobThroughputReport:
    """One job's observed throughput over the last scheduling window.

    Attributes:
        job_id: The observed job.
        normalized_tput: Job throughput normalized by its standalone
            throughput (1.0 = no degradation).  For multi-task jobs this
            is the straggler-limited job throughput (§4.4).
        placements: Per-task placement context (workload + co-located
            workloads) at observation time.
    """

    job_id: str
    normalized_tput: float
    placements: tuple[TaskPlacementObservation, ...]

    @property
    def is_multi_task(self) -> bool:
        return len(self.placements) > 1


class Scheduler(ABC):
    """The scheduling contract (§3), spoken over the typed protocol.

    Implement :meth:`schedule` (legacy: whole target configuration) or
    override :meth:`decide` (protocol-native: ordered actions).  The
    environment — simulator or runtime master — only ever calls
    :meth:`decide`.
    """

    #: Human-readable name used in reports and experiment tables.
    name: str = "scheduler"

    #: Action vocabulary this scheduler's decisions may contain, or
    #: ``None`` for unconstrained.  Declaring it makes behavioural
    #: contracts machine-checkable (e.g. "reactive baselines never
    #: migrate"): every environment passes it to
    #: :meth:`~repro.core.protocol.Decision.validate` — the runtime
    #: master on every round, the simulator in validate mode.
    action_types: frozenset[type] | None = None

    #: Observation kinds this scheduler reads, or ``None`` for all of
    #: them.  Every environment honours it the same way (see
    #: :meth:`reads_observation`): it builds no
    #: :class:`~repro.core.protocol.ThroughputReport` and runs no
    #: :class:`~repro.core.protocol.DeadlineApproaching` scan for a
    #: scheduler whose vocabulary leaves those kinds out.  The events it
    #: accumulates as they happen (arrivals, finishes, notices, faults,
    #: price moves) are delivered unfiltered: they cost nothing to pass
    #: on.  Like ``action_types`` this is a class declaration, not a
    #: per-run knob, and it never changes a result.
    observation_types: frozenset[type] | None = None

    @abstractmethod
    def schedule(self, snapshot: ClusterSnapshot) -> TargetConfiguration:
        """Decide the cluster configuration for the next period."""

    def on_throughput_reports(self, reports: tuple[JobThroughputReport, ...]) -> None:
        """Ingest throughput observations (no-op for interference-blind
        schedulers)."""

    def observe(self, observations: tuple[Observation, ...]) -> None:
        """Ingest the round's non-throughput observations (default: ignore).

        Hook for policies that react to typed events — job arrivals and
        completions, spot eviction notices, deadline warnings — without
        overriding :meth:`decide` wholesale.
        """

    def reads_observation(self, kind: type) -> bool:
        """Whether :attr:`observation_types` admits observations of ``kind``."""
        kinds = self.observation_types
        return kinds is None or kind in kinds

    def decide(
        self,
        snapshot: ClusterSnapshot,
        observations: tuple[Observation, ...] = (),
    ) -> Decision:
        """One scheduling round: observations in, action bundle out.

        The default implementation preserves the legacy call sequence
        exactly — throughput reports first, then :meth:`schedule` — and
        plans the returned target through
        :func:`~repro.core.protocol.diff_target`, so legacy schedulers
        produce byte-identical results through the protocol path.
        """
        self.on_throughput_reports(throughput_reports(observations))
        self.observe(observations)
        return diff_target(snapshot, self.schedule(snapshot))
