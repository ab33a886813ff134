"""Eva's scheduler (§3, §4): ties RP/TNRP packing, the throughput monitor,
and the migration-aware ensemble into the common :class:`Scheduler`
contract.

Variants used throughout the evaluation are expressed as configuration
toggles:

==================  =============================================
Variant             Configuration
==================  =============================================
Eva (default)       TNRP + multi-task aware + Full & Partial
Eva-RP              ``interference_aware=False`` (Figure 4)
Eva-TNRP            alias of the default (Figure 4)
Eva-Single          ``multi_task_aware=False`` (Table 6, Figure 7)
Eva w/o Full        ``enable_full=False`` (Figure 6)
Eva Full-only       ``enable_partial=False`` (Figure 5b)
==================  =============================================

Policy extensions (eviction notices, deadlines, failures, spot prices)
are :class:`Signal` components passed as ``signals=``, not subclasses:
each signal learns from typed observations and publishes per-round
levers that :class:`EvaScheduler` combines in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import ClassVar, Mapping, Sequence

from repro.cloud.delays import DelayModel
from repro.cluster.instance import InstanceType
from repro.cluster.state import (
    ClusterSnapshot,
    TargetConfiguration,
)
from repro.core.ensemble import EnsemblePolicy, ReconfigDecision
from repro.core.evaluation import (
    AssignmentEvaluator,
    RPEvaluator,
    TNRPCaches,
    TNRPEvaluator,
)
from repro.core.full_reconfig import (
    PackMemo,
    full_reconfiguration,
    match_existing_instances,
)
from repro.core.interfaces import JobThroughputReport, Scheduler
from repro.core.monitor import ThroughputMonitor
from repro.core.partial_reconfig import partial_reconfiguration
from repro.core.protocol import (
    AssignTask,
    Decision,
    LaunchInstance,
    MigrateTask,
    Observation,
    SpotEvictionNotice,
    TerminateInstance,
    count_job_events,
    diff_target,
    throughput_reports,
)
from repro.core.reservation_price import ReservationPriceCalculator
from repro.core.throughput_table import CoLocationThroughputTable


@dataclass(frozen=True)
class EvaConfig:
    """Feature toggles for Eva variants (see module docstring).

    Attributes:
        interference_aware: Use TNRP (True) or plain RP (False).
        multi_task_aware: Apply the §4.4 multi-task extension.
        enable_full: Compute the Full Reconfiguration candidate.
        enable_partial: Compute the Partial Reconfiguration candidate.
        default_tput: The table's default pairwise throughput ``t``
            (0.95 in all paper experiments; smaller packs more
            conservatively, §4.3).
        efficiency_margin: JCT-aware packing margin (§6.3 future work):
            co-locations must beat instance cost by this fraction.  0.0
            reproduces the paper; higher values trade savings for JCT.
    """

    interference_aware: bool = True
    multi_task_aware: bool = True
    enable_full: bool = True
    enable_partial: bool = True
    default_tput: float = 0.95
    efficiency_margin: float = 0.0

    def __post_init__(self) -> None:
        if not (self.enable_full or self.enable_partial):
            raise ValueError("at least one of Full/Partial must be enabled")
        if not 0.0 <= self.efficiency_margin < math.inf:
            raise ValueError(
                "efficiency_margin must be finite and >= 0, "
                f"got {self.efficiency_margin!r}"
            )


#: Cap on retained round-memo entries; cleared wholesale like PackMemo so
#: long phase-changing workloads cannot grow the memo without bound.
_ROUND_MEMO_CAP = 256


@dataclass(frozen=True, slots=True)
class _RoundMemoEntry:
    """One memoized no-op round (see :meth:`EvaScheduler.decide`).

    The stored ensemble record (``None`` when one candidate is disabled)
    lets the hit path re-weigh Equation 1 under the *current* D̂ — which
    changes every round — before trusting the cached decision.  A hit
    mints no instance ids: ids only break ties by their order, and every
    later id still sorts after every earlier one.
    """

    decision: Decision
    ensemble: ReconfigDecision | None


#: Cap on an urgency multiplier.  Far past the point where any tabled
#: co-location stops looking cost-efficient (a pairwise throughput ``t``
#: needs ``u > 1/(1-t)``; the table default 0.95 needs 20), while keeping
#: values finite for jobs that are already late.
MAX_URGENCY = 64.0

#: A repriced ``(catalog, calculator, TNRP caches)`` triple.
PriceLevel = tuple[list[InstanceType], ReservationPriceCalculator, TNRPCaches]


class Signal:
    """One policy input to :class:`EvaScheduler`.

    A signal learns from typed observations in :meth:`observe` and, in
    :meth:`pre_round` (which runs on memoized rounds too), prunes its
    state against the snapshot and publishes up to three levers:

    * ``urgency`` — job id → multiplier ``u >= 1`` on the job's
      degradation charge (see :class:`~repro.core.evaluation.TNRPEvaluator`);
    * ``hidden`` — instance ids hidden from packing, which the ordinary
      packing path then drains;
    * ``price_level`` — a repriced catalog that replaces the stock one
      for the round, plus ``use_spot``, read by the simulator at each
      launch.

    The class defaults leave the scheduler on the stock Eva path.
    """

    #: Signals publishing urgency need the TNRP evaluator.
    charges_urgency: ClassVar[bool] = False
    urgency: Mapping[str, float] = MappingProxyType({})
    hidden: frozenset[str] = frozenset()
    price_level: PriceLevel | None = None
    use_spot: bool = True

    def bind(self, eva: "EvaScheduler") -> None:
        """Called once by the owning scheduler's constructor."""

    def observe(self, observations: tuple[Observation, ...]) -> None:
        """Consume one round's typed observations."""

    def pre_round(self, snapshot: ClusterSnapshot) -> None:
        """Prune state against ``snapshot`` and publish this round's levers."""


class EvictionNotices(Signal):
    """Drain spot instances under an eviction notice (§7 extension).

    Noticed instances are doomed, so they are hidden from packing: their
    tasks migrate off with checkpointed progress intact while the
    instance is still up, and the instance terminates before the market
    reclaims it.  Compared to riding out the preemption, tasks skip the
    queued-until-next-round gap and the cluster stops paying for
    capacity it is about to lose.  Without notices
    (``SpotConfig.notice_s == 0``, or on-demand runs) nothing is hidden.
    """

    def observe(self, observations: tuple[Observation, ...]) -> None:
        self.hidden = self.hidden.union(
            obs.instance_id
            for obs in observations
            if isinstance(obs, SpotEvictionNotice)
        )

    def pre_round(self, snapshot: ClusterSnapshot) -> None:
        # A notice may outlive its instance.
        self.hidden = self.hidden.intersection(
            state.instance_id for state in snapshot.instances
        )


class EvaScheduler(Scheduler):
    """The Eva cluster scheduler."""

    #: Eva launches, places, migrates, and terminates — it never returns
    #: a task to the queue without a new placement.
    action_types = frozenset(
        {LaunchInstance, AssignTask, MigrateTask, TerminateInstance}
    )

    #: Eva reads every kind: the monitor reads throughput reports, D̂
    #: counts arrivals and finishes, and its signals read eviction
    #: notices, deadline warnings, failures, prices and reports.
    observation_types = None

    def __init__(
        self,
        catalog: Sequence[InstanceType],
        config: EvaConfig | None = None,
        delay_model: DelayModel | None = None,
        name: str | None = None,
        signals: Sequence[Signal] = (),
    ):
        self.catalog = list(catalog)
        self.config = config or EvaConfig()
        self.delay_model = delay_model or DelayModel()
        self.rp_calculator = ReservationPriceCalculator(self.catalog)
        self.monitor = ThroughputMonitor(
            table=CoLocationThroughputTable(default_tput=self.config.default_tput)
        )
        self.policy = EnsemblePolicy(delay_model=self.delay_model)
        self._tnrp_caches = TNRPCaches()
        self._pack_memo = PackMemo()
        self.name = name or self._default_name()
        self.signals = tuple(signals)
        if not self.config.interference_aware and any(
            s.charges_urgency for s in self.signals
        ):
            raise ValueError(
                "urgency signals need the TNRP evaluator "
                "(interference_aware=True): urgency escalates the "
                "throughput-degradation charge"
            )
        #: Arrival/completion count from the observation channel, fed to
        #: the D̂ estimator at the next round.
        self._pending_job_events = 0
        #: The last observations tuple read, held so that ``is`` can
        #: recognise it, with its unwrapped reports and its
        #: arrival/completion count: a steady round, handed the very
        #: tuple of the round before, reads it no further.
        self._read_obs: tuple[Observation, ...] = ()
        self._read_reports: tuple[JobThroughputReport, ...] = ()
        self._read_job_events = 0
        self.last_decision: ReconfigDecision | None = None
        #: Round-decision memo (no-op steady-state rounds short-circuit
        #: the whole packing pipeline).  Setting it to ``None`` gives the
        #: memo-free reference path.
        self._round_memo: dict[tuple, _RoundMemoEntry] | None = {}
        #: Last computed round key, keyed by the identity of the snapshot
        #: collections it was derived from (see :meth:`_round_key`).
        self._round_key_cache: tuple | None = None
        #: The last TNRP evaluator built (see :meth:`make_evaluator`).
        self._evaluator: TNRPEvaluator | None = None
        #: This round's combined levers (see :class:`Signal`).
        self._urgency: dict[str, float] = {}
        self._hidden: frozenset[str] = frozenset()
        self.use_spot = True
        self._stock_level: PriceLevel = (
            self.catalog,
            self.rp_calculator,
            self._tnrp_caches,
        )
        for signal in self.signals:
            signal.bind(self)

    def _default_name(self) -> str:
        if not self.config.interference_aware:
            return "Eva-RP"
        if not self.config.multi_task_aware:
            return "Eva-Single"
        if not self.config.enable_partial:
            return "Eva-Full-only"
        if not self.config.enable_full:
            return "Eva-Partial-only"
        return "Eva"

    # ------------------------------------------------------------------
    # Scheduler contract
    # ------------------------------------------------------------------
    def on_throughput_reports(self, reports: tuple[JobThroughputReport, ...]) -> None:
        self.monitor.ingest(reports)

    def observe(self, observations: tuple[Observation, ...]) -> None:
        """Count arrival/completion events for the §4.5 D̂ estimator.

        Typed ``JobArrived``/``JobFinished`` observations are the
        estimator's one event source.  The tuple :meth:`decide` last
        read brings its count along.
        """
        self._pending_job_events += (
            self._read_job_events
            if observations is self._read_obs
            else count_job_events(observations)
        )
        for signal in self.signals:
            signal.observe(observations)

    def make_evaluator(self, snapshot: ClusterSnapshot) -> AssignmentEvaluator:
        """The round's evaluator.

        A TNRP evaluator's per-task coefficients and job RPs depend only
        on its jobs mapping, calculator, caches and urgency, so last
        round's evaluator serves again while those are the same objects
        (the simulator hands over the same ``jobs`` until a job arrives
        or finishes) and neither round has urgency: an urgent round's
        fresh caches match no later round's.
        """
        if not self.config.interference_aware:
            return RPEvaluator(self.rp_calculator)
        urgency = self._urgency
        last = self._evaluator
        if (
            not urgency
            and last is not None
            and last.jobs is snapshot.jobs
            and last.calculator is self.rp_calculator
            and last.caches is self._tnrp_caches
        ):
            return last
        self._evaluator = TNRPEvaluator(
            calculator=self.rp_calculator,
            table=self.monitor.table,
            jobs=snapshot.jobs,
            multi_task_aware=self.config.multi_task_aware,
            # Urgency-dependent values must not leak into the shared
            # cross-round memo.
            caches=TNRPCaches() if urgency else self._tnrp_caches,
            urgency=urgency,
        )
        return self._evaluator

    def schedule(self, snapshot: ClusterSnapshot) -> TargetConfiguration:
        """The §3 contract: the target of one observation-free round.

        This is a full :meth:`decide` round with empty observations, so
        it also clears the signals' per-round observation state (e.g.
        :class:`~repro.core.deadline.DeadlineUrgency` forgets earlier
        throughput reports and credits no progress).  Callers that have
        observations pass them through ``decide(snapshot, observations)``
        instead.
        """
        return self.decide(snapshot).target

    def _pre_schedule(self, snapshot: ClusterSnapshot) -> None:
        """Per-round bookkeeping that must run even on memoized rounds:
        the D̂ event count and the signals' levers."""
        self.policy.record_events(self._pending_job_events, snapshot.time_s)
        self._pending_job_events = 0
        if self.signals:
            self._combine_levers(snapshot)

    def _combine_levers(self, snapshot: ClusterSnapshot) -> None:
        """Collect this round's levers from every signal.

        Urgency maps combine by the per-job maximum, hidden ids by
        union, and spot bidding by conjunction; the first published
        price level replaces the stock catalog, calculator and TNRP
        caches for the round.
        """
        urgency: dict[str, float] = {}
        hidden: frozenset[str] = frozenset()
        level: PriceLevel | None = None
        use_spot = True
        for signal in self.signals:
            signal.pre_round(snapshot)
            for job_id, u in signal.urgency.items():
                urgency[job_id] = max(urgency.get(job_id, 1.0), u)
            hidden |= signal.hidden
            level = level or signal.price_level
            use_spot = use_spot and signal.use_spot
        self._urgency = urgency
        self._hidden = hidden
        self.use_spot = use_spot
        self.catalog, self.rp_calculator, self._tnrp_caches = (
            level or self._stock_level
        )

    def _packing_snapshot(self, snapshot: ClusterSnapshot) -> ClusterSnapshot:
        """The snapshot Algorithm 1 packs against: hidden instances dropped.

        Their tasks become unassigned (re-placed by partial reconfig,
        repacked from scratch by full reconfig) and
        ``match_existing_instances`` cannot keep a hidden id.  The
        candidates are planned against the *original* snapshot, so each
        plan migrates the tasks off and terminates the instance: the
        drain emerges from the ordinary packing path.
        """
        hidden = self._hidden
        if not hidden:
            return snapshot
        return ClusterSnapshot(
            time_s=snapshot.time_s,
            tasks=snapshot.tasks,
            jobs=snapshot.jobs,
            instances=tuple(
                state
                for state in snapshot.instances
                if state.instance_id not in hidden
            ),
        )

    def _schedule_core(
        self,
        snapshot: ClusterSnapshot,
        packing_snapshot: ClusterSnapshot,
        evaluator: AssignmentEvaluator,
    ) -> Decision:
        """The chosen candidate's plan against ``snapshot``, packed
        against ``packing_snapshot``."""
        full = (
            self._full_candidate(snapshot, packing_snapshot, evaluator)
            if self.config.enable_full
            else None
        )
        partial = (
            self._partial_candidate(snapshot, packing_snapshot, evaluator)
            if self.config.enable_partial
            else None
        )

        if full is not None and partial is not None:
            chosen, decision = self.policy.decide(full, partial, snapshot, evaluator)
            self.last_decision = decision
            return chosen
        chosen = full if full is not None else partial
        assert chosen is not None
        self.last_decision = None
        return chosen

    # ------------------------------------------------------------------
    # Round-decision memo
    # ------------------------------------------------------------------
    def _round_key_extra(self) -> tuple:
        """Signal state the round outcome depends on beyond the evaluator.

        Urgency and prices reach the evaluator's cache token, but a
        hidden instance changes the decision (drain + terminate) even
        though the packing snapshot no longer shows it.  The spot flag
        needs no key: it only bills launches, and decisions with actions
        are never memoized.
        """
        return tuple(sorted(self._hidden)) if self._hidden else ()

    def _round_key(
        self, snapshot: ClusterSnapshot, evaluator: AssignmentEvaluator
    ) -> tuple | None:
        token = evaluator.cache_token()
        if token is None:
            return None
        extra = self._round_key_extra()
        # Identity fast path: the simulator reuses the snapshot's task
        # mapping and instance tuple (treated as immutable by contract)
        # while its placement epoch stands still, so the same objects
        # plus an equal token/extra mean an equal key.
        cached = self._round_key_cache
        if (
            cached is not None
            and cached[0] is snapshot.tasks
            and cached[1] is snapshot.instances
            and cached[2] == token
            and cached[3] == extra
        ):
            return cached[4]
        key = (
            token,
            tuple(sorted(snapshot.tasks)),
            tuple(
                (st.instance_id, st.instance_type.name, tuple(sorted(st.task_ids)))
                for st in snapshot.instances
            ),
            extra,
        )
        self._round_key_cache = (
            snapshot.tasks,
            snapshot.instances,
            token,
            extra,
            key,
        )
        return key

    def decide(
        self,
        snapshot: ClusterSnapshot,
        observations: tuple[Observation, ...] = (),
    ) -> Decision:
        """One round, with no-op steady-state rounds memoized.

        Between job events the cluster state the packing depends on —
        task pool, placements, throughput-table epoch — is typically
        unchanged round over round, and the resulting decision is "do
        nothing".  Recomputing both reconfiguration candidates every
        round just to rediscover that dominates simulated wall time, so
        decisions with **no actions** are memoized on the exact state
        they were computed from.  A hit re-evaluates Equation 1 under the
        current D̂ — if the adoption choice would flip, the hit is
        abandoned and the round recomputed for real.  Decisions *with*
        actions are never cached (their launch actions embed freshly
        minted instance ids).

        A tuple is read once: its reports and its arrival/completion
        count are kept until a different tuple arrives, and the kept
        reports tuple lets the monitor see an applied round by identity.
        """
        if observations is not self._read_obs:
            self._read_obs = observations
            self._read_reports = throughput_reports(observations)
            self._read_job_events = count_job_events(observations)
        self.on_throughput_reports(self._read_reports)
        self.observe(observations)
        self._pre_schedule(snapshot)
        packing_snapshot = self._packing_snapshot(snapshot)
        evaluator = self.make_evaluator(packing_snapshot)
        memo = self._round_memo
        key = None if memo is None else self._round_key(packing_snapshot, evaluator)

        entry = memo.get(key) if key is not None else None
        if entry is not None:
            replayed = self._replay_round(entry)
            if replayed is not None:
                return replayed

        decision = self._schedule_core(snapshot, packing_snapshot, evaluator)
        if key is not None and not decision.actions:
            if len(memo) >= _ROUND_MEMO_CAP:
                memo.clear()
            memo[key] = _RoundMemoEntry(decision, self.last_decision)
        return decision

    def _replay_round(self, entry: _RoundMemoEntry) -> Decision | None:
        """Replay a memoized no-op round, or None to force a recompute.

        D̂ moves every round (the estimator's observation window grows),
        so Equation 1 is re-weighed with the stored savings and
        migration costs; only when it lands on the same branch is the
        cached decision trusted, and the fresh record is then logged as
        :meth:`EnsemblePolicy.decide` would have logged it.
        """
        stored = entry.ensemble
        fresh = None
        if stored is not None:
            fresh = self.policy.weigh(
                stored.saving_full,
                stored.saving_partial,
                stored.migration_full,
                stored.migration_partial,
            )
            if fresh.adopted_full != stored.adopted_full:
                return None
            self.policy.record(fresh)
        self.last_decision = fresh
        return entry.decision

    # ------------------------------------------------------------------
    # Candidates
    # ------------------------------------------------------------------
    def _full_candidate(
        self,
        snapshot: ClusterSnapshot,
        packing_snapshot: ClusterSnapshot,
        evaluator: AssignmentEvaluator,
    ) -> Decision:
        packed = full_reconfiguration(
            list(snapshot.tasks.values()),
            self.catalog,
            evaluator,
            cost_margin=self.config.efficiency_margin,
            memo=self._pack_memo,
        )
        packed = match_existing_instances(
            packed,
            [
                (st.instance, frozenset(st.task_ids))
                for st in packing_snapshot.instances
            ],
        )
        return diff_target(snapshot, TargetConfiguration.from_bins(packed))

    def _partial_candidate(
        self,
        snapshot: ClusterSnapshot,
        packing_snapshot: ClusterSnapshot,
        evaluator: AssignmentEvaluator,
    ) -> Decision:
        current = [
            # Sorted: greedy repacking must not depend on hash-randomized
            # frozenset order, or results change per process.
            (st.instance, [snapshot.tasks[tid] for tid in sorted(st.task_ids)])
            for st in packing_snapshot.instances
        ]
        result = partial_reconfiguration(
            current,
            packing_snapshot.unassigned_tasks(),
            self.catalog,
            evaluator,
            cost_margin=self.config.efficiency_margin,
            memo=self._pack_memo,
        )
        target = TargetConfiguration.from_bins(result.configuration)
        return diff_target(snapshot, target)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def full_adoption_fraction(self) -> float:
        """Fraction of ensemble decisions adopting Full Reconfig (Fig. 5a)."""
        return self.policy.full_adoption_fraction()


def make_eva_variant(
    catalog: Sequence[InstanceType],
    variant: str = "eva",
    delay_model: DelayModel | None = None,
) -> EvaScheduler:
    """Factory for the named Eva variants used in the evaluation."""
    variants = {
        "eva": EvaConfig(),
        "eva-tnrp": EvaConfig(),
        "eva-rp": EvaConfig(interference_aware=False),
        "eva-single": EvaConfig(multi_task_aware=False),
        "eva-full-only": EvaConfig(enable_partial=False),
        "eva-partial-only": EvaConfig(enable_full=False),
    }
    key = variant.lower()
    if key not in variants:
        raise KeyError(f"unknown Eva variant {variant!r}; known: {sorted(variants)}")
    name_map = {
        "eva": "Eva",
        "eva-tnrp": "Eva-TNRP",
        "eva-rp": "Eva-RP",
        "eva-single": "Eva-Single",
        "eva-full-only": "Eva-Full-only",
        "eva-partial-only": "Eva-Partial-only",
    }
    return EvaScheduler(
        catalog, config=variants[key], delay_model=delay_model, name=name_map[key]
    )
