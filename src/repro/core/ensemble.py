"""Migration-aware ensemble: choosing Full vs Partial Reconfiguration (§4.5).

At each scheduling period Eva computes both candidate configurations and
adopts Full Reconfiguration iff

    S_F · D̂ − M_F  >  S_P · D̂ − M_P                     (Equation 1)

where ``S`` is the instantaneous provisioning-cost saving of a candidate
(Σ over instances of value − cost), ``M`` its migration cost (task
checkpoint/launch delays and instance acquisition/setup delays, priced at
the involved instances' hourly rates), and ``D̂`` the estimated duration
the new configuration will last.  Each candidate arrives as a planned
:class:`~repro.core.protocol.Decision`: ``S`` is read from its target and
``M`` from its actions, the same moves the round executes if it wins.

``D̂`` models job arrivals/completions ("events") as a Poisson process
with rate λ and each event triggering a Full Reconfiguration independently
with probability p, giving a geometric number of events until the next
Full Reconfiguration and

    D̂ = ∫₀^∞ (1 − p)^{λx} dx = −1 / (λ ln(1 − p)).

λ and p are estimated online from observed event and adoption counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cloud.delays import DelayModel
from repro.cluster.state import ClusterSnapshot, TargetConfiguration
from repro.core.evaluation import AssignmentEvaluator
from repro.core.protocol import AssignTask, Decision, LaunchInstance, MigrateTask

#: Bounds keeping the D̂ formula finite with few observations.
_P_MIN, _P_MAX = 1e-3, 1.0 - 1e-3
_LAMBDA_MIN = 1e-6

#: λ before the first observation window closes (events per hour).
PRIOR_RATE_PER_HOUR = 1.0


def mean_time_to_full_reconfig_hours(lambda_per_hour: float, p: float) -> float:
    """Closed-form D̂ = −1/(λ ln(1−p)) with clamped inputs (§4.5)."""
    lam = max(_LAMBDA_MIN, lambda_per_hour)
    p = min(_P_MAX, max(_P_MIN, p))
    return -1.0 / (lam * math.log(1.0 - p))


@dataclass
class PoissonEventEstimator:
    """Online estimates of the event rate λ and trigger probability p.

    Events are job arrivals and completions.  ``p`` uses Laplace smoothing
    (add-one) so early rounds neither pin D̂ at infinity nor at zero.
    """

    total_events: int = 0
    full_adoptions: int = 0
    first_time_s: float | None = None
    last_time_s: float | None = None

    def record_events(self, count: int, time_s: float) -> None:
        if count < 0:
            raise ValueError("event count must be >= 0")
        if self.first_time_s is None:
            self.first_time_s = time_s
        self.last_time_s = time_s
        self.total_events += count

    def record_decision(self, adopted_full: bool) -> None:
        if adopted_full:
            self.full_adoptions += 1

    @property
    def rate_per_hour(self) -> float:
        """λ — events per hour over the observation window."""
        if (
            self.first_time_s is None
            or self.last_time_s is None
            or self.last_time_s <= self.first_time_s
            or self.total_events == 0
        ):
            return PRIOR_RATE_PER_HOUR
        hours = (self.last_time_s - self.first_time_s) / 3600.0
        return max(_LAMBDA_MIN, self.total_events / hours)

    @property
    def trigger_probability(self) -> float:
        """p — probability an event triggers a Full Reconfiguration."""
        p = (self.full_adoptions + 1.0) / (self.total_events + 2.0)
        return min(_P_MAX, max(_P_MIN, p))

    def estimated_duration_hours(self) -> float:
        """D̂ for Equation 1."""
        return mean_time_to_full_reconfig_hours(
            self.rate_per_hour, self.trigger_probability
        )


def provisioning_saving(
    target: TargetConfiguration,
    snapshot: ClusterSnapshot,
    evaluator: AssignmentEvaluator,
) -> float:
    """S — Σ over instances of (set value − hourly cost), in $/hr.

    Positive terms mean the packed instance is cheaper than reservation-
    price provisioning of its tasks.
    """
    saving = 0.0
    for ti in target.instances:
        tasks = [snapshot.tasks[tid] for tid in sorted(ti.task_ids)]
        saving += evaluator.set_value(tasks) - ti.hourly_cost
    return saving


def migration_cost(
    plan: Decision,
    snapshot: ClusterSnapshot,
    delay_model: DelayModel | None = None,
) -> float:
    """M — dollar cost of executing ``plan`` from the snapshot.

    Components (§4.5: "task migration delays and the cost of the involved
    instances"):

    * per migrated/placed task, in the plan's (ascending task id) order:
      checkpoint delay billed at the source instance's rate (when there
      is a source) plus launch delay billed at the destination's rate;
    * per launched instance, in plan order: the Table 1 average
      acquisition + setup delay billed at its own rate (paid-but-idle
      time).  The average, not a sample: pricing must not draw from a
      stochastic model's RNG.

    A snapshot instance is billed at its type's rate, a launched one at
    its own ``hourly_cost``.
    """
    delays = delay_model or DelayModel()
    launched = [a.instance for a in plan.actions if isinstance(a, LaunchInstance)]
    rate_by_id: dict[str, float] = {}
    for state in snapshot.instances:
        rate_by_id[state.instance_id] = state.instance_type.hourly_cost
    for instance in launched:
        rate_by_id[instance.instance_id] = instance.hourly_cost

    cost = 0.0
    mult = delays.migration_multiplier
    for action in plan.actions:
        if isinstance(action, MigrateTask):
            migration = snapshot.tasks[action.task_id].migration
            checkpoint_h = migration.checkpoint_s * mult / 3600.0
            cost += checkpoint_h * rate_by_id[action.src_instance_id]
            dst = action.dst_instance_id
        elif isinstance(action, AssignTask):
            migration = snapshot.tasks[action.task_id].migration
            dst = action.instance_id
        else:
            continue
        launch_h = migration.launch_s * mult / 3600.0
        cost += launch_h * rate_by_id[dst]

    ready_h = delays.mean_instance_ready_s() / 3600.0
    for instance in launched:
        cost += ready_h * instance.hourly_cost
    return cost


@dataclass(frozen=True)
class ReconfigDecision:
    """Record of one ensemble decision (inputs and outcome)."""

    adopted_full: bool
    saving_full: float
    saving_partial: float
    migration_full: float
    migration_partial: float
    duration_estimate_hours: float


@dataclass
class EnsemblePolicy:
    """Equation 1 decision-maker with online λ/p estimation."""

    delay_model: DelayModel = field(default_factory=DelayModel)
    estimator: PoissonEventEstimator = field(default_factory=PoissonEventEstimator)
    #: Equation-1 weighings recorded so far (memo replays included).
    decisions: int = 0

    def record_events(self, count: int, time_s: float) -> None:
        self.estimator.record_events(count, time_s)

    def weigh(
        self, s_f: float, s_p: float, m_f: float, m_p: float
    ) -> ReconfigDecision:
        """Equation 1 under the current D̂; records nothing."""
        d_hat = self.estimator.estimated_duration_hours()
        return ReconfigDecision(
            adopted_full=s_f * d_hat - m_f > s_p * d_hat - m_p,
            saving_full=s_f,
            saving_partial=s_p,
            migration_full=m_f,
            migration_partial=m_p,
            duration_estimate_hours=d_hat,
        )

    def record(self, decision: ReconfigDecision) -> None:
        """Count ``decision`` and feed its outcome to the p estimate."""
        self.decisions += 1
        self.estimator.record_decision(decision.adopted_full)

    def decide(
        self,
        full: Decision,
        partial: Decision,
        snapshot: ClusterSnapshot,
        evaluator: AssignmentEvaluator,
    ) -> tuple[Decision, ReconfigDecision]:
        """Pick between the two planned candidates per Equation 1.

        ``full`` and ``partial`` are :func:`~repro.core.protocol.diff_target`
        plans against ``snapshot``; the chosen one is returned as is.
        """
        assert full.target is not None and partial.target is not None
        decision = self.weigh(
            provisioning_saving(full.target, snapshot, evaluator),
            provisioning_saving(partial.target, snapshot, evaluator),
            migration_cost(full, snapshot, self.delay_model),
            migration_cost(partial, snapshot, self.delay_model),
        )
        self.record(decision)
        return (full if decision.adopted_full else partial), decision

    def full_adoption_fraction(self) -> float:
        """Fraction of decisions that adopted Full Reconfiguration (Fig. 5a)."""
        if not self.decisions:
            return 0.0
        return self.estimator.full_adoptions / self.decisions
