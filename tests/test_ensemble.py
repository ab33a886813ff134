"""Unit tests for the migration-aware ensemble (§4.5)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.delays import DelayModel
from repro.cluster.instance import InstanceType, fresh_instance
from repro.cluster.resources import ResourceVector
from repro.cluster.state import (
    ClusterSnapshot,
    InstanceState,
    TargetConfiguration,
)
from repro.cluster.task import Job, MigrationDelays, make_job
from repro.core.ensemble import (
    PRIOR_RATE_PER_HOUR,
    EnsemblePolicy,
    PoissonEventEstimator,
    mean_time_to_full_reconfig_hours,
    migration_cost,
    provisioning_saving,
)
from repro.core.evaluation import RPEvaluator
from repro.core.protocol import ProtocolError, diff_target, replay_decision
from repro.core.reservation_price import ReservationPriceCalculator


class TestDurationFormula:
    def test_closed_form(self):
        # D = -1 / (lambda ln(1-p))
        assert mean_time_to_full_reconfig_hours(2.0, 0.5) == pytest.approx(
            -1.0 / (2.0 * math.log(0.5))
        )

    def test_monotone_in_p(self):
        low = mean_time_to_full_reconfig_hours(1.0, 0.1)
        high = mean_time_to_full_reconfig_hours(1.0, 0.9)
        assert high < low  # frequent triggers -> shorter expected duration

    def test_monotone_in_lambda(self):
        slow = mean_time_to_full_reconfig_hours(0.5, 0.3)
        fast = mean_time_to_full_reconfig_hours(5.0, 0.3)
        assert fast < slow

    def test_clamping_keeps_finite(self):
        assert math.isfinite(mean_time_to_full_reconfig_hours(0.0, 0.0))
        assert math.isfinite(mean_time_to_full_reconfig_hours(100.0, 1.0))

    def test_monte_carlo_agrees_with_formula(self):
        """Mean time until a Poisson event triggers (geometric trials)."""
        rng = np.random.default_rng(0)
        lam, p = 3.0, 0.25
        times = []
        for _ in range(4000):
            t = 0.0
            while True:
                t += rng.exponential(1.0 / lam)
                if rng.random() < p:
                    break
            times.append(t)
        empirical = float(np.mean(times))
        analytic = 1.0 / (lam * p)
        formula = mean_time_to_full_reconfig_hours(lam, p)
        assert empirical == pytest.approx(analytic, rel=0.1)
        # The paper's continuous approximation is close to the exact
        # geometric mean for small p.
        assert formula == pytest.approx(analytic, rel=0.2)


class TestEstimator:
    def test_rate_estimation(self):
        est = PoissonEventEstimator()
        est.record_events(5, 0.0)
        est.record_events(5, 3600.0)
        assert est.rate_per_hour == pytest.approx(10.0)

    def test_prior_rate_before_observations(self):
        est = PoissonEventEstimator()
        assert est.rate_per_hour == PRIOR_RATE_PER_HOUR == 1.0

    def test_trigger_probability_laplace(self):
        est = PoissonEventEstimator()
        assert est.trigger_probability == pytest.approx(0.5)  # 1/2 prior
        est.record_events(8, 0.0)
        est.record_decision(True)
        est.record_decision(False)
        assert est.trigger_probability == pytest.approx(2.0 / 10.0)

    def test_negative_events_rejected(self):
        est = PoissonEventEstimator()
        with pytest.raises(ValueError):
            est.record_events(-1, 0.0)


def _snapshot_and_targets(example_catalog, calc):
    """One running task on it2; a queued task; two candidate targets."""
    running = make_job(
        "w", {"*": ResourceVector(1, 4, 10)}, 1.0, job_id="run"
    )
    queued = make_job(
        "w", {"*": ResourceVector(1, 4, 10)}, 1.0, job_id="que"
    )
    inst = fresh_instance(example_catalog[1])  # it2 $3
    snapshot = ClusterSnapshot(
        time_s=0.0,
        tasks={
            running.tasks[0].task_id: running.tasks[0],
            queued.tasks[0].task_id: queued.tasks[0],
        },
        jobs={"run": running, "que": queued},
        instances=[
            InstanceState(instance=inst, task_ids=frozenset({running.tasks[0].task_id}))
        ],
    )
    # Partial-style: keep the running task, open a new it2 for the queued.
    partial = TargetConfiguration.from_pairs(
        [
            (inst, [running.tasks[0].task_id]),
            (fresh_instance(example_catalog[1]), [queued.tasks[0].task_id]),
        ]
    )
    # Full-style: co-locate both on a fresh it1 (migrates the runner).
    full = TargetConfiguration.from_pairs(
        [
            (
                fresh_instance(example_catalog[0]),
                [running.tasks[0].task_id, queued.tasks[0].task_id],
            )
        ]
    )
    return snapshot, full, partial


class TestCosts:
    def test_provisioning_saving(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        ev = RPEvaluator(calc)
        snapshot, full, partial = _snapshot_and_targets(example_catalog, calc)
        # Partial: two it2 instances, each RP 3 vs cost 3 -> saving 0.
        assert provisioning_saving(partial, snapshot, ev) == pytest.approx(0.0)
        # Full: one it1 at $12 hosting RP 6 -> saving -6 (inefficient!).
        assert provisioning_saving(full, snapshot, ev) == pytest.approx(-6.0)

    def test_migration_cost_components(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        snapshot, full, partial = _snapshot_and_targets(example_catalog, calc)
        m_full = migration_cost(diff_target(snapshot, full), snapshot, DelayModel())
        m_partial = migration_cost(
            diff_target(snapshot, partial), snapshot, DelayModel()
        )
        # Full migrates the running task and launches a pricier instance.
        assert m_full > m_partial > 0

    def test_migration_cost_scales_with_multiplier(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        snapshot, full, _ = _snapshot_and_targets(example_catalog, calc)
        plan = diff_target(snapshot, full)
        base = migration_cost(plan, snapshot, DelayModel())
        doubled = migration_cost(
            plan, snapshot, DelayModel(migration_multiplier=2.0)
        )
        assert doubled > base

    def test_stochastic_model_prices_at_means_without_drawing(
        self, example_catalog
    ):
        calc = ReservationPriceCalculator(example_catalog)
        snapshot, full, _ = _snapshot_and_targets(example_catalog, calc)
        plan = diff_target(snapshot, full)
        stochastic = DelayModel(stochastic=True, rng=np.random.default_rng(3))
        state = stochastic.rng.bit_generator.state
        cost = migration_cost(plan, snapshot, stochastic)
        assert stochastic.rng.bit_generator.state == state
        assert cost == migration_cost(plan, snapshot, DelayModel())

    def test_no_op_target_costs_nothing(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        snapshot, _, _ = _snapshot_and_targets(example_catalog, calc)
        keep = TargetConfiguration.from_pairs(
            [
                (s.instance, s.task_ids)
                for s in snapshot.instances
            ]
        )
        plan = diff_target(snapshot, keep)
        assert migration_cost(plan, snapshot, DelayModel()) == pytest.approx(0.0)


class TestPolicy:
    def test_chooses_partial_when_full_saves_nothing(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        ev = RPEvaluator(calc)
        snapshot, full, partial = _snapshot_and_targets(example_catalog, calc)
        policy = EnsemblePolicy()
        policy.record_events(4, 0.0)
        chosen, decision = policy.decide(
            diff_target(snapshot, full), diff_target(snapshot, partial), snapshot, ev
        )
        assert not decision.adopted_full
        assert chosen.target is partial
        d_hat = decision.duration_estimate_hours
        assert (
            decision.saving_partial * d_hat - decision.migration_partial
            > decision.saving_full * d_hat - decision.migration_full
        )

    def test_chooses_full_when_savings_dominate(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        ev = RPEvaluator(calc)
        running = make_job(
            "w", {"*": ResourceVector(2, 8, 24)}, 1.0, job_id="a"
        )
        other = make_job(
            "w", {"*": ResourceVector(1, 4, 10)}, 1.0, job_id="b"
        )
        big_a = fresh_instance(example_catalog[0])
        big_b = fresh_instance(example_catalog[0])
        snapshot = ClusterSnapshot(
            time_s=0.0,
            tasks={
                running.tasks[0].task_id: running.tasks[0],
                other.tasks[0].task_id: other.tasks[0],
            },
            jobs={"a": running, "b": other},
            instances=[
                InstanceState(big_a, frozenset({running.tasks[0].task_id})),
                InstanceState(big_b, frozenset({other.tasks[0].task_id})),
            ],
        )
        # Wasteful partial: keep both $12 instances (saving -12-9 = -21/hr
        # vs consolidation saving -9).
        partial = TargetConfiguration.from_pairs(
            [
                (big_a, [running.tasks[0].task_id]),
                (big_b, [other.tasks[0].task_id]),
            ]
        )
        full = TargetConfiguration.from_pairs(
            [
                (
                    big_a,
                    [running.tasks[0].task_id, other.tasks[0].task_id],
                )
            ]
        )
        policy = EnsemblePolicy()
        policy.record_events(2, 0.0)
        chosen, decision = policy.decide(
            diff_target(snapshot, full), diff_target(snapshot, partial), snapshot, ev
        )
        assert decision.adopted_full
        assert chosen.target is full

    def test_adoption_fraction_tracking(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        ev = RPEvaluator(calc)
        snapshot, full, partial = _snapshot_and_targets(example_catalog, calc)
        policy = EnsemblePolicy()
        plans = diff_target(snapshot, full), diff_target(snapshot, partial)
        for _ in range(4):
            policy.decide(*plans, snapshot, ev)
        assert policy.full_adoption_fraction() == pytest.approx(0.0)
        assert policy.decisions == 4

    def test_adoption_fraction_counts_recorded_decisions(self):
        policy = EnsemblePolicy()
        assert policy.full_adoption_fraction() == 0.0
        full = policy.weigh(s_f=5.0, s_p=0.0, m_f=0.0, m_p=0.0)
        partial = policy.weigh(s_f=0.0, s_p=5.0, m_f=0.0, m_p=0.0)
        assert full.adopted_full and not partial.adopted_full
        # weigh() records nothing; record() counts each replayed decision.
        assert policy.decisions == 0
        for decision in (full, partial, partial, full, partial):
            policy.record(decision)
        assert policy.decisions == 5
        assert policy.estimator.full_adoptions == 2
        assert policy.full_adoption_fraction() == 2 / 5

    def test_higher_migration_delay_discourages_full(self, example_catalog):
        """Figure 5a's mechanism: raising M_F flips the decision."""
        calc = ReservationPriceCalculator(example_catalog)
        ev = RPEvaluator(calc)
        running = make_job("w", {"*": ResourceVector(0, 4, 12)}, 1.0, job_id="a")
        queued = make_job("w", {"*": ResourceVector(0, 4, 12)}, 1.0, job_id="b")
        small = fresh_instance(example_catalog[3])  # it4 $0.4
        snapshot = ClusterSnapshot(
            time_s=0.0,
            tasks={
                running.tasks[0].task_id: running.tasks[0],
                queued.tasks[0].task_id: queued.tasks[0],
            },
            jobs={"a": running, "b": queued},
            instances=[InstanceState(small, frozenset({running.tasks[0].task_id}))],
        )
        partial = TargetConfiguration.from_pairs(
            [
                (small, [running.tasks[0].task_id]),
                (fresh_instance(example_catalog[3]), [queued.tasks[0].task_id]),
            ]
        )
        # "Full" consolidates both onto one it3 ($0.8 = RP sum): saving 0
        # but fewer instances; make it strictly better by using it4+it4
        # demands that fit an it3 with RP sum 0.8 == cost 0.8. Saving
        # equal; migration decides. With tiny delays full could win ties;
        # with huge delays partial must win.
        full = TargetConfiguration.from_pairs(
            [
                (
                    fresh_instance(example_catalog[2]),
                    [running.tasks[0].task_id, queued.tasks[0].task_id],
                )
            ]
        )
        slow = EnsemblePolicy(delay_model=DelayModel(migration_multiplier=100.0))
        slow.record_events(2, 0.0)
        _, decision = slow.decide(
            diff_target(snapshot, full), diff_target(snapshot, partial), snapshot, ev
        )
        assert not decision.adopted_full


#: Roomy types at several rates, so any target fits and rates differ.
_PRICED_TYPES = [
    InstanceType(f"t{i}", "f", ResourceVector(64, 512, 4096), cost)
    for i, cost in enumerate((0.4, 1.5, 3.0, 12.0))
]


def _diff_priced(target, snapshot, delays):
    """M priced from a configuration diff, as before Equation 1 priced
    plans: placed/migrated tasks in ascending task id, then the launches
    in target order."""
    current, live, rate_by_id = {}, set(), {}
    for state in snapshot.instances:
        live.add(state.instance_id)
        rate_by_id[state.instance_id] = state.instance_type.hourly_cost
        for tid in sorted(state.task_ids):
            current[tid] = state.instance_id
    for ti in target.instances:
        rate_by_id.setdefault(ti.instance_id, ti.hourly_cost)
    cost = 0.0
    for task_id, dst in sorted(target.assignment().items()):
        src = current.get(task_id)
        if src == dst:
            continue
        task = snapshot.tasks[task_id]
        mult = delays.migration_multiplier
        checkpoint_h = task.migration.checkpoint_s * mult / 3600.0
        launch_h = task.migration.launch_s * mult / 3600.0
        if src is not None:
            cost += checkpoint_h * rate_by_id.get(src, 0.0)
        cost += launch_h * rate_by_id.get(dst, 0.0)
    ready_h = delays.mean_instance_ready_s() / 3600.0
    for ti in target.instances:
        if ti.instance_id not in live:
            cost += ready_h * ti.hourly_cost
    return cost


@st.composite
def _snapshot_and_target(draw):
    """Kept, launched and dropped instances; placed, migrated, unchanged,
    queued and unmentioned tasks."""
    live = [
        fresh_instance(draw(st.sampled_from(_PRICED_TYPES)))
        for _ in range(draw(st.integers(0, 4)))
    ]
    launched = [
        fresh_instance(draw(st.sampled_from(_PRICED_TYPES)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    kept = [inst for inst in live if draw(st.booleans())]
    targeted = draw(st.permutations(kept + launched))
    delay_values = st.sampled_from([0.0, 8.0, 31.5, 47.0, 120.25])
    tasks, now, then = {}, {}, {}
    for i in range(draw(st.integers(1, 8))):
        (task,) = make_job(
            "w",
            {"*": ResourceVector(0, 1, 1)},
            1.0,
            migration=MigrationDelays(draw(delay_values), draw(delay_values)),
            job_id=f"j{i}",
        ).tasks
        tasks[task.task_id] = task
        now[task.task_id] = draw(st.sampled_from([None, *live]))
        then[task.task_id] = draw(st.sampled_from([None, *targeted]))

    def hosted(instance, placement):
        return frozenset(tid for tid, inst in placement.items() if inst is instance)

    snapshot = ClusterSnapshot(
        time_s=0.0,
        tasks=tasks,
        jobs={},
        instances=[InstanceState(inst, hosted(inst, now)) for inst in live],
    )
    target = TargetConfiguration.from_pairs(
        (inst, hosted(inst, then)) for inst in targeted
    )
    return snapshot, target


class TestPlanPricing:
    """Equation 1 prices the plan the round executes, bit for bit as it
    priced the configuration diff."""

    @settings(max_examples=300, deadline=None)
    @given(
        pair=_snapshot_and_target(),
        multiplier=st.sampled_from([1.0, 0.5, 2.0, 3.7]),
    )
    def test_plan_price_keeps_its_bits(self, pair, multiplier):
        snapshot, target = pair
        delays = DelayModel(migration_multiplier=multiplier)
        plan = diff_target(snapshot, target)
        assert migration_cost(plan, snapshot, delays) == _diff_priced(
            target, snapshot, delays
        )
        assignment = target.assignment()
        kept = {ti.instance_id for ti in target.instances}
        stranded = [
            tid
            for state in snapshot.instances
            if state.instance_id not in kept
            for tid in state.task_ids
            if tid not in assignment
        ]
        if stranded:
            with pytest.raises(ProtocolError, match="strand"):
                replay_decision(snapshot, plan)
        elif snapshot.assigned_task_ids() <= assignment.keys():
            assert replay_decision(snapshot, plan) == {
                ti.instance_id: ti.task_ids for ti in target.instances
            }
