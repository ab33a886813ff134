"""Unit tests for the migration-aware ensemble (§4.5)."""

import math

import numpy as np
import pytest

from repro.cloud.delays import DelayModel
from repro.cluster.instance import fresh_instance
from repro.cluster.resources import ResourceVector
from repro.cluster.state import (
    ClusterSnapshot,
    InstanceState,
    TargetConfiguration,
)
from repro.cluster.task import Job, make_job
from repro.core.ensemble import (
    PRIOR_RATE_PER_HOUR,
    EnsemblePolicy,
    PoissonEventEstimator,
    mean_time_to_full_reconfig_hours,
    migration_cost,
    provisioning_saving,
)
from repro.core.evaluation import RPEvaluator
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
        m_full = migration_cost(full, snapshot, DelayModel())
        m_partial = migration_cost(partial, snapshot, DelayModel())
        # Full migrates the running task and launches a pricier instance.
        assert m_full > m_partial > 0

    def test_migration_cost_scales_with_multiplier(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        snapshot, full, _ = _snapshot_and_targets(example_catalog, calc)
        base = migration_cost(full, snapshot, DelayModel())
        doubled = migration_cost(
            full, snapshot, DelayModel(migration_multiplier=2.0)
        )
        assert doubled > base

    def test_stochastic_model_prices_at_means_without_drawing(
        self, example_catalog
    ):
        calc = ReservationPriceCalculator(example_catalog)
        snapshot, full, _ = _snapshot_and_targets(example_catalog, calc)
        stochastic = DelayModel(stochastic=True, rng=np.random.default_rng(3))
        state = stochastic.rng.bit_generator.state
        cost = migration_cost(full, snapshot, stochastic)
        assert stochastic.rng.bit_generator.state == state
        assert cost == migration_cost(full, snapshot, DelayModel())

    def test_no_op_target_costs_nothing(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        snapshot, _, _ = _snapshot_and_targets(example_catalog, calc)
        keep = TargetConfiguration.from_pairs(
            [
                (s.instance, s.task_ids)
                for s in snapshot.instances
            ]
        )
        assert migration_cost(keep, snapshot, DelayModel()) == pytest.approx(0.0)


class TestPolicy:
    def test_chooses_partial_when_full_saves_nothing(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        ev = RPEvaluator(calc)
        snapshot, full, partial = _snapshot_and_targets(example_catalog, calc)
        policy = EnsemblePolicy()
        policy.record_events(4, 0.0)
        chosen, decision = policy.decide(full, partial, snapshot, ev)
        assert not decision.adopted_full
        assert chosen is partial
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
        chosen, decision = policy.decide(full, partial, snapshot, ev)
        assert decision.adopted_full
        assert chosen is full

    def test_adoption_fraction_tracking(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        ev = RPEvaluator(calc)
        snapshot, full, partial = _snapshot_and_targets(example_catalog, calc)
        policy = EnsemblePolicy()
        for _ in range(4):
            policy.decide(full, partial, snapshot, ev)
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
        _, decision = slow.decide(full, partial, snapshot, ev)
        assert not decision.adopted_full
