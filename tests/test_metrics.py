"""Unit tests for simulation metrics."""

import pytest

from repro.sim.accounting import deadline_totals, failure_totals
from repro.sim.metrics import (
    AllocationIntegrator,
    DeadlineOutcome,
    FailureOutcome,
    JobOutcome,
    SimulationResult,
    normalize_costs,
)


def _outcome(jct_h=2.0, idle_h=0.5, duration_h=1.5, job_id="j"):
    return JobOutcome(
        job_id=job_id,
        workload="w",
        num_tasks=1,
        arrival_s=0.0,
        finish_s=jct_h * 3600.0,
        duration_hours=duration_h,
        idle_hours=idle_h,
    )


class TestJobOutcome:
    def test_jct(self):
        assert _outcome(jct_h=2.0).jct_hours == pytest.approx(2.0)

    def test_normalized_tput_no_interference(self):
        # active time == duration -> tput 1.0
        o = _outcome(jct_h=2.0, idle_h=0.5, duration_h=1.5)
        assert o.normalized_tput == pytest.approx(1.0)

    def test_normalized_tput_with_interference(self):
        # 3h active for 1.5h of standalone work -> 0.5
        o = _outcome(jct_h=3.5, idle_h=0.5, duration_h=1.5)
        assert o.normalized_tput == pytest.approx(0.5)


class TestAllocationIntegrator:
    def test_time_weighted_ratio(self):
        integ = AllocationIntegrator()
        alloc = {"gpus": 1.0, "cpus": 4.0, "ram_gb": 8.0}
        cap = {"gpus": 2.0, "cpus": 8.0, "ram_gb": 32.0}
        integ.accumulate(10.0, alloc, cap, num_tasks_assigned=1, num_instances=1)
        integ.accumulate(10.0, {k: 0.0 for k in alloc}, cap, 0, 1)
        ratios = integ.allocation_ratios()
        assert ratios["gpus"] == pytest.approx(0.25)
        assert ratios["cpus"] == pytest.approx(0.25)
        assert integ.tasks_per_instance() == pytest.approx(0.5)

    def test_zero_dt_ignored(self):
        integ = AllocationIntegrator()
        integ.accumulate(0.0, {"gpus": 1, "cpus": 1, "ram_gb": 1},
                         {"gpus": 1, "cpus": 1, "ram_gb": 1}, 1, 1)
        assert integ.instance_time_integral == 0.0

    def test_empty_cluster_ratio_zero(self):
        assert AllocationIntegrator().allocation_ratios()["gpus"] == 0.0


def _result(name, cost, jobs=None):
    return SimulationResult(
        scheduler_name=name,
        trace_name="t",
        total_cost=cost,
        jobs=jobs or [_outcome(job_id=f"{name}-0")],
        instances_launched=1,
        migrations=2,
        placements=1,
        uptimes_hours=[1.0, 2.0, 3.0],
        allocation={"gpus": 0.5, "cpus": 0.5, "ram_gb": 0.5},
        tasks_per_instance=1.5,
        makespan_hours=10.0,
    )


class TestSimulationResult:
    def test_normalized_cost(self):
        base = _result("No-Packing", 100.0)
        eva = _result("Eva", 60.0)
        assert eva.normalized_cost(base) == pytest.approx(0.6)
        assert normalize_costs([base, eva])["Eva"] == pytest.approx(0.6)

    def test_normalize_requires_baseline(self):
        with pytest.raises(ValueError):
            normalize_costs([_result("Eva", 60.0)])

    def test_migrations_per_task(self):
        r = _result("Eva", 10.0)
        assert r.migrations_per_task() == pytest.approx(2.0)

    def test_uptime_cdf_monotone(self):
        xs, ys = _result("Eva", 10.0).uptime_cdf()
        assert list(xs) == sorted(xs)
        assert list(ys) == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)


class TestRunTotals:
    """The result's SLO and reliability totals are folds over its records."""

    def test_deadline_totals_count_only_late_records(self):
        records = [
            DeadlineOutcome("a", 10.0, finish_s=9.0, lateness_s=0.0),
            DeadlineOutcome("b", 10.0, finish_s=10.1, lateness_s=0.1),
            DeadlineOutcome("c", 10.0, finish_s=10.0, lateness_s=0.0),
            DeadlineOutcome("d", 10.0, finish_s=10.2, lateness_s=0.2),
            DeadlineOutcome("e", 10.0, finish_s=10.3, lateness_s=0.3),
        ]
        assert deadline_totals([]) == (0, 0.0)
        misses, lateness = deadline_totals(records)
        assert misses == 3
        # Added in finish order: (0.1 + 0.2) + 0.3, not 0.1 + (0.2 + 0.3).
        assert lateness == (0.1 + 0.2) + 0.3
        assert lateness != 0.1 + (0.2 + 0.3)

    def test_failure_totals_add_losses_in_record_order(self):
        records = [
            FailureOutcome(0, 5.0, 0, "crash", 2, (("a", 0.1),)),
            FailureOutcome(3, 9.0, 1, "domain-shock", 3, ()),
            FailureOutcome(
                4, 9.0, 1, "domain-shock", 1, (("a", 0.2), ("b", 0.3))
            ),
        ]
        assert failure_totals([]) == (0, 0.0)
        restarts, lost = failure_totals(records)
        assert restarts == 6
        # Each per-job loss is added on its own, in stored order; summing
        # the per-event totals instead would round differently.
        assert lost == (0.1 + 0.2) + 0.3
        assert lost != sum(r.work_lost_h for r in records)
