"""Deeper simulator tests: multi-task stragglers, re-migration, learning."""

import pytest

from repro.baselines import NoPackingScheduler
from repro.cluster.resources import ResourceVector
from repro.cluster.state import ClusterSnapshot, TargetConfiguration
from repro.core.interfaces import Scheduler
from repro.core.scheduler import EvaScheduler
from repro.interference.model import InterferenceModel
from repro.sim.simulator import ClusterSimulator, run_simulation
from repro.workloads.trace import Trace, sort_jobs_by_arrival
from repro.workloads.workloads import workload
from repro.cluster.task import make_job


def _trace(jobs, name="t"):
    return Trace(name=name, jobs=sort_jobs_by_arrival(jobs))


class _PackPairScheduler(Scheduler):
    """Deterministic test scheduler: puts everything on one big instance."""

    name = "pack-all"

    def __init__(self, catalog):
        from repro.cluster.instance import fresh_instance

        self._itype = next(it for it in catalog if it.name == "p3.16xlarge")
        self._fresh = fresh_instance
        self._instance = None

    def schedule(self, snapshot: ClusterSnapshot) -> TargetConfiguration:
        if self._instance is None or not any(
            s.instance_id == self._instance.instance_id
            for s in snapshot.instances
        ):
            self._instance = self._fresh(self._itype)
        return TargetConfiguration.from_pairs(
            [(self._instance, list(snapshot.tasks))]
        )


class TestStragglerSemantics:
    def test_one_interfered_task_slows_whole_job(self, catalog):
        """A 2-task job with one task co-located at 0.5 finishes at the
        straggler's pace."""
        job = make_job(
            "W", {"*": ResourceVector(0, 2, 4)}, 1.0, num_tasks=2, job_id="mt"
        )
        lonely = make_job(
            "V", {"*": ResourceVector(0, 2, 4)}, 4.0, job_id="other"
        )
        trace = _trace([job, lonely])
        interference = InterferenceModel(uniform_value=0.5)
        result = run_simulation(
            trace,
            _PackPairScheduler(catalog),
            interference=interference,
            validate=True,
        )
        mt = next(j for j in result.jobs if j.job_id == "mt")
        # Both tasks co-located with 2 neighbours each: rate 0.25.
        assert mt.active_hours == pytest.approx(1.0 / 0.25, rel=0.05)

    def test_multi_task_idle_until_all_tasks_ready(self, catalog):
        """A job only progresses once every task is running."""
        job = workload("ResNet18-2").make_job(duration_hours=0.5, job_id="r2")
        trace = _trace([job])
        result = run_simulation(trace, NoPackingScheduler(catalog))
        (outcome,) = result.jobs
        # Idle covers instance-ready (209s) + launch (80s) at least.
        assert outcome.idle_hours * 3600 >= 289.0 - 1.0


class TestMigrationEdgeCases:
    def test_remigration_before_resume_is_consistent(self, catalog):
        """Eva may re-plan a PENDING task; stale TASK_READY events must
        not resurrect the old placement."""
        jobs = [
            workload("ViT").make_job(
                duration_hours=1.0, arrival_time_s=i * 300.0, job_id=f"v{i}"
            )
            for i in range(3)
        ]
        trace = _trace(jobs)
        sim = ClusterSimulator(trace, EvaScheduler(catalog), validate=True)
        result = sim.run()
        assert result.num_jobs == 3
        # All instances cleaned up; ledger balanced.
        assert sim.cloud.ledger.active_instance_ids() == []

    def test_arrival_on_round_boundary(self, catalog):
        """A job arriving exactly at t = k·period is scheduled that round."""
        job = workload("A3C").make_job(duration_hours=0.2, arrival_time_s=600.0, job_id="a")
        trace = _trace([job])
        result = run_simulation(trace, NoPackingScheduler(catalog))
        (outcome,) = result.jobs
        # Wait-for-round is zero: idle is only ready+launch delay.
        assert outcome.idle_hours * 3600 == pytest.approx(209.0 + 10.0, abs=1.0)


class TestOnlineLearning:
    def test_monitor_converges_to_ground_truth_pairs(self, catalog):
        """After co-residence, Eva's table holds the true pairwise value."""
        jobs = [
            workload("ViT").make_job(
                duration_hours=2.0, arrival_time_s=i * 300.0, job_id=f"l{i}"
            )
            for i in range(2)
        ]
        trace = _trace(jobs)
        eva = EvaScheduler(catalog)
        run_simulation(trace, eva, validate=True)
        table = eva.monitor.table
        # ViT aliases ResNet18: Figure 1 self-pair is 0.93.
        learned = table.tput("ViT", ["ViT"])
        assert learned == pytest.approx(0.93, abs=0.02)

    def test_learning_is_lower_bound_of_truth(self, catalog):
        from repro.core.throughput_table import TaskPlacementObservation
        from repro.interference.matrix import pairwise_throughput

        names = ("ViT", "CycleGAN", "OpenFOAM", "Diamond", "A3C")
        trace = _trace(
            [
                workload(name).make_job(
                    duration_hours=1.5, arrival_time_s=i * 600.0, job_id=f"j{i}"
                )
                for i, name in enumerate(names)
            ]
        )
        eva = EvaScheduler(catalog)
        run_simulation(trace, eva, validate=True)
        for w in names:
            for other in names:
                value = eva.monitor.table.recorded_tput(
                    TaskPlacementObservation(w, (other,))
                )
                if value is not None:
                    assert value <= pairwise_throughput(w, other) + 1e-6
