"""Integration tests for the master-worker runtime (artifact E1 style)."""

import pytest

from repro.baselines import NoPackingScheduler
from repro.cloud.catalog import ec2_catalog
from repro.core.protocol import DeadlineApproaching, JobArrived, ThroughputReport
from repro.core.scheduler import EvaScheduler
from repro.interference.model import no_interference_model
from repro.runtime.iterator import EvaIterator
from repro.runtime.master import EvaMaster
from repro.runtime.profiler import Profiler
from repro.workloads.workloads import workload


def _master(catalog):
    return EvaMaster(
        catalog=catalog,
        scheduler=EvaScheduler(catalog),
        interference=no_interference_model(),
    )


class TestMasterFlow:
    def test_e1_three_jobs_complete(self, catalog):
        master = _master(catalog)
        for name, dur in (
            ("ResNet18-2", 0.5),
            ("GraphSAGE", 0.4),
            ("A3C", 0.3),
        ):
            master.submit_job(
                workload(name).make_job(duration_hours=dur, job_id=name)
            )
        master.run_for(hours=1.0)
        assert len(master.completed) == 3
        stats = master.stats()
        assert stats["live_jobs"] == 0
        assert stats["active_instances"] == 0
        assert stats["total_cost"] > 0
        assert stats["rpc_calls"] > 0

    def test_duplicate_submission_rejected(self, catalog):
        master = _master(catalog)
        job = workload("A3C").make_job(duration_hours=0.1, job_id="dup")
        master.submit_job(job)
        with pytest.raises(ValueError):
            master.submit_job(job)

    def test_jct_reflects_duration(self, catalog):
        master = _master(catalog)
        master.submit_job(
            workload("A3C").make_job(duration_hours=0.5, job_id="j")
        )
        master.run_for(hours=1.0)
        (done,) = master.completed
        # Progress advances in period_s steps; JCT is within one period
        # of the ideal duration.
        assert done.jct_hours == pytest.approx(0.5, abs=master.period_s / 3600.0 + 1e-9)

    def test_cost_accrues_with_instances(self, catalog):
        master = _master(catalog)
        master.submit_job(
            workload("GPT2").make_job(duration_hours=0.2, job_id="g")
        )
        master.run_round()
        master.advance(600.0)
        assert master.total_cost() > 0


class TestObservationVocabulary:
    """The master builds what a scheduler reads, by the simulator's rule:
    No-Packing reads no observations and gets no reports or deadline
    warnings, Eva reads every kind and gets both."""

    @staticmethod
    def _observed_kinds(scheduler, catalog):
        master = EvaMaster(
            catalog=catalog,
            scheduler=scheduler,
            interference=no_interference_model(),
            deadline_warning_s=1e9,
        )
        job = workload("A3C").make_job(
            duration_hours=1.0, job_id="a", deadline_hours=2.0
        )
        master.submit_job(job)
        rounds = []
        decide = scheduler.decide

        def recording(snapshot, observations=()):
            rounds.append(observations)
            return decide(snapshot, observations)

        scheduler.decide = recording
        master.run_for(hours=0.5)
        assert len(rounds) > 2
        return {type(obs) for observations in rounds for obs in observations}

    def test_no_packing_gets_no_reports(self, catalog):
        kinds = self._observed_kinds(NoPackingScheduler(catalog), catalog)
        assert kinds == {JobArrived}

    def test_eva_gets_reports_and_warnings(self, catalog):
        kinds = self._observed_kinds(EvaScheduler(catalog), catalog)
        assert kinds == {JobArrived, DeadlineApproaching, ThroughputReport}


class TestEvaIterator:
    def test_throughput_window(self):
        clock = {"t": 0.0}
        it = EvaIterator(inner=(), clock=lambda: clock["t"])
        for _ in range(100):
            clock["t"] += 1.0
            it.record_iteration()
        # Window boundary is inclusive: 51 samples in [50, 100].
        assert it.throughput(window_s=50.0) == pytest.approx(1.0, rel=0.05)
        assert it.total_iterations == 100

    def test_iteration_protocol(self):
        clock = {"t": 0.0}

        def tick():
            clock["t"] += 0.5
            return clock["t"]

        it = EvaIterator(inner=range(10), clock=tick)
        consumed = list(it)
        assert consumed == list(range(10))
        assert it.total_iterations == 10

    def test_invalid_window(self):
        it = EvaIterator(inner=())
        with pytest.raises(ValueError):
            it.throughput(window_s=0.0)


class TestProfiler:
    def test_profile_caches_per_workload(self, catalog):
        profiler = Profiler(catalog=catalog, window_s=10.0)
        task = workload("GCN").make_job(1.0).tasks[0]
        first = profiler.standalone_throughput(task, true_iters_per_s=2.0)
        second = profiler.standalone_throughput(task, true_iters_per_s=99.0)
        assert first == pytest.approx(2.0, rel=0.1)
        assert second == first  # cached; the 99.0 run never happens
        assert profiler.profiles_run == 1

    def test_invalidate_forces_reprofile(self, catalog):
        profiler = Profiler(catalog=catalog, window_s=10.0)
        task = workload("GCN").make_job(1.0).tasks[0]
        profiler.standalone_throughput(task, true_iters_per_s=2.0)
        profiler.invalidate("GCN")
        profiler.standalone_throughput(task, true_iters_per_s=4.0)
        assert profiler.profiles_run == 2

    def test_profiling_instance_is_rp_type(self, catalog):
        profiler = Profiler(catalog=catalog)
        task = workload("GPT2").make_job(1.0).tasks[0]
        assert profiler.profiling_instance_type(task).name == "p3.8xlarge"
