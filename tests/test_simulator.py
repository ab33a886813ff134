"""Integration-grade unit tests for the cluster simulator (§5)."""

import pytest

from repro.baselines import NoPackingScheduler
from repro.cloud.delays import DelayModel
from repro.cluster.instance import fresh_instance
from repro.cluster.resources import ResourceVector
from repro.core.interfaces import Scheduler
from repro.core.monitor import ThroughputMonitor
from repro.core.protocol import (
    AssignTask,
    Decision,
    LaunchInstance,
    TerminateInstance,
    UnassignTask,
    throughput_reports,
)
from repro.core.reservation_price import ReservationPriceCalculator
from repro.core.scheduler import EvaScheduler
from repro.core.throughput_table import CoLocationThroughputTable
from repro.interference.model import InterferenceModel, no_interference_model
from repro.sim.accounting import ClusterAccounting
from repro.sim.simulator import ClusterSimulator, run_simulation
from repro.workloads.trace import Trace, sort_jobs_by_arrival
from repro.workloads.workloads import workload
from repro.workloads.synthetic import synthetic_trace


def _trace(specs, name="t"):
    """specs: list of (workload_name, duration_h, arrival_s[, num_tasks])."""
    jobs = []
    for i, spec in enumerate(specs):
        wname, dur, arrival = spec[:3]
        num_tasks = spec[3] if len(spec) > 3 else None
        jobs.append(
            workload(wname).make_job(
                duration_hours=dur,
                arrival_time_s=arrival,
                num_tasks=num_tasks,
                job_id=f"{name}-{i}",
            )
        )
    return Trace(name=name, jobs=sort_jobs_by_arrival(jobs))


class TestSingleJob:
    def test_jct_decomposition_no_interference(self, catalog):
        """JCT = wait-for-round + instance ready + launch + duration."""
        trace = _trace([("A3C", 1.0, 10.0)])
        result = run_simulation(
            trace, NoPackingScheduler(catalog), validate=True
        )
        job = result.jobs[0]
        # Round fires at 300s (period boundary); instance ready 209s
        # later; A3C launch delay 10s; then 1h of work.
        expected_start = 300.0 + 209.0 + 10.0
        expected_jct_h = (expected_start - 10.0) / 3600.0 + 1.0
        assert job.jct_hours == pytest.approx(expected_jct_h, abs=1e-6)
        assert job.idle_hours == pytest.approx(
            (expected_start - 10.0) / 3600.0, abs=1e-6
        )
        assert job.normalized_tput == pytest.approx(1.0)

    def test_billing_matches_uptime(self, catalog):
        trace = _trace([("A3C", 1.0, 0.0)])
        result = run_simulation(trace, NoPackingScheduler(catalog))
        # One c7i.xlarge from t=0 (round at 0) to job end.
        expected_uptime_h = (209.0 + 10.0) / 3600.0 + 1.0
        assert result.total_cost == pytest.approx(
            0.1785 * expected_uptime_h, rel=1e-6
        )
        assert result.instances_launched == 1

    def test_multi_task_job_completes_together(self, catalog):
        trace = _trace([("ResNet18-2", 0.5, 0.0)])
        result = run_simulation(trace, NoPackingScheduler(catalog))
        assert result.num_jobs == 1
        assert result.jobs[0].num_tasks == 2
        assert result.instances_launched == 2  # no packing: one per task


class TestInterference:
    def test_colocation_stretches_duration(self, catalog):
        """Two co-located GCN+A3C tasks run at Figure-1 rates."""
        trace = _trace([("GCN", 1.0, 0.0), ("A3C", 1.0, 0.0)])
        uniform = InterferenceModel(uniform_value=0.5)
        eva = EvaScheduler(catalog)
        result = run_simulation(trace, eva, interference=uniform)
        for job in result.jobs:
            # If ever co-located, active time > duration.
            assert job.normalized_tput <= 1.0

    def test_no_interference_means_unit_tput(self, catalog):
        trace = synthetic_trace(10, seed=0)
        result = run_simulation(
            trace,
            EvaScheduler(catalog),
            interference=no_interference_model(),
        )
        for job in result.jobs:
            assert job.normalized_tput == pytest.approx(1.0, abs=1e-6)

    def test_work_conservation(self, catalog):
        """Every job finishes exactly its standalone work."""
        trace = synthetic_trace(15, seed=2)
        sim = ClusterSimulator(trace, EvaScheduler(catalog))
        result = sim.run()
        assert result.num_jobs == 15
        for job in result.jobs:
            # JCT >= duration always; active time >= duration.
            assert job.jct_hours >= job.duration_hours - 1e-9
            assert job.active_hours >= job.duration_hours - 1e-6


class TestDeterminism:
    def test_same_seed_same_result(self, catalog):
        trace = synthetic_trace(20, seed=3)
        a = run_simulation(trace, EvaScheduler(catalog))
        b = run_simulation(trace, EvaScheduler(catalog))
        assert a.total_cost == pytest.approx(b.total_cost)
        assert a.migrations == b.migrations
        assert [j.finish_s for j in a.jobs] == [j.finish_s for j in b.jobs]


class TestDelays:
    def test_longer_migration_delays_increase_idle(self, catalog):
        trace = synthetic_trace(20, seed=4)
        fast = run_simulation(
            trace, EvaScheduler(catalog), delay_model=DelayModel()
        )
        slow = run_simulation(
            trace,
            EvaScheduler(
                catalog, delay_model=DelayModel(migration_multiplier=10.0)
            ),
            delay_model=DelayModel(migration_multiplier=10.0),
        )
        assert slow.mean_idle_hours() >= fast.mean_idle_hours() - 1e-6

    def test_instance_ready_time_gates_start(self, catalog):
        trace = _trace([("GPT2", 0.5, 0.0)])
        result = run_simulation(trace, NoPackingScheduler(catalog))
        job = result.jobs[0]
        # GPT2 launch is 15s; instance ready 209s dominates.
        assert job.idle_hours * 3600.0 == pytest.approx(209.0 + 15.0, abs=1.0)


class TestLifecycle:
    def test_all_instances_terminated_at_end(self, catalog):
        trace = synthetic_trace(12, seed=5)
        sim = ClusterSimulator(trace, EvaScheduler(catalog))
        result = sim.run()
        assert sim.cloud.ledger.active_instance_ids() == []
        assert result.instances_launched >= 1

    def test_validate_mode_passes(self, catalog):
        trace = synthetic_trace(12, seed=6)
        run_simulation(trace, EvaScheduler(catalog), validate=True)

    def test_scheduling_rounds_counted(self, catalog):
        trace = _trace([("A3C", 0.5, 0.0)])
        result = run_simulation(trace, NoPackingScheduler(catalog))
        assert result.scheduling_rounds >= 1

    def test_empty_gaps_skip_rounds(self, catalog):
        """Rounds stop while the system is empty between jobs."""
        trace = _trace([("A3C", 0.1, 0.0), ("A3C", 0.1, 7 * 3600.0)])
        result = run_simulation(trace, NoPackingScheduler(catalog))
        # ~0.25h of activity per job; a naive fixed cadence would run
        # ~84 rounds over 7h.
        assert result.scheduling_rounds < 30

    def test_period_must_be_positive(self, catalog):
        trace = _trace([("A3C", 0.1, 0.0)])
        with pytest.raises(ValueError):
            ClusterSimulator(trace, NoPackingScheduler(catalog), period_s=0)


class _UnassignScript(Scheduler):
    """Places the trace's one task, unassigns it and terminates its
    instance in one decision at ``unassign_s``, and places it again on a
    fresh instance at ``replace_s``."""

    name = "unassign-script"
    action_types = frozenset(
        {LaunchInstance, AssignTask, UnassignTask, TerminateInstance}
    )

    def __init__(self, itype, unassign_s, replace_s):
        self.itype = itype
        self.unassign_s = unassign_s
        self.replace_s = replace_s
        self.snapshots = {}

    def schedule(self, snapshot):  # pragma: no cover - decide is overridden
        raise NotImplementedError

    def decide(self, snapshot, observations=()):
        self.snapshots[snapshot.time_s] = snapshot
        if snapshot.time_s in (0.0, self.replace_s):
            (task,) = snapshot.unassigned_tasks()
            inst = fresh_instance(self.itype)
            return Decision(
                actions=(
                    LaunchInstance(instance=inst),
                    AssignTask(task_id=task.task_id, instance_id=inst.instance_id),
                )
            )
        if snapshot.time_s == self.unassign_s:
            (state,) = snapshot.instances
            (task_id,) = state.task_ids
            return Decision(
                actions=(
                    UnassignTask(task_id=task_id, instance_id=state.instance_id),
                    TerminateInstance(instance_id=state.instance_id),
                )
            )
        return Decision()


class TestUnassignTask:
    def test_unassigned_task_keeps_progress_and_holds_source(
        self, catalog, monkeypatch
    ):
        """An unassigned task is checkpointed back to the queue: it keeps
        its progress, its source instance stays billed until the
        checkpoint completes, and the O(delta) accounting matches the
        naive re-scan at every step."""
        trace = _trace([("OpenFOAM", 1.0, 0.0)])
        (task,) = trace.jobs[0].tasks
        delays = DelayModel()
        ready_s = delays.mean_instance_ready_s()
        checkpoint_s = task.migration.checkpoint_s
        launch_s = task.migration.launch_s
        scheduler = _UnassignScript(
            ReservationPriceCalculator(catalog).rp_type(task),
            unassign_s=1800.0,
            replace_s=2100.0,
        )
        sim = ClusterSimulator(
            trace,
            scheduler,
            interference=no_interference_model(),
            delay_model=delays,
            validate=True,
        )
        verified_at = []
        verify = ClusterAccounting.verify

        def spy(acct, *args, **kwargs):
            verified_at.append(sim.now_s)
            verify(acct, *args, **kwargs)

        monkeypatch.setattr(ClusterAccounting, "verify", spy)
        result = sim.run()

        # Between the two placements the task waits in the queue and the
        # source instance is gone from the cluster.
        queued = scheduler.snapshots[2100.0]
        assert [t.task_id for t in queued.unassigned_tasks()] == [task.task_id]
        assert queued.instances == ()
        # Progress kept: only the work left at the unassign is redone.
        done_s = 1800.0 - (ready_s + launch_s)
        restart_s = 2100.0 + ready_s + launch_s
        (job,) = result.jobs
        assert job.finish_s == pytest.approx(restart_s + 3600.0 - done_s)
        # The source is billed until its checkpoint completes (the
        # INSTANCE_TERMINATE hold), the replacement until the job ends.
        assert result.uptimes_hours == pytest.approx(
            [(1800.0 + checkpoint_s) / 3600.0, (job.finish_s - 2100.0) / 3600.0]
        )
        assert (result.placements, result.migrations) == (2, 0)
        # The cross-check ran on the state the unassign left (task queued,
        # source held) and on the state after the held termination.
        assert 1800.0 in verified_at and 1800.0 + checkpoint_s in verified_at


class _ReportReadingNoPacking(NoPackingScheduler):
    """No-Packing's placements with every observation kind delivered,
    so the simulator builds the reports the tests below inspect."""

    observation_types = None


class TestRoundInputIdentity:
    """Rounds whose inputs did not change hand the scheduler the same
    objects, which the consumers' identity fast paths rely on: the
    monitor's ingest fixpoint, the observation wrapper and
    ``EvaScheduler._round_key``.

    Job A arrives at 0 s and runs from 219 s (instance ready 209 s plus
    A3C's 10 s launch); job B arrives at 450 s, the 500 s round places it
    on a fresh instance, and it runs from 719 s.  Rounds fire every
    100 s.
    """

    @pytest.fixture()
    def rounds(self, catalog, monkeypatch):
        trace = _trace([("A3C", 2.0, 0.0), ("A3C", 2.0, 450.0)])
        scheduler = _ReportReadingNoPacking(catalog)
        monitor = ThroughputMonitor()
        observed = []
        observe = CoLocationThroughputTable.observe_single_task_job

        def counting(table, *args, **kwargs):
            observed.append(args)
            return observe(table, *args, **kwargs)

        monkeypatch.setattr(
            CoLocationThroughputTable, "observe_single_task_job", counting
        )
        rounds = {}
        decide = scheduler.decide

        def recording(snapshot, observations=()):
            before = len(observed)
            monitor.ingest(throughput_reports(observations))
            rounds[snapshot.time_s] = {
                "snapshot": snapshot,
                "observations": observations,
                "epoch": sim._placement_epoch,
                "table_version": monitor.table.version,
                "table_observations": len(observed) - before,
            }
            return decide(snapshot, observations)

        scheduler.decide = recording
        sim = ClusterSimulator(trace, scheduler, period_s=100.0)
        sim.run()
        return rounds

    def test_unchanged_reports_keep_their_tuple(self, rounds):
        """The 500 s round placed B: the epoch moved, but a PENDING task
        changes no report, so the 600 s round gets the reports tuple of
        the steady 400 s round, and ingesting it touches no table
        entry."""
        steady, placed = rounds[400.0], rounds[600.0]
        assert any(
            "t-1/t0" in st.task_ids for st in placed["snapshot"].instances
        )
        assert placed["epoch"] > rounds[500.0]["epoch"]
        assert placed["observations"] is steady["observations"]
        assert placed["table_version"] == steady["table_version"]
        assert placed["table_observations"] == 0

    def test_task_ready_keeps_snapshot_collections(self, rounds):
        """Between the 700 s and 800 s rounds only B's TASK_READY fired:
        the scheduler gets the same ``tasks``, ``jobs`` and
        ``instances`` objects, and A's report is the object it was."""
        pending, ready = rounds[700.0], rounds[800.0]
        assert ready["epoch"] > pending["epoch"]
        for name in ("tasks", "jobs", "instances"):
            assert getattr(ready["snapshot"], name) is getattr(
                pending["snapshot"], name
            ), name
        before = throughput_reports(pending["observations"])
        after = throughput_reports(ready["observations"])
        assert [r.job_id for r in after] == ["t-0", "t-1"]
        assert after[0] is before[0]


class TestMetricsPlumbing:
    def test_allocation_between_zero_and_one(self, catalog):
        trace = synthetic_trace(15, seed=7)
        result = run_simulation(trace, EvaScheduler(catalog))
        for value in result.allocation.values():
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_tasks_per_instance_at_least_one_when_packed(self, catalog):
        trace = synthetic_trace(15, seed=8)
        result = run_simulation(trace, EvaScheduler(catalog))
        assert result.tasks_per_instance > 0.5

    def test_uptime_count_matches_launches(self, catalog):
        trace = synthetic_trace(10, seed=9)
        result = run_simulation(trace, NoPackingScheduler(catalog))
        assert len(result.uptimes_hours) == result.instances_launched

    def test_eva_reports_adoption_fraction(self, catalog):
        trace = synthetic_trace(10, seed=10)
        result = run_simulation(trace, EvaScheduler(catalog))
        assert result.full_adoption_fraction is not None
        assert 0.0 <= result.full_adoption_fraction <= 1.0

    def test_baseline_has_no_adoption_fraction(self, catalog):
        trace = synthetic_trace(5, seed=11)
        result = run_simulation(trace, NoPackingScheduler(catalog))
        assert result.full_adoption_fraction is None
