"""Action/observation protocol tests (:mod:`repro.core.protocol`).

Covers the planner (``diff_target`` canonical order), the structural
replay/validator, the shared :class:`ClusterEnvironment` interpreter,
the scheduler-side protocol surface (default ``decide``, observation
hooks, action vocabularies), the eviction-aware policy, and the
master/simulator executor unification.
"""

from __future__ import annotations

import pytest

from repro.cloud.catalog import ec2_catalog
from repro.cluster.instance import fresh_instance
from repro.cluster.resources import ResourceVector
from repro.cluster.state import (
    ClusterSnapshot,
    InstanceState,
    TargetConfiguration,
)
from repro.cluster.task import make_job
from repro.core import make_scheduler, scheduler_names
from repro.core.protocol import (
    AssignTask,
    ClusterEnvironment,
    Decision,
    DeadlineApproaching,
    JobArrived,
    JobFinished,
    LaunchInstance,
    MigrateTask,
    ProtocolError,
    SpotEvictionNotice,
    TerminateInstance,
    ThroughputReport,
    UnassignTask,
    count_job_events,
    diff_target,
    replay_decision,
    throughput_reports,
)
from repro.core.scheduler import EvaScheduler, EvictionNotices
from repro.sim.simulator import ClusterSimulator, SpotConfig, run_simulation
from repro.workloads.synthetic import synthetic_trace


def _type_named(catalog, name):
    return next(t for t in catalog if t.name == name)


def _snapshot_with(catalog, jobs, placements):
    """A snapshot hosting ``jobs``; ``placements``: [(type name, [task ids])]."""
    tasks = {t.task_id: t for job in jobs for t in job.tasks}
    instances = []
    for type_name, task_ids in placements:
        inst = fresh_instance(_type_named(catalog, type_name))
        instances.append(
            InstanceState(instance=inst, task_ids=frozenset(task_ids))
        )
    return ClusterSnapshot(
        time_s=0.0,
        tasks=tasks,
        jobs={j.job_id: j for j in jobs},
        instances=tuple(instances),
    )


@pytest.fixture()
def two_jobs():
    demand = {"*": ResourceVector(0, 4, 10)}
    return [
        make_job("resnet50", demand, duration_hours=1.0, job_id="job-a"),
        make_job("a3c", demand, duration_hours=1.0, job_id="job-b"),
    ]


class TestDiffTarget:
    def test_canonical_order_launch_then_moves_then_terminations(
        self, catalog, two_jobs
    ):
        snapshot = _snapshot_with(
            catalog, two_jobs, [("c7i.4xlarge", ["job-a/t0"])]
        )
        old = snapshot.instances[0].instance
        new = fresh_instance(_type_named(catalog, "c7i.2xlarge"))
        other = fresh_instance(_type_named(catalog, "c7i.2xlarge"))
        target = TargetConfiguration.from_pairs(
            [(new, ["job-a/t0"]), (other, ["job-b/t0"])]
        )
        decision = diff_target(snapshot, target)
        kinds = [type(a) for a in decision.actions]
        # Canonical order: launches, then moves ascending by task id
        # (job-a/t0 migrates off the old instance, job-b/t0 is a first
        # placement), then terminations.
        assert kinds == [
            LaunchInstance,
            LaunchInstance,
            MigrateTask,
            AssignTask,
            TerminateInstance,
        ]
        migrate = decision.actions[2]
        assign = decision.actions[3]
        terminate = decision.actions[4]
        assert migrate.task_id == "job-a/t0"
        assert migrate.src_instance_id == old.instance_id
        assert migrate.dst_instance_id == new.instance_id
        assert assign.task_id == "job-b/t0"
        assert assign.instance_id == other.instance_id
        assert terminate.instance_id == old.instance_id
        assert decision.target is target

    def test_keeps_launches_drops_and_moves(self, catalog):
        demand = {"*": ResourceVector(0, 4, 10)}
        jobs = [make_job("resnet50", demand, 1.0, job_id=f"job-{c}") for c in "abc"]
        snapshot = _snapshot_with(
            catalog,
            jobs,
            [("c7i.4xlarge", ["job-a/t0"]), ("c7i.4xlarge", ["job-b/t0"])],
        )
        kept, dropped = (state.instance for state in snapshot.instances)
        added = fresh_instance(_type_named(catalog, "c7i.4xlarge"))
        target = TargetConfiguration.from_pairs(
            [(kept, ["job-a/t0", "job-b/t0"]), (added, ["job-c/t0"])]
        )
        # job-a/t0 stays put, job-b/t0 moves off the dropped instance and
        # job-c/t0 is placed on the launched one.
        assert diff_target(snapshot, target).actions == (
            LaunchInstance(added),
            MigrateTask("job-b/t0", dropped.instance_id, kept.instance_id),
            AssignTask("job-c/t0", added.instance_id),
            TerminateInstance(dropped.instance_id),
        )

    def test_unchanged_target_plans_nothing(self, catalog, two_jobs):
        snapshot = _snapshot_with(
            catalog, two_jobs, [("c7i.4xlarge", ["job-a/t0"])]
        )
        keep = snapshot.instances[0].instance
        target = TargetConfiguration.from_pairs([(keep, ["job-a/t0"])])
        assert diff_target(snapshot, target).actions == ()

    def test_task_on_two_instances_rejected(self, catalog, two_jobs):
        snapshot = _snapshot_with(catalog, two_jobs, [])
        a, b = (
            fresh_instance(_type_named(catalog, "c7i.4xlarge")) for _ in range(2)
        )
        target = TargetConfiguration.from_pairs(
            [(a, ["job-a/t0"]), (b, ["job-a/t0"])]
        )
        with pytest.raises(ValueError, match="assigned to two instances"):
            diff_target(snapshot, target)

    def test_unmentioned_assigned_tasks_stay_put(self, catalog, two_jobs):
        snapshot = _snapshot_with(
            catalog,
            two_jobs,
            [("c7i.4xlarge", ["job-a/t0", "job-b/t0"])],
        )
        keep = snapshot.instances[0].instance
        # Target keeps the instance but only mentions one task: the
        # other stays assigned (legacy semantics), so no unassign is
        # planned.
        target = TargetConfiguration.from_pairs([(keep, ["job-a/t0"])])
        decision = diff_target(snapshot, target)
        assert decision.actions == ()
        final = replay_decision(snapshot, decision)
        assert final[keep.instance_id] == frozenset({"job-a/t0", "job-b/t0"})

    def test_round_trip_reproduces_target(self, catalog, two_jobs):
        snapshot = _snapshot_with(
            catalog, two_jobs, [("c7i.4xlarge", ["job-a/t0"])]
        )
        new = fresh_instance(_type_named(catalog, "c7i.4xlarge"))
        target = TargetConfiguration.from_pairs(
            [(new, ["job-a/t0", "job-b/t0"])]
        )
        final = replay_decision(snapshot, diff_target(snapshot, target))
        assert final == {
            ti.instance_id: ti.task_ids for ti in target.instances
        }


class TestReplayValidation:
    def test_launch_of_existing_instance_rejected(self, catalog, two_jobs):
        snapshot = _snapshot_with(
            catalog, two_jobs, [("c7i.4xlarge", ["job-a/t0"])]
        )
        dup = snapshot.instances[0].instance
        with pytest.raises(ProtocolError, match="existing instance"):
            replay_decision(
                snapshot, Decision(actions=(LaunchInstance(instance=dup),))
            )

    def test_assign_of_placed_task_rejected(self, catalog, two_jobs):
        snapshot = _snapshot_with(
            catalog,
            two_jobs,
            [("c7i.4xlarge", ["job-a/t0"]), ("c7i.4xlarge", [])],
        )
        empty = snapshot.instances[1].instance_id
        with pytest.raises(ProtocolError, match="use MigrateTask"):
            replay_decision(
                snapshot,
                Decision(
                    actions=(
                        AssignTask(task_id="job-a/t0", instance_id=empty),
                    )
                ),
            )

    def test_assign_of_unknown_task_rejected(self, catalog, two_jobs):
        snapshot = _snapshot_with(catalog, two_jobs, [("c7i.4xlarge", [])])
        iid = snapshot.instances[0].instance_id
        with pytest.raises(ProtocolError, match="unknown task"):
            replay_decision(
                snapshot,
                Decision(actions=(AssignTask(task_id="ghost", instance_id=iid),)),
            )

    def test_termination_stranding_a_task_rejected(self, catalog, two_jobs):
        snapshot = _snapshot_with(
            catalog, two_jobs, [("c7i.4xlarge", ["job-a/t0"])]
        )
        iid = snapshot.instances[0].instance_id
        with pytest.raises(ProtocolError, match="strands"):
            replay_decision(
                snapshot, Decision(actions=(TerminateInstance(instance_id=iid),))
            )

    def test_termination_after_unassign_allowed(self, catalog, two_jobs):
        snapshot = _snapshot_with(
            catalog, two_jobs, [("c7i.4xlarge", ["job-a/t0"])]
        )
        iid = snapshot.instances[0].instance_id
        final = replay_decision(
            snapshot,
            Decision(
                actions=(
                    UnassignTask(task_id="job-a/t0", instance_id=iid),
                    TerminateInstance(instance_id=iid),
                )
            ),
        )
        assert iid not in final

    def test_migration_from_wrong_instance_rejected(self, catalog, two_jobs):
        snapshot = _snapshot_with(
            catalog,
            two_jobs,
            [("c7i.4xlarge", ["job-a/t0"]), ("c7i.4xlarge", [])],
        )
        src = snapshot.instances[0].instance_id
        other = snapshot.instances[1].instance_id
        with pytest.raises(ProtocolError, match="is on"):
            replay_decision(
                snapshot,
                Decision(
                    actions=(
                        MigrateTask(
                            task_id="job-b/t0",
                            src_instance_id=src,
                            dst_instance_id=other,
                        ),
                    )
                ),
            )

    def test_final_state_oversubscription_rejected(self, catalog):
        big = {"*": ResourceVector(0, 14, 30)}
        jobs = [
            make_job("resnet50", big, duration_hours=1.0, job_id="job-x"),
            make_job("resnet50", big, duration_hours=1.0, job_id="job-y"),
        ]
        snapshot = _snapshot_with(catalog, jobs, [("c7i.4xlarge", [])])
        iid = snapshot.instances[0].instance_id
        with pytest.raises(ProtocolError, match="over-subscribed"):
            replay_decision(
                snapshot,
                Decision(
                    actions=(
                        AssignTask(task_id="job-x/t0", instance_id=iid),
                        AssignTask(task_id="job-y/t0", instance_id=iid),
                    )
                ),
            )

    def test_transient_oversubscription_is_legal(self, catalog):
        """A task may arrive before another departs within one stream."""
        big = {"*": ResourceVector(0, 14, 30)}
        jobs = [
            make_job("resnet50", big, duration_hours=1.0, job_id="job-x"),
            make_job("resnet50", big, duration_hours=1.0, job_id="job-y"),
        ]
        snapshot = _snapshot_with(
            catalog,
            jobs,
            [("c7i.4xlarge", ["job-x/t0"]), ("c7i.4xlarge", ["job-y/t0"])],
        )
        a = snapshot.instances[0].instance_id
        b = snapshot.instances[1].instance_id
        # Swap: each lands before the other leaves; the final state fits.
        final = replay_decision(
            snapshot,
            Decision(
                actions=(
                    MigrateTask("job-x/t0", a, b),
                    MigrateTask("job-y/t0", b, a),
                )
            ),
        )
        assert final[a] == frozenset({"job-y/t0"})
        assert final[b] == frozenset({"job-x/t0"})


class TestEnvironmentInterpreter:
    def test_execute_dispatches_in_order(self, catalog, two_jobs):
        calls: list[tuple[str, str]] = []

        class Recorder(ClusterEnvironment):
            def launch_instance(self, action):
                calls.append(("launch", action.instance_id))

            def assign_task(self, action):
                calls.append(("assign", action.task_id))

            def unassign_task(self, action):
                calls.append(("unassign", action.task_id))

            def migrate_task(self, action):
                calls.append(("migrate", action.task_id))

            def terminate_instance(self, action):
                calls.append(("terminate", action.instance_id))

            def begin_decision(self):
                calls.append(("begin", ""))

            def finish_decision(self):
                calls.append(("finish", ""))

        inst = fresh_instance(_type_named(catalog, "c7i.2xlarge"))
        decision = Decision(
            actions=(
                LaunchInstance(instance=inst),
                AssignTask(task_id="job-a/t0", instance_id=inst.instance_id),
                MigrateTask("job-b/t0", "i-1", inst.instance_id),
                UnassignTask(task_id="job-a/t0", instance_id=inst.instance_id),
                TerminateInstance(instance_id="i-1"),
            )
        )
        Recorder().execute(decision)
        assert [c[0] for c in calls] == [
            "begin",
            "launch",
            "assign",
            "migrate",
            "unassign",
            "terminate",
            "finish",
        ]


class TestObservationHelpers:
    def test_throughput_reports_unwrap_in_order(self):
        reports = ("r1", "r2")
        observations = (
            JobArrived("j1", 0.0),
            ThroughputReport(reports[0]),
            JobFinished("j0", 0.0),
            ThroughputReport(reports[1]),
        )
        assert throughput_reports(observations) == reports

    def test_count_job_events(self):
        observations = (
            JobArrived("j1", 0.0),
            JobFinished("j0", 0.0),
            SpotEvictionNotice("i-1", 100.0),
            DeadlineApproaching("j1", 3600.0),
        )
        assert count_job_events(observations) == 2


class TestSchedulerProtocolSurface:
    def test_default_decide_matches_legacy_schedule(self, catalog, two_jobs):
        snapshot = _snapshot_with(catalog, two_jobs, [])
        legacy = make_scheduler("stratus", catalog)
        protocol = make_scheduler("stratus", catalog)
        target = legacy.schedule(snapshot)
        decision = protocol.decide(snapshot, ())
        # Fresh instance ids are minted per schedule() call, so compare
        # the structural shape: action kinds, moved tasks, launch types.
        expected = diff_target(snapshot, target).actions

        def shape(actions):
            return [
                (
                    type(a).__name__,
                    getattr(a, "task_id", None),
                    a.instance.instance_type.name
                    if isinstance(a, LaunchInstance)
                    else None,
                )
                for a in actions
            ]

        assert shape(decision.actions) == shape(expected)

    def test_every_registered_scheduler_speaks_decide(self, catalog, two_jobs):
        snapshot = _snapshot_with(catalog, two_jobs, [])
        for name in scheduler_names():
            scheduler = make_scheduler(name, catalog)
            decision = scheduler.decide(snapshot, ())
            assert isinstance(decision, Decision)
            final = replay_decision(snapshot, decision)
            placed = set().union(*final.values()) if final else set()
            assert placed == set(snapshot.tasks), name
            allowed = scheduler.action_types
            if allowed is not None:
                assert {type(a) for a in decision.actions} <= allowed, name

    def test_eva_counts_events_from_observation_channel(self, catalog, two_jobs):
        """The D̂ estimator is fed by typed JobArrived/JobFinished events,
        not by diffing private snapshot state."""
        scheduler = EvaScheduler(catalog)
        snapshot = _snapshot_with(catalog, two_jobs, [])
        scheduler.decide(
            snapshot,
            (
                JobArrived("job-a", 0.0),
                JobArrived("job-b", 0.0),
                JobFinished("job-z", 0.0),
            ),
        )
        assert scheduler.policy.estimator.total_events == 3
        # A later round with no job events adds none, though the
        # snapshot still holds two jobs.
        scheduler.decide(snapshot, ())
        assert scheduler.policy.estimator.total_events == 3


class TestEvictionAwareScheduler:
    def test_identical_to_eva_without_notices(self, catalog):
        import pickle

        trace = synthetic_trace(12, seed=3, name="evict-a")
        spot = SpotConfig(enabled=True, preemption_rate_per_hour=0.3, seed=3)
        results = [
            run_simulation(
                trace, make_scheduler(name, catalog), spot=spot, validate=True
            )
            for name in ("eva", "eva-eviction-aware")
        ]
        plain, aware = results
        assert plain.total_cost == aware.total_cost
        assert [o.finish_s for o in plain.jobs] == [o.finish_s for o in aware.jobs]

    def test_notices_convert_preemptions_into_drains(self, catalog):
        trace = synthetic_trace(24, seed=0, name="evict-b")
        base_spot = SpotConfig(
            enabled=True, preemption_rate_per_hour=0.4, seed=0
        )
        blind = run_simulation(
            trace, make_scheduler("eva-eviction-aware", catalog), spot=base_spot
        )
        noticed = run_simulation(
            trace,
            make_scheduler("eva-eviction-aware", catalog),
            spot=SpotConfig(
                enabled=True,
                preemption_rate_per_hour=0.4,
                seed=0,
                notice_s=600.0,
            ),
            validate=True,
        )
        assert blind.preemptions > 0
        assert noticed.preemptions < blind.preemptions
        assert noticed.migrations > blind.migrations

    def test_notices_pruned_against_snapshot(self, catalog, two_jobs):
        notices = EvictionNotices()
        scheduler = EvaScheduler(catalog, signals=[notices])
        scheduler.observe((SpotEvictionNotice("i-gone", 500.0),))
        assert notices.hidden == {"i-gone"}
        snapshot = _snapshot_with(catalog, two_jobs, [])
        scheduler.schedule(snapshot)
        assert notices.hidden == frozenset()

    def test_hidden_instances_key_the_round_memo(self, catalog):
        """Hiding an instance leaves a packing snapshot equal to a
        memoized no-op round's, so only the key's hidden ids stop the
        replay that would skip the drain."""
        scheduler = EvaScheduler(catalog, signals=[EvictionNotices()])
        empty = _snapshot_with(catalog, [], [])
        assert scheduler.decide(empty).actions == ()
        doomed = _snapshot_with(catalog, [], [("c7i.xlarge", [])])
        notice = SpotEvictionNotice(doomed.instances[0].instance_id, 500.0)
        decision = scheduler.decide(doomed, (notice,))
        assert [type(a) for a in decision.actions] == [TerminateInstance]


class TestSimulatorObservations:
    def test_deadline_approaching_emitted(self, catalog):
        """Jobs with a deadline trigger the warning observation in time."""
        demand = {"*": ResourceVector(0, 4, 10)}
        job = make_job(
            "resnet50",
            demand,
            duration_hours=0.5,
            job_id="slo-job",
            deadline_hours=0.3,  # tighter than the runtime: warnings fire
        )
        from repro.workloads.trace import Trace

        seen: list[DeadlineApproaching] = []

        class Spy(EvaScheduler):
            def observe(self, observations):
                super().observe(observations)
                seen.extend(
                    o
                    for o in observations
                    if isinstance(o, DeadlineApproaching)
                )

        run_simulation(Trace(name="slo", jobs=(job,)), Spy(catalog))
        assert seen, "no DeadlineApproaching observation emitted"
        assert seen[0].job_id == "slo-job"
        assert seen[0].deadline_s == pytest.approx(0.3 * 3600.0)

    def test_action_vocabulary_enforced_in_validate_mode(self, catalog):
        trace = synthetic_trace(4, seed=1, name="vocab")

        class Rogue(EvaScheduler):
            """Declares launches only, but places tasks like Eva."""

            action_types = frozenset({LaunchInstance})

        sim = ClusterSimulator(
            trace=trace, scheduler=Rogue(catalog), validate=True
        )
        with pytest.raises(ProtocolError, match="action vocabulary"):
            sim.run()

    def test_action_vocabulary_enforced_by_master(self, catalog):
        """The runtime environment applies the same vocabulary rule."""
        from repro.runtime.master import EvaMaster

        class Rogue(EvaScheduler):
            action_types = frozenset({LaunchInstance})

        master = EvaMaster(catalog=catalog, scheduler=Rogue(catalog))
        demand = {"*": ResourceVector(0, 4, 10)}
        master.submit_job(
            make_job("resnet50", demand, duration_hours=0.1, job_id="r-1")
        )
        with pytest.raises(ProtocolError, match="action vocabulary"):
            master.run_round()


class TestMasterUsesSharedExecutor:
    def test_master_and_simulator_share_the_interpreter(self):
        """Both backends execute through ClusterEnvironment.execute —
        the apply loop exists exactly once."""
        from repro.runtime.master import _RuntimeEnvironment
        from repro.sim.simulator import _SimEnvironment

        for backend in (_RuntimeEnvironment, _SimEnvironment):
            assert issubclass(backend, ClusterEnvironment)
            assert "execute" not in backend.__dict__, (
                f"{backend.__name__} overrides the shared interpreter"
            )

    def test_master_round_trip_with_observations(self, catalog):
        from repro.runtime.master import EvaMaster

        master = EvaMaster(catalog=catalog, scheduler=EvaScheduler(catalog))
        demand = {"*": ResourceVector(0, 4, 10)}
        master.submit_job(
            make_job("resnet50", demand, duration_hours=0.1, job_id="m-1")
        )
        master.run_round()
        # The submission reached the scheduler as a typed JobArrived.
        assert master.scheduler.policy.estimator.total_events == 1
        assert master._assignment  # task placed through the executor
        master.run_for(hours=0.5)
        assert [c.job_id for c in master.completed] == ["m-1"]
        # The completion came back through the observation channel.
        assert master.scheduler.policy.estimator.total_events == 2

    def test_master_executes_unassign_actions(self, catalog):
        from repro.runtime.master import EvaMaster

        master = EvaMaster(catalog=catalog, scheduler=EvaScheduler(catalog))
        demand = {"*": ResourceVector(0, 4, 10)}
        master.submit_job(
            make_job("resnet50", demand, duration_hours=1.0, job_id="m-2")
        )
        master.run_round()
        (task_id, instance_id) = next(iter(master._assignment.items()))
        master._env.execute(
            Decision(
                actions=(
                    UnassignTask(task_id=task_id, instance_id=instance_id),
                )
            )
        )
        assert task_id not in master._assignment
        worker = master.provisioner.worker_of(instance_id)
        assert task_id not in worker.hosted_task_ids()
        assert master.executor.stats.unassignments == 1
