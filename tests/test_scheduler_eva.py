"""Unit tests for the EvaScheduler (§3, §4)."""

import itertools

import pytest

import repro.cluster.instance as instance_module
from repro.cluster.instance import fresh_instance
from repro.cluster.resources import ResourceVector
from repro.cluster.state import ClusterSnapshot, InstanceState
from repro.cluster.task import make_job
from repro.core import scheduler as eva_scheduler
from repro.core.ensemble import migration_cost
from repro.core.interfaces import JobThroughputReport
from repro.core.protocol import (
    JobArrived,
    JobFinished,
    MigrateTask,
    SpotEvictionNotice,
    TerminateInstance,
    ThroughputReport,
)
from repro.core.scheduler import (
    EvaConfig,
    EvaScheduler,
    EvictionNotices,
    make_eva_variant,
)
from repro.core.throughput_table import (
    CoLocationThroughputTable,
    TaskPlacementObservation,
)


def _snapshot(jobs, placements=None, time_s=0.0):
    tasks = {t.task_id: t for j in jobs for t in j.tasks}
    instances = []
    for inst, tids in (placements or {}).items():
        instances.append(InstanceState(instance=inst, task_ids=frozenset(tids)))
    return ClusterSnapshot(
        time_s=time_s,
        tasks=tasks,
        jobs={j.job_id: j for j in jobs},
        instances=instances,
    )


def _job(workload, demand, job_id, num_tasks=1):
    return make_job(
        workload, {"*": ResourceVector(*demand)}, 1.0,
        job_id=job_id, num_tasks=num_tasks,
    )


class TestConfig:
    def test_both_disabled_rejected(self):
        with pytest.raises(ValueError):
            EvaConfig(enable_full=False, enable_partial=False)

    def test_variant_factory(self, catalog):
        names = {
            "eva": "Eva",
            "eva-rp": "Eva-RP",
            "eva-single": "Eva-Single",
            "eva-full-only": "Eva-Full-only",
            "eva-partial-only": "Eva-Partial-only",
        }
        for key, name in names.items():
            assert make_eva_variant(catalog, key).name == name

    def test_unknown_variant(self, catalog):
        with pytest.raises(KeyError):
            make_eva_variant(catalog, "eva-turbo")


class TestScheduling:
    def test_places_all_tasks_validly(self, example_catalog):
        scheduler = EvaScheduler(example_catalog)
        jobs = [
            _job("w1", (2, 8, 24), "j1"),
            _job("w2", (1, 4, 10), "j2"),
            _job("w3", (0, 6, 20), "j3"),
        ]
        snapshot = _snapshot(jobs)
        target = scheduler.schedule(snapshot)
        target.validate(snapshot)
        assert set(target.assignment()) == set(snapshot.tasks)

    def test_keeps_efficient_instances_when_partial_wins(self, example_catalog):
        scheduler = EvaScheduler(example_catalog)
        job = _job("w1", (4, 16, 64), "big")
        inst = fresh_instance(example_catalog[0])
        snapshot = _snapshot([job], {inst: [job.tasks[0].task_id]})
        target = scheduler.schedule(snapshot)
        assert target.assignment()[job.tasks[0].task_id] == inst.instance_id

    def test_event_tracking_across_rounds(self, example_catalog):
        scheduler = EvaScheduler(example_catalog)
        j1 = _job("w1", (1, 4, 10), "e1")
        scheduler.decide(_snapshot([j1], time_s=0.0), (JobArrived("e1", 0.0),))
        assert scheduler.policy.estimator.total_events == 1
        j2 = _job("w1", (1, 4, 10), "e2")
        scheduler.decide(
            _snapshot([j1, j2], time_s=300.0), (JobArrived("e2", 300.0),)
        )
        assert scheduler.policy.estimator.total_events == 2
        # j1 completes: one more event.
        scheduler.decide(_snapshot([j2], time_s=600.0), (JobFinished("e1", 600.0),))
        assert scheduler.policy.estimator.total_events == 3
        # A round without job events counts none.
        scheduler.decide(_snapshot([j2], time_s=900.0))
        assert scheduler.policy.estimator.total_events == 3
        assert scheduler.policy.estimator.last_time_s == 900.0

    def test_full_only_variant_has_no_decision(self, example_catalog):
        scheduler = EvaScheduler(
            example_catalog, config=EvaConfig(enable_partial=False)
        )
        job = _job("w1", (1, 4, 10), "f1")
        scheduler.schedule(_snapshot([job]))
        assert scheduler.last_decision is None

    def test_ensemble_decision_recorded(self, example_catalog):
        scheduler = EvaScheduler(example_catalog)
        job = _job("w1", (1, 4, 10), "d1")
        scheduler.schedule(_snapshot([job]))
        assert scheduler.last_decision is not None
        assert 0.0 <= scheduler.full_adoption_fraction() <= 1.0


class TestPlannedRound:
    """A round executes the plan Equation 1 priced."""

    @staticmethod
    def _spy(monkeypatch, scheduler):
        """Record each ``diff_target`` call the scheduler makes, as
        ``(snapshot, plan)``, and each weighing as ``(full, partial,
        snapshot, chosen)``."""
        planned, weighed = [], []
        plan, weigh = eva_scheduler.diff_target, scheduler.policy.decide

        def recorded_plan(snapshot, target):
            decision = plan(snapshot, target)
            planned.append((snapshot, decision))
            return decision

        def recorded_weigh(full, partial, snapshot, evaluator):
            chosen, record = weigh(full, partial, snapshot, evaluator)
            weighed.append((full, partial, snapshot, chosen))
            return chosen, record

        monkeypatch.setattr(eva_scheduler, "diff_target", recorded_plan)
        monkeypatch.setattr(scheduler.policy, "decide", recorded_weigh)
        return planned, weighed

    def test_returns_the_plan_equation_1_weighed(self, example_catalog, monkeypatch):
        scheduler = EvaScheduler(example_catalog)
        planned, weighed = self._spy(monkeypatch, scheduler)
        jobs = [_job("w1", (2, 8, 24), "j1"), _job("w2", (1, 4, 10), "j2")]
        snapshot = _snapshot(jobs)
        decision = scheduler.decide(snapshot)
        ((full, partial, priced_on, chosen),) = weighed
        assert priced_on is snapshot
        assert decision is chosen
        assert decision.actions
        # One plan per candidate, and no third.
        assert len(planned) == 2
        assert all(s is snapshot for s, _ in planned)
        assert planned[0][1] is full and planned[1][1] is partial

    def test_hidden_instance_is_drained_by_the_plan_equation_1_weighed(
        self, catalog, monkeypatch
    ):
        scheduler = EvaScheduler(catalog, signals=[EvictionNotices()])
        planned, weighed = self._spy(monkeypatch, scheduler)
        jobs = [_job("resnet50", (0, 4, 10), "a"), _job("a3c", (0, 4, 10), "b")]
        doomed = fresh_instance(next(t for t in catalog if t.name == "c7i.4xlarge"))
        snapshot = _snapshot(jobs, {doomed: ["a/t0", "b/t0"]})
        notice = SpotEvictionNotice(doomed.instance_id, 500.0)
        decision = scheduler.decide(snapshot, (notice,))

        ((full, partial, priced_on, chosen),) = weighed
        assert priced_on is snapshot and decision is chosen
        assert len(planned) == 2 and all(s is snapshot for s, _ in planned)
        moves = [a for a in decision.actions if isinstance(a, MigrateTask)]
        assert [m.task_id for m in moves] == ["a/t0", "b/t0"]
        assert {m.src_instance_id for m in moves} == {doomed.instance_id}
        assert decision.actions[-1] == TerminateInstance(doomed.instance_id)
        # Both plans' M include checkpointing the drained tasks off the
        # hidden instance.
        record = scheduler.last_decision
        delays = scheduler.delay_model
        assert record.migration_full == migration_cost(full, snapshot, delays)
        assert record.migration_partial == migration_cost(partial, snapshot, delays)


class TestObservationsReadOnce:
    """Eva reads an observations tuple once: a round handed the very
    tuple of the round before reuses its unwrapped reports and its
    arrival/completion count, and decides exactly as a round handed an
    equal copy, which is read in full."""

    @staticmethod
    def _rounds(example_catalog):
        j1 = _job("w1", (1, 4, 10), "j1")
        j2 = _job("w2", (1, 4, 10), "j2")
        shared = fresh_instance(example_catalog[0])
        both = {shared: [j1.tasks[0].task_id, j2.tasks[0].task_id]}

        def report(job, workload, neighbour, tput):
            placement = TaskPlacementObservation(
                workload=workload, neighbours=(neighbour,)
            )
            return ThroughputReport(JobThroughputReport(job, tput, (placement,)))

        # Every tuple has two items, so a freed copy's memory is the
        # next copy's: only a held reference tells them apart.
        arrived = (JobArrived("j1", 0.0), JobArrived("j2", 0.0))
        steady = (report("j1", "w1", "w2", 0.7), report("j2", "w2", "w1", 0.9))
        finished = (JobFinished("j2", 1200.0), steady[0])
        return [
            (_snapshot([j1, j2], time_s=0.0), arrived),
            (_snapshot([j1, j2], both, time_s=300.0), steady),
            (_snapshot([j1, j2], both, time_s=600.0), steady),
            (_snapshot([j1, j2], both, time_s=900.0), steady),
            (_snapshot([j1], {shared: [j1.tasks[0].task_id]}, 1200.0), finished),
            (_snapshot([j1], {shared: [j1.tasks[0].task_id]}, 1500.0), finished),
        ]

    @staticmethod
    def _run(example_catalog, rounds, copy, monkeypatch):
        """Decide ``rounds`` on a fresh scheduler, handing it each tuple
        itself or (``copy``) a new equal tuple; returns the decisions'
        actions, the D̂ event total, the unwrap count and the table
        observation count."""
        monkeypatch.setattr(instance_module, "_instance_counter", itertools.count(1))
        unwraps, observed = [], []
        unwrap = eva_scheduler.throughput_reports
        observe = CoLocationThroughputTable.observe_single_task_job

        def counting_unwrap(observations):
            # Counts without holding the tuple, so a copy is freed after
            # its round, as in a simulation.
            unwraps.append(len(observations))
            return unwrap(observations)

        def counting_observe(table, *args):
            observed.append(args)
            return observe(table, *args)

        monkeypatch.setattr(eva_scheduler, "throughput_reports", counting_unwrap)
        monkeypatch.setattr(
            CoLocationThroughputTable, "observe_single_task_job", counting_observe
        )
        scheduler = EvaScheduler(example_catalog)
        actions = []
        for snapshot, observations in rounds:
            if copy:
                decision = scheduler.decide(snapshot, tuple(list(observations)))
            else:
                decision = scheduler.decide(snapshot, observations)
            actions.append(repr(decision.actions))
        monkeypatch.undo()
        return (
            actions,
            scheduler.policy.estimator.total_events,
            len(unwraps),
            len(observed),
        )

    def test_same_tuple_decides_as_equal_copies(self, example_catalog, monkeypatch):
        rounds = self._rounds(example_catalog)
        same = self._run(example_catalog, rounds, False, monkeypatch)
        copies = self._run(example_catalog, rounds, True, monkeypatch)
        assert same[0] == copies[0]
        # Two arrivals, then the finish tuple handed twice: a kept count
        # is added in every round handed its tuple, as a fresh read is.
        assert same[1] == copies[1] == 2 + 1 + 1
        # One unwrap per distinct tuple, against one per round.
        assert same[2] == 3
        assert copies[2] == len(rounds)
        # The monitor applies each distinct set of reports until the
        # table stops moving: the steady pair twice, since its first
        # ingest recorded new entries, and the finish round's report,
        # already known, once.
        assert same[3] == copies[3] == 2 + 2 + 1


class TestThroughputIntegration:
    def test_reports_update_monitor(self, example_catalog):
        scheduler = EvaScheduler(example_catalog)
        report = JobThroughputReport(
            job_id="j",
            normalized_tput=0.8,
            placements=(
                TaskPlacementObservation(workload="w1", neighbours=("w2",)),
            ),
        )
        scheduler.on_throughput_reports((report,))
        assert scheduler.monitor.table.tput("w1", ["w2"]) == 0.8

    def test_learned_interference_prevents_colocation(self, example_catalog):
        """After observing severe interference, Eva splits the pair."""
        scheduler = EvaScheduler(example_catalog)
        j1 = _job("w1", (2, 8, 24), "p1")
        j2 = _job("w2", (1, 4, 10), "p2")
        for w1, w2 in (("w1", "w2"), ("w2", "w1")):
            scheduler.on_throughput_reports(
                (
                    JobThroughputReport(
                        job_id="x",
                        normalized_tput=0.3,
                        placements=(
                            TaskPlacementObservation(
                                workload=w1, neighbours=(w2,)
                            ),
                        ),
                    ),
                )
            )
        snapshot = _snapshot([j1, j2])
        target = scheduler.schedule(snapshot)
        assignment = target.assignment()
        assert assignment[j1.tasks[0].task_id] != assignment[j2.tasks[0].task_id]

    def test_rp_variant_ignores_reports(self, example_catalog):
        scheduler = make_eva_variant(example_catalog, "eva-rp")
        j1 = _job("w1", (2, 8, 24), "q1")
        j2 = _job("w2", (1, 4, 10), "q2")
        scheduler.on_throughput_reports(
            (
                JobThroughputReport(
                    job_id="x",
                    normalized_tput=0.1,
                    placements=(
                        TaskPlacementObservation(workload="w1", neighbours=("w2",)),
                    ),
                ),
            )
        )
        target = scheduler.schedule(_snapshot([j1, j2]))
        assignment = target.assignment()
        # RP mode packs regardless of the learned interference.
        assert assignment[j1.tasks[0].task_id] == assignment[j2.tasks[0].task_id]
