"""Unit tests for cluster snapshots and target configurations."""

import pytest

from repro.cluster.instance import InstanceType, fresh_instance
from repro.cluster.resources import ResourceVector
from repro.cluster.state import (
    ClusterSnapshot,
    InstanceState,
    TargetConfiguration,
    tasks_fit_on_type,
)
from repro.cluster.task import make_job

IT = InstanceType("m", "f", ResourceVector(4, 16, 64), 2.0)


def _mk_tasks(n, cpus=4):
    tasks = []
    for i in range(n):
        job = make_job(
            f"w{i}", {"*": ResourceVector(1, cpus, 8)}, 1.0, job_id=f"j{i}"
        )
        tasks.append(job.tasks[0])
    return tasks


def _snapshot(tasks, placements):
    """placements: dict instance -> task ids."""
    jobs = {}
    task_map = {}
    for t in tasks:
        task_map[t.task_id] = t
    for t in tasks:
        jobs.setdefault(t.job_id, make_job(
            t.workload, dict(t.demands), 1.0, job_id=t.job_id
        ))
    # Rebuild jobs from the actual tasks to keep ids consistent.
    from repro.cluster.task import Job
    jobs = {
        t.job_id: Job(
            job_id=t.job_id, tasks=(t,), arrival_time_s=0.0,
            duration_hours=1.0, workload=t.workload,
        )
        for t in tasks
    }
    instances = [
        InstanceState(instance=inst, task_ids=frozenset(tids))
        for inst, tids in placements.items()
    ]
    return ClusterSnapshot(time_s=0.0, tasks=task_map, jobs=jobs, instances=instances)


class TestFit:
    def test_tasks_fit_on_type(self):
        tasks = _mk_tasks(4)
        assert tasks_fit_on_type(tasks, IT)
        assert not tasks_fit_on_type(_mk_tasks(5), IT)

    def test_remaining_capacity(self):
        # Two tasks leave (2, 8, 48) of the type: a task of exactly that
        # demand still fits beside them, one more CPU does not.
        tasks = _mk_tasks(2)
        rest = make_job("r", {"*": ResourceVector(2, 8, 48)}, 1.0, job_id="rest")
        over = make_job("o", {"*": ResourceVector(2, 9, 48)}, 1.0, job_id="over")
        assert tasks_fit_on_type(tasks + list(rest.tasks), IT)
        assert not tasks_fit_on_type(tasks + list(over.tasks), IT)


class TestSnapshot:
    def test_unassigned_tasks(self):
        tasks = _mk_tasks(3)
        inst = fresh_instance(IT)
        snap = _snapshot(tasks, {inst: [tasks[0].task_id]})
        unassigned = {t.task_id for t in snap.unassigned_tasks()}
        assert unassigned == {tasks[1].task_id, tasks[2].task_id}

    def test_instance_of_and_neighbours(self):
        tasks = _mk_tasks(3)
        inst = fresh_instance(IT)
        snap = _snapshot(
            tasks, {inst: [tasks[0].task_id, tasks[1].task_id]}
        )
        (state,) = snap.instances
        assert state.instance_id == inst.instance_id
        assert state.task_ids == {tasks[0].task_id, tasks[1].task_id}
        assert tasks[2].task_id not in snap.assigned_task_ids()


class TestTargetConfiguration:
    def test_assignment_and_cost(self):
        tasks = _mk_tasks(2)
        inst = fresh_instance(IT)
        target = TargetConfiguration.from_pairs(
            [(inst, [t.task_id for t in tasks])]
        )
        assert target.hourly_cost() == 2.0
        assert target.assignment() == {
            tasks[0].task_id: inst.instance_id,
            tasks[1].task_id: inst.instance_id,
        }

    def test_duplicate_assignment_rejected(self):
        tasks = _mk_tasks(1)
        a, b = fresh_instance(IT), fresh_instance(IT)
        target = TargetConfiguration.from_pairs(
            [(a, [tasks[0].task_id]), (b, [tasks[0].task_id])]
        )
        with pytest.raises(ValueError):
            target.assignment()

    def test_validate_unknown_task(self):
        tasks = _mk_tasks(1)
        snap = _snapshot(tasks, {})
        target = TargetConfiguration.from_pairs([(fresh_instance(IT), ["ghost"])])
        with pytest.raises(ValueError):
            target.validate(snap)

    def test_validate_oversubscription(self):
        tasks = _mk_tasks(5)
        snap = _snapshot(tasks, {})
        target = TargetConfiguration.from_pairs(
            [(fresh_instance(IT), [t.task_id for t in tasks])]
        )
        with pytest.raises(ValueError):
            target.validate(snap)

