"""Unit tests for instance types, instances, tasks, and jobs."""

import math

import pytest

from repro.cluster.instance import (
    InstanceType,
    fresh_instance,
    ghost_instance_type,
)
from repro.cluster.resources import ResourceVector
from repro.cluster.task import (
    DEFAULT_FAMILY,
    Job,
    Task,
    make_job,
)


class TestInstanceType:
    def test_ghost_properties(self):
        ghost = ghost_instance_type()
        assert ghost.is_ghost
        assert ghost.hourly_cost == 0
        assert ghost.capacity == ResourceVector.zero()

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            InstanceType("x", "f", ResourceVector(1, 1, 1), -1.0)


class TestInstance:
    def test_fresh_instances_unique(self):
        it = InstanceType("x", "f", ResourceVector(1, 1, 1), 1.0)
        a, b = fresh_instance(it), fresh_instance(it)
        assert a.instance_id != b.instance_id
        assert a != b

    def test_equality_by_id(self):
        it = InstanceType("x", "f", ResourceVector(1, 1, 1), 1.0)
        a = fresh_instance(it)
        clone = type(a)(instance_type=it, instance_id=a.instance_id)
        assert a == clone
        assert hash(a) == hash(clone)


class TestTask:
    def test_demand_for_family_fallback(self):
        task = Task(
            task_id="t",
            job_id="j",
            workload="w",
            demands={
                "p3": ResourceVector(1, 8, 16),
                DEFAULT_FAMILY: ResourceVector(1, 4, 16),
            },
        )
        assert task.demand_for("p3").cpus == 8
        assert task.demand_for("c7i").cpus == 4  # falls back to '*'

    def test_demand_for_without_default_uses_any(self):
        task = Task(
            task_id="t", job_id="j", workload="w",
            demands={"p3": ResourceVector(1, 8, 16)},
        )
        assert task.demand_for("c7i").cpus == 8

    def test_empty_demands_rejected(self):
        with pytest.raises(ValueError):
            Task(task_id="t", job_id="j", workload="w", demands={})

    def test_max_demand(self):
        task = Task(
            task_id="t", job_id="j", workload="w",
            demands={
                "a": ResourceVector(1, 8, 10),
                "b": ResourceVector(2, 4, 20),
            },
        )
        assert task.max_demand == ResourceVector(2, 8, 20)


class TestJob:
    def test_make_job_multi_task(self):
        job = make_job("w", {"*": ResourceVector(1, 2, 3)}, 2.0, num_tasks=3)
        assert job.num_tasks == 3
        assert job.is_multi_task
        assert len({t.task_id for t in job.tasks}) == 3
        assert all(t.job_id == job.job_id for t in job.tasks)

    def test_job_requires_tasks(self):
        with pytest.raises(ValueError):
            Job(job_id="j", tasks=(), arrival_time_s=0, duration_hours=1, workload="w")

    def test_job_rejects_foreign_tasks(self):
        other = make_job("w", {"*": ResourceVector(1, 1, 1)}, 1.0)
        with pytest.raises(ValueError):
            Job(
                job_id="j2",
                tasks=other.tasks,
                arrival_time_s=0,
                duration_hours=1,
                workload="w",
            )

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            make_job("w", {"*": ResourceVector(1, 1, 1)}, 0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration_hours", math.inf),
            ("duration_hours", math.nan),
            ("deadline_hours", math.inf),
            ("deadline_hours", math.nan),
            ("arrival_time_s", math.inf),
            ("arrival_time_s", -math.inf),
            ("arrival_time_s", math.nan),
        ],
    )
    def test_non_finite_times_rejected_naming_the_job(self, field, value):
        kwargs = {"duration_hours": 1.0, "arrival_time_s": 0.0, field: value}
        with pytest.raises(ValueError, match="job bad-job "):
            make_job("w", {"*": ResourceVector(1, 1, 1)}, job_id="bad-job", **kwargs)
