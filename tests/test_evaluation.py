"""Unit and property tests for RP/TNRP evaluators and pack states."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourceVector
from repro.cluster.task import make_job
from repro.core.evaluation import RPEvaluator, TNRPEvaluator
from repro.core.full_reconfig import full_reconfiguration
from repro.core.reservation_price import ReservationPriceCalculator
from repro.core.throughput_table import (
    CoLocationThroughputTable,
    TaskPlacementObservation,
)


@pytest.fixture()
def calc(example_catalog):
    return ReservationPriceCalculator(example_catalog)


def _job(workload, demand, num_tasks=1, job_id=None):
    return make_job(
        workload, {"*": ResourceVector(*demand)}, 1.0,
        num_tasks=num_tasks, job_id=job_id,
    )


class TestRPEvaluator:
    def test_set_value_additive(self, calc, example_tasks):
        ev = RPEvaluator(calc)
        assert ev.set_value(example_tasks) == pytest.approx(16.2)

    def test_pack_state_incremental(self, calc, example_tasks):
        ev = RPEvaluator(calc)
        state = ev.make_state()
        total = 0.0
        for task in example_tasks:
            assert state.value_with(task) == pytest.approx(total + calc.rp(task))
            state.add(task)
            total += calc.rp(task)
        assert state.value == pytest.approx(16.2)

    def test_cost_efficiency_check(self, calc, example_tasks, example_catalog):
        # Algorithm 1 keeps a set on a type only if its value covers the
        # hourly cost: tau1 + tau2 (15) pay for it1 (12), tau2 (3) does not.
        ev = RPEvaluator(calc)
        it1 = example_catalog[0]
        packed = full_reconfiguration(example_tasks[:2], [it1], ev)
        assert [sorted(t.job_id for t in p.tasks) for p in packed] == [
            ["tau1", "tau2"]
        ]
        with pytest.raises(RuntimeError, match="could not be packed"):
            full_reconfiguration([example_tasks[1]], [it1], ev)


class TestTNRPSingleTask:
    def test_paper_example_section_4_3(self, calc, example_tasks):
        """§4.3: co-locating tau1 (0.8) and tau2 (0.9) on it1: 12.3 > 12."""
        table = CoLocationThroughputTable()
        table.observe_single_task_job(
            TaskPlacementObservation("w1", ("w2",)), 0.8
        )
        table.observe_single_task_job(
            TaskPlacementObservation("w2", ("w1",)), 0.9
        )
        ev = TNRPEvaluator(calc, table, jobs={}, multi_task_aware=False)
        value = ev.set_value([example_tasks[0], example_tasks[1]])
        assert value == pytest.approx(12.0 * 0.8 + 3.0 * 0.9)

    def test_paper_example_severe_interference(self, calc, example_tasks):
        table = CoLocationThroughputTable()
        table.observe_single_task_job(
            TaskPlacementObservation("w1", ("w2",)), 0.7
        )
        table.observe_single_task_job(
            TaskPlacementObservation("w2", ("w1",)), 0.8
        )
        ev = TNRPEvaluator(calc, table, jobs={}, multi_task_aware=False)
        value = ev.set_value([example_tasks[0], example_tasks[1]])
        assert value == pytest.approx(10.8)  # below it1's $12/hr

    def test_singleton_equals_rp(self, calc, example_tasks):
        ev = TNRPEvaluator(calc, CoLocationThroughputTable(), jobs={})
        assert ev.set_value([example_tasks[0]]) == pytest.approx(12.0)


class TestTNRPMultiTask:
    def test_multi_task_penalty_formula(self, calc):
        """§4.4: TNRP(tau, T) = RP(tau) - sum_j (1 - tput) RP(tau')."""
        job = _job("w1", (2, 8, 24), num_tasks=2, job_id="mt")
        jobs = {"mt": job}
        table = CoLocationThroughputTable(default_tput=0.9)
        ev = TNRPEvaluator(calc, table, jobs=jobs, multi_task_aware=True)
        task = job.tasks[0]
        rp = calc.rp(task)
        job_rp = 2 * rp
        # One neighbour at default 0.9.
        expected = rp - (1 - 0.9) * job_rp
        assert ev.task_tnrp(task, ["other"]) == pytest.approx(expected)

    def test_single_task_job_reduces_to_tput_times_rp(self, calc):
        job = _job("w1", (2, 8, 24), job_id="st")
        table = CoLocationThroughputTable(default_tput=0.9)
        ev = TNRPEvaluator(calc, table, jobs={"st": job}, multi_task_aware=True)
        task = job.tasks[0]
        assert ev.task_tnrp(task, ["x"]) == pytest.approx(0.9 * calc.rp(task))

    def test_multi_aware_toggle(self, calc):
        job = _job("w1", (2, 8, 24), num_tasks=4, job_id="mt4")
        table = CoLocationThroughputTable(default_tput=0.8)
        aware = TNRPEvaluator(calc, table, jobs={"mt4": job}, multi_task_aware=True)
        blind = TNRPEvaluator(calc, table, jobs={"mt4": job}, multi_task_aware=False)
        task = job.tasks[0]
        assert aware.task_tnrp(task, ["x"]) < blind.task_tnrp(task, ["x"])

    def test_group_key_includes_arity(self, calc):
        job2 = _job("w1", (2, 8, 24), num_tasks=2, job_id="a")
        job4 = _job("w1", (2, 8, 24), num_tasks=4, job_id="b")
        ev = TNRPEvaluator(
            calc,
            CoLocationThroughputTable(),
            jobs={"a": job2, "b": job4},
            multi_task_aware=True,
        )
        assert ev.group_key(job2.tasks[0]) != ev.group_key(job4.tasks[0])


class TestPackStateConsistency:
    workloads = ("ResNet18", "GraphSAGE", "CycleGAN", "GPT2", "GCN")

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(workloads),
                st.integers(min_value=1, max_value=3),  # job arity (§4.4)
                st.sampled_from([1.0, 2.5, 4.0]),  # urgency
            ),
            min_size=1,
            max_size=7,
        ),
        st.booleans(),
    )
    def test_incremental_matches_batch(self, specs, with_exact):
        """PackState increments equal set_value bit for bit."""
        from repro.cloud.catalog import ec2_catalog

        calc = ReservationPriceCalculator(ec2_catalog())
        table = CoLocationThroughputTable(default_tput=0.95)
        table.observe_single_task_job(
            TaskPlacementObservation("ResNet18", ("GCN",)), 0.83
        )
        if with_exact:
            table.observe_single_task_job(
                TaskPlacementObservation("ResNet18", ("GCN", "GPT2")), 0.6
            )
        jobs, urgency, tasks = {}, {}, []
        for i, (name, arity, u) in enumerate(specs):
            job = _job(name, (1, 4, 8), num_tasks=arity, job_id=f"j{i}")
            jobs[job.job_id] = job
            urgency[job.job_id] = u
            tasks.extend(job.tasks)
        ev = TNRPEvaluator(
            calc, table, jobs=jobs, multi_task_aware=True, urgency=urgency
        )
        state = ev.make_state()
        added = []
        for task in tasks:
            expected = ev.set_value(added + [task])
            assert state.value_with(task) == expected
            state.add(task)
            added.append(task)
            assert state.value == ev.set_value(added)
        assert ev.make_state(tasks).value == ev.set_value(tasks)

    _REPEATED = ("GCN", "GPT2", "ResNet18")

    @staticmethod
    def _drawn_table(default_tput, entries):
        """A table holding the drawn entries.  Each goes in through one of
        the table's three write paths, in draw order, so a later draw of
        the same placement changes a recorded value."""
        table = CoLocationThroughputTable(default_tput=default_tput)
        for workload, neighbours, tput, path in entries:
            placement = TaskPlacementObservation(workload, tuple(neighbours))
            if path == "single":
                table.observe_single_task_job(placement, tput)
            elif path == "multi":
                table.observe_multi_task_job([placement], tput)
            else:
                table.sync({(workload, tuple(neighbours)): tput})
        return table

    @staticmethod
    def _assert_matches_set_value(ev, tasks):
        """Grow a state one task at a time; at every step every remaining
        task's ``value_with`` and the committed ``value`` must equal
        ``set_value`` bit for bit.  A state seeded with the members at
        once (as Partial Reconfiguration seeds a survivor's residents)
        must agree too."""
        state = ev.make_state()
        added = []
        for i, task in enumerate(tasks):
            seeded = ev.make_state(added)
            assert seeded.value == state.value
            for candidate in tasks[i:]:
                expected = ev.set_value(added + [candidate])
                assert state.value_with(candidate) == expected
                assert seeded.value_with(candidate) == expected
            state.add(task)
            added.append(task)
            assert state.value == ev.set_value(added)

    _entries = st.lists(
        st.tuples(
            st.sampled_from(_REPEATED),
            st.lists(st.sampled_from(_REPEATED), min_size=1, max_size=6),
            st.floats(min_value=0.0, max_value=1.0),
            st.sampled_from(["single", "multi", "sync"]),
        ),
        max_size=14,
    )
    _members = st.lists(
        st.tuples(
            st.sampled_from(_REPEATED),
            st.integers(min_value=1, max_value=3),  # job arity (§4.4)
            st.sampled_from([1.0, 2.5, 4.0]),  # urgency
        ),
        min_size=1,
        max_size=6,
    )

    @settings(max_examples=60, deadline=None)
    @given(
        default_tput=st.sampled_from([0.95, 0.7, 1.0]),
        entries=_entries,
        members=_members,
    )
    def test_tnrp_state_matches_set_value_on_drawn_tables(
        self, default_tput, entries, members
    ):
        from repro.cloud.catalog import ec2_catalog

        table = self._drawn_table(default_tput, entries)
        calc = ReservationPriceCalculator(ec2_catalog())
        jobs, urgency, tasks = {}, {}, []
        for i, (name, arity, u) in enumerate(members):
            job = _job(name, (1, 4, 8), num_tasks=arity, job_id=f"j{i}")
            jobs[job.job_id] = job
            urgency[job.job_id] = u
            tasks.extend(job.tasks)
        ev = TNRPEvaluator(
            calc, table, jobs=jobs, multi_task_aware=True, urgency=urgency
        )
        self._assert_matches_set_value(ev, tasks[:8])

    @settings(max_examples=40, deadline=None)
    @given(
        default_tput=st.sampled_from([0.95, 0.7]),
        entries=_entries,
        members=_members,
        speeds=st.dictionaries(
            st.sampled_from(_REPEATED), st.sampled_from([0.5, 1.0, 1.7, 3.0])
        ),
    )
    def test_heterogeneous_state_matches_set_value_on_drawn_tables(
        self, default_tput, entries, members, speeds
    ):
        from repro.cloud.catalog import ec2_catalog
        from repro.core.heterogeneous import (
            FamilySpeedProfile,
            HeterogeneousEvaluator,
            HeterogeneousRPCalculator,
        )

        table = self._drawn_table(default_tput, entries)
        catalog = ec2_catalog()
        profile = FamilySpeedProfile(
            speeds={name: {"p3": speed} for name, speed in speeds.items()}
        )
        jobs, tasks = {}, []
        for i, (name, arity, _) in enumerate(members):
            job = _job(name, (1, 4, 8), num_tasks=arity, job_id=f"j{i}")
            jobs[job.job_id] = job
            tasks.extend(job.tasks)
        ev = HeterogeneousEvaluator(
            calculator=HeterogeneousRPCalculator(catalog, profile),
            table=table,
            jobs=jobs,
        ).for_family("p3")
        self._assert_matches_set_value(ev, tasks[:8])


class TestEmptyStateValueCap:
    """Algorithm 1 ranks an empty instance's first pick on ``value_cap``
    alone: on an empty state ``value_with`` must equal ``0.0 + value_cap``
    under every evaluator."""

    @staticmethod
    def _tasks():
        jobs = [
            _job("GCN", (1, 4, 8), job_id="single"),
            _job("GPT2", (1, 4, 8), num_tasks=3, job_id="multi"),
            _job("ResNet18", (0, 2, 4), num_tasks=2, job_id="urgent"),
        ]
        return {job.job_id: job for job in jobs}

    def _evaluators(self, jobs):
        from repro.cloud.catalog import ec2_catalog
        from repro.core.heterogeneous import (
            FamilySpeedProfile,
            HeterogeneousEvaluator,
            HeterogeneousRPCalculator,
        )

        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        table = CoLocationThroughputTable(default_tput=0.8)
        het = HeterogeneousEvaluator(
            calculator=HeterogeneousRPCalculator(
                catalog,
                FamilySpeedProfile({"GPT2": {"p3": 2.0}, "GCN": {"p3": 0.5}}),
            ),
            table=table,
            jobs=jobs,
        )
        return [
            RPEvaluator(calc),
            TNRPEvaluator(calc, table, jobs=jobs),
            TNRPEvaluator(calc, table, jobs=jobs, multi_task_aware=False),
            TNRPEvaluator(calc, table, jobs=jobs, urgency={"urgent": 3.0}),
            het.for_family("p3"),
            het.for_family("c7i"),
        ]

    def test_value_with_on_empty_state_is_value_cap(self):
        jobs = self._tasks()
        for ev in self._evaluators(jobs):
            for job in jobs.values():
                for task in job.tasks:
                    expected = 0.0 + ev.value_cap(task)
                    assert ev.make_state().value_with(task) == expected
