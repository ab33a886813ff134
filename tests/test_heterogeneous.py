"""Tests for the §4.2 heterogeneous-resources RP extension."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.catalog import ec2_catalog
from repro.cluster.resources import ResourceVector
from repro.cluster.state import tasks_fit_on_type
from repro.cluster.task import make_job
from repro.core.evaluation import TNRPEvaluator
from repro.core.full_reconfig import full_reconfiguration
from repro.core.partial_reconfig import partial_reconfiguration
from repro.core.heterogeneous import (
    FamilySpeedProfile,
    HeterogeneousEvaluator,
    HeterogeneousRPCalculator,
)
from repro.core.reservation_price import (
    InfeasibleTaskError,
    ReservationPriceCalculator,
)
from repro.core.throughput_table import CoLocationThroughputTable
from repro.workloads.synthetic import microbench_task_pool


def _cpu_task(cpus=4, ram=8, job_id="het"):
    return make_job(
        "W", {"*": ResourceVector(0, cpus, ram)}, 1.0, job_id=job_id
    ).tasks[0]


class TestSpeedProfile:
    def test_default_speed(self):
        profile = FamilySpeedProfile()
        assert profile.speed("anything", "p3") == 1.0

    def test_explicit_speed(self):
        profile = FamilySpeedProfile(speeds={"W": {"c7i": 2.0}})
        assert profile.speed("W", "c7i") == 2.0
        assert profile.speed("W", "r7i") == 1.0
        assert profile.speed("other", "c7i") == 1.0

    @pytest.mark.parametrize("speed", [-0.5, math.inf, math.nan])
    def test_bad_speed_rejected_naming_workload_and_family(self, speed):
        with pytest.raises(ValueError, match="'W' on family 'r7i'"):
            FamilySpeedProfile(speeds={"W": {"c7i": 2.0, "r7i": speed}})


class TestHeterogeneousRP:
    def test_unit_speeds_reduce_to_homogeneous(self, catalog):
        het = HeterogeneousRPCalculator(catalog)
        hom = ReservationPriceCalculator(catalog)
        for task in microbench_task_pool(40, seed=1):
            assert het.rp(task) == pytest.approx(hom.rp(task), abs=1e-9)

    def test_faster_family_lowers_rp(self, catalog):
        """A 2x-faster family halves the dollars-per-iteration price."""
        task = _cpu_task()
        slow = HeterogeneousRPCalculator(catalog).rp(task)
        fast = HeterogeneousRPCalculator(
            catalog, FamilySpeedProfile(speeds={"W": {"c7i": 2.0}})
        )
        assert fast.rp(task) == pytest.approx(slow / 2.0)
        assert fast.rp_type(task).family == "c7i"

    def test_speed_changes_efficiency_type(self, catalog):
        """If R7i runs W 4x faster, W's efficiency type moves to R7i even
        though C7i is nominally cheaper."""
        calc = HeterogeneousRPCalculator(
            catalog, FamilySpeedProfile(speeds={"W": {"r7i": 4.0}})
        )
        assert calc.rp_type(_cpu_task()).family == "r7i"

    def test_zero_speed_family_excluded(self, catalog):
        calc = HeterogeneousRPCalculator(
            catalog,
            FamilySpeedProfile(
                speeds={"W": {"c7i": 0.0, "r7i": 0.0, "p3": 0.0}}
            ),
        )
        with pytest.raises(InfeasibleTaskError):
            calc.rp(_cpu_task())

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            HeterogeneousRPCalculator([])


class TestHeterogeneousPacking:
    def _evaluator(self, catalog, profile=None):
        calc = HeterogeneousRPCalculator(catalog, profile or FamilySpeedProfile())
        return HeterogeneousEvaluator(
            calculator=calc,
            table=CoLocationThroughputTable(default_tput=1.0),
            jobs={},
        )

    def test_packing_invariants(self, catalog):
        tasks = microbench_task_pool(50, seed=2)
        ev = self._evaluator(catalog)
        packed = full_reconfiguration(tasks, catalog, ev)
        assigned = sorted(t.task_id for p in packed for t in p.tasks)
        assert assigned == sorted(t.task_id for t in tasks)
        for p in packed:
            assert tasks_fit_on_type(p.tasks, p.instance_type)
            bound = ev.for_family(p.instance_type.family)
            assert bound.set_value(list(p.tasks)) >= p.hourly_cost - 1e-6

    def test_unit_speeds_match_homogeneous_cost(self, catalog):
        """With unit speeds the heterogeneous evaluator packs exactly as
        homogeneous TNRP: same types, same task sets, same order."""

        def layout(packed):
            return [
                (p.instance_type.name, tuple(t.task_id for t in p.tasks))
                for p in packed
            ]

        for default_tput in (1.0, 0.95, 0.8):
            for num_tasks, seed in ((10, 3), (40, 3), (40, 4), (120, 5)):
                tasks = microbench_task_pool(num_tasks, seed=seed)
                het_ev = HeterogeneousEvaluator(
                    calculator=HeterogeneousRPCalculator(catalog),
                    table=CoLocationThroughputTable(default_tput=default_tput),
                    jobs={},
                )
                hom_ev = TNRPEvaluator(
                    ReservationPriceCalculator(catalog),
                    CoLocationThroughputTable(default_tput=default_tput),
                    jobs={},
                )
                assert layout(full_reconfiguration(tasks, catalog, het_ev)) == (
                    layout(full_reconfiguration(tasks, catalog, hom_ev))
                )

    def test_task_no_type_fits_is_infeasible(self, catalog):
        """A task no instance type can host fails as it does under the
        homogeneous evaluators, naming the infeasibility."""
        task = make_job(
            "W", {"*": ResourceVector(64, 8, 8)}, 1.0, job_id="huge"
        ).tasks[0]
        with pytest.raises(InfeasibleTaskError):
            full_reconfiguration([task], catalog, self._evaluator(catalog))

    def test_partial_keeps_the_instance_full_would_place(self, catalog):
        """Partial Reconfiguration values a survivor on its own family:
        an instance Algorithm 1 would pick is kept, not drained."""
        task = _cpu_task()
        ev = self._evaluator(
            catalog, FamilySpeedProfile(speeds={"W": {"c7i": 2.0}})
        )
        (placed,) = full_reconfiguration([task], catalog, ev)
        assert placed.instance_type.name == "c7i.xlarge"
        result = partial_reconfiguration(
            [(placed.instance, [task])], [], catalog, ev
        )
        assert result.drained_instance_ids == frozenset()
        assert result.repacked_task_ids == frozenset()
        assert [(p.instance, p.tasks) for p in result.configuration] == [
            (placed.instance, (task,))
        ]

    def test_speedy_family_attracts_tasks(self, catalog):
        """Tasks that run 3x faster on R7i should land on R7i."""
        profile = FamilySpeedProfile(speeds={"W": {"r7i": 3.0}})
        tasks = [
            make_job(
                "W", {"*": ResourceVector(0, 4, 8)}, 1.0, job_id=f"s{i}"
            ).tasks[0]
            for i in range(4)
        ]
        packed = full_reconfiguration(
            tasks, catalog, self._evaluator(catalog, profile)
        )
        for p in packed:
            assert p.instance_type.family == "r7i"

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=1000))
    def test_property_all_assigned(self, n, seed):
        catalog = ec2_catalog()
        tasks = microbench_task_pool(n, seed=seed)
        packed = full_reconfiguration(tasks, catalog, self._evaluator(catalog))
        assert sum(len(p.tasks) for p in packed) == n


_FAMILIES = ("c7i", "r7i", "p3")


class TestPlaceability:
    """A task alone on its efficiency type is worth that type's cost, so
    Algorithm 1 places every task, multi-task jobs on slow families
    included."""

    @staticmethod
    def _pack(catalog, jobs, speeds):
        ev = HeterogeneousEvaluator(
            calculator=HeterogeneousRPCalculator(catalog, FamilySpeedProfile(speeds)),
            table=CoLocationThroughputTable(),
            jobs={job.job_id: job for job in jobs},
        )
        tasks = [t for job in jobs for t in job.tasks]
        packed = full_reconfiguration(tasks, catalog, ev)
        assert sorted(t.task_id for p in packed for t in p.tasks) == sorted(
            t.task_id for t in tasks
        )
        return packed

    def test_multi_task_job_on_a_slow_efficiency_family_packs(self, catalog):
        # RP_het is 0.1191 on c7i.large (speed 0.75); charging the §4.4
        # degradation on speed · tput left each task worth half that.
        job = make_job(
            "W", {"*": ResourceVector(0, 2, 4)}, 1.0, num_tasks=2, job_id="probe"
        )
        packed = self._pack(catalog, [job], {"W": {"c7i": 0.75}})
        assert [p.instance_type.name for p in packed] == ["c7i.large", "c7i.large"]

    @settings(max_examples=60, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(
                st.sampled_from(["W", "X", "Y"]),
                st.sampled_from(
                    [
                        ResourceVector(0, 2, 4),
                        ResourceVector(0, 4, 8),
                        ResourceVector(0, 8, 30),
                        ResourceVector(1, 4, 16),
                    ]
                ),
                st.sampled_from([1, 2, 4]),
            ),
            min_size=1,
            max_size=4,
        ),
        speeds=st.dictionaries(
            st.tuples(st.sampled_from(["W", "X", "Y"]), st.sampled_from(_FAMILIES)),
            st.floats(min_value=0.25, max_value=3.0),
            max_size=9,
        ),
    )
    def test_every_task_packs(self, jobs, speeds):
        profile = {}
        for (workload, family), speed in speeds.items():
            profile.setdefault(workload, {})[family] = speed
        made = [
            make_job(w, {"*": demand}, 1.0, num_tasks=arity, job_id=f"j{i}")
            for i, (w, demand, arity) in enumerate(jobs)
        ]
        self._pack(ec2_catalog(), made, profile)
