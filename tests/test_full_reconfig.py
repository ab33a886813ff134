"""Unit and property tests for Full Reconfiguration (Algorithm 1, §4.2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.catalog import ec2_catalog
from repro.cluster.instance import fresh_instance
from repro.cluster.resources import ResourceVector
from repro.cluster.state import tasks_fit_on_type
from repro.cluster.task import make_job
from repro.core import full_reconfig
from repro.core.evaluation import RPEvaluator, TNRPEvaluator
from repro.core.full_reconfig import (
    PackedInstance,
    _ArgmaxScan,
    _pack_one_instance,
    _TaskPool,
    configuration_cost,
    full_reconfiguration,
    match_existing_instances,
)
from repro.core.heterogeneous import (
    FamilySpeedProfile,
    HeterogeneousEvaluator,
    HeterogeneousRPCalculator,
)
from repro.core.partial_reconfig import _fill_survivor, partial_reconfiguration
from repro.core.reservation_price import ReservationPriceCalculator
from repro.core.throughput_table import (
    CoLocationThroughputTable,
    TaskPlacementObservation,
)
from repro.workloads.synthetic import microbench_task_pool


class TestPaperWalkthrough:
    """The §4.2 worked example, step by step."""

    def test_exact_configuration(self, example_catalog, example_tasks):
        calc = ReservationPriceCalculator(example_catalog)
        packed = full_reconfiguration(
            example_tasks, example_catalog, RPEvaluator(calc)
        )
        by_type = {}
        for p in packed:
            by_type.setdefault(p.instance_type.name, []).append(
                sorted(t.job_id for t in p.tasks)
            )
        # tau1, tau2, tau4 share an it1 instance; tau3 lands alone on it3.
        assert by_type == {"it1": [["tau1", "tau2", "tau4"]], "it3": [["tau3"]]}
        assert configuration_cost(packed) == pytest.approx(12.8)

    def test_cheaper_than_no_packing(self, example_catalog, example_tasks):
        calc = ReservationPriceCalculator(example_catalog)
        packed = full_reconfiguration(
            example_tasks, example_catalog, RPEvaluator(calc)
        )
        assert configuration_cost(packed) < calc.rp_of_set(example_tasks)

    def test_interference_changes_decision(self, example_catalog, example_tasks):
        """§4.3: tau1/tau2 at 0.7/0.8 make the shared it1 inefficient."""
        calc = ReservationPriceCalculator(example_catalog)
        table = CoLocationThroughputTable(default_tput=1.0)
        table.observe_single_task_job(
            TaskPlacementObservation("w1", ("w2",)), 0.7
        )
        table.observe_single_task_job(
            TaskPlacementObservation("w2", ("w1",)), 0.8
        )
        ev = TNRPEvaluator(calc, table, jobs={}, multi_task_aware=False)
        packed = full_reconfiguration(
            example_tasks[:2], example_catalog, ev
        )
        placements = {
            frozenset(t.job_id for t in p.tasks) for p in packed
        }
        # tau1 and tau2 must not share an instance.
        assert frozenset({"tau1", "tau2"}) not in placements


def _invariants(tasks, catalog, packed, evaluator):
    # Every task assigned exactly once.
    assigned = [t.task_id for p in packed for t in p.tasks]
    assert sorted(assigned) == sorted(t.task_id for t in tasks)
    for p in packed:
        # Resource-feasible.
        assert tasks_fit_on_type(p.tasks, p.instance_type)
        # Cost-efficient (the line 14 criterion).
        assert evaluator.set_value(list(p.tasks)) >= p.hourly_cost - 1e-6


class TestInvariants:
    def test_random_pool_rp(self):
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        ev = RPEvaluator(calc)
        tasks = microbench_task_pool(120, seed=3)
        packed = full_reconfiguration(tasks, catalog, ev)
        _invariants(tasks, catalog, packed, ev)
        assert configuration_cost(packed) <= calc.rp_of_set(tasks) + 1e-9

    def test_random_pool_tnrp(self):
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        table = CoLocationThroughputTable(default_tput=0.95)
        ev = TNRPEvaluator(calc, table, jobs={}, multi_task_aware=False)
        tasks = microbench_task_pool(120, seed=4)
        packed = full_reconfiguration(tasks, catalog, ev)
        _invariants(tasks, catalog, packed, ev)

    def test_tnrp_with_no_interference_matches_rp(self):
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        tasks = microbench_task_pool(80, seed=5)
        rp_packed = full_reconfiguration(tasks, catalog, RPEvaluator(calc))
        tnrp_packed = full_reconfiguration(
            tasks,
            catalog,
            TNRPEvaluator(
                calc, CoLocationThroughputTable(default_tput=1.0), jobs={}
            ),
        )
        assert configuration_cost(rp_packed) == pytest.approx(
            configuration_cost(tnrp_packed)
        )

    def test_faithful_scan_invariants(self):
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        ev = RPEvaluator(calc)
        tasks = microbench_task_pool(60, seed=6)
        packed = full_reconfiguration(
            tasks, catalog, ev, group_identical=False
        )
        _invariants(tasks, catalog, packed, ev)

    def test_empty_task_set(self):
        catalog = ec2_catalog()
        ev = RPEvaluator(ReservationPriceCalculator(catalog))
        assert full_reconfiguration([], catalog, ev) == []

    def test_deterministic(self):
        catalog = ec2_catalog()
        ev = RPEvaluator(ReservationPriceCalculator(catalog))
        tasks = microbench_task_pool(60, seed=7)
        a = full_reconfiguration(tasks, catalog, ev)
        b = full_reconfiguration(tasks, catalog, ev)
        assert [
            (p.instance_type.name, sorted(t.task_id for t in p.tasks)) for p in a
        ] == [
            (p.instance_type.name, sorted(t.task_id for t in p.tasks)) for p in b
        ]

    def test_severe_interference_reduces_to_no_packing(self):
        """§6.4: when packing anything is sub-optimal, Eva stops packing."""
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        table = CoLocationThroughputTable(default_tput=0.01)
        ev = TNRPEvaluator(calc, table, jobs={})
        tasks = microbench_task_pool(30, seed=8)
        packed = full_reconfiguration(tasks, catalog, ev)
        assert all(len(p.tasks) == 1 for p in packed)
        assert configuration_cost(packed) == pytest.approx(calc.rp_of_set(tasks))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10_000))
    def test_property_invariants(self, n, seed):
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        ev = RPEvaluator(calc)
        tasks = microbench_task_pool(n, seed=seed)
        packed = full_reconfiguration(tasks, catalog, ev)
        _invariants(tasks, catalog, packed, ev)
        assert configuration_cost(packed) <= calc.rp_of_set(tasks) + 1e-9


class TestGuard:
    def test_line_9_11_guard_stops_value_decrease(self, example_catalog):
        """Adding a task that lowers TNRP must stop the inner loop."""
        calc = ReservationPriceCalculator(example_catalog)
        table = CoLocationThroughputTable(default_tput=0.4)
        ev = TNRPEvaluator(calc, table, jobs={})
        jobs = [
            make_job("a", {"*": ResourceVector(0, 2, 4)}, 1.0, job_id=f"g{i}")
            for i in range(6)
        ]
        tasks = [j.tasks[0] for j in jobs]
        packed = full_reconfiguration(tasks, example_catalog, ev)
        for p in packed:
            # With t=0.4 a second co-located task would reduce the value:
            # 2 * 0.4 * rp < 1 * rp.
            assert len(p.tasks) == 1


class TestMatchExisting:
    def test_reuses_matching_type_with_best_overlap(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        ev = RPEvaluator(calc)
        jobs = [
            make_job("w", {"*": ResourceVector(2, 8, 24)}, 1.0, job_id=f"m{i}")
            for i in range(2)
        ]
        tasks = [j.tasks[0] for j in jobs]
        packed = full_reconfiguration(tasks, example_catalog, ev)
        from repro.cluster.instance import fresh_instance

        live = fresh_instance(packed[0].instance_type)
        relabelled = match_existing_instances(
            packed, [(live, frozenset({tasks[0].task_id}))]
        )
        reused = [p for p in relabelled if p.instance.instance_id == live.instance_id]
        assert len(reused) == 1
        assert tasks[0].task_id in reused[0].task_ids()

    def test_no_reuse_across_types(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        ev = RPEvaluator(calc)
        job = make_job("w", {"*": ResourceVector(0, 4, 12)}, 1.0, job_id="x")
        packed = full_reconfiguration(list(job.tasks), example_catalog, ev)
        from repro.cluster.instance import fresh_instance

        gpu_live = fresh_instance(example_catalog[0])  # it1, different type
        relabelled = match_existing_instances(packed, [(gpu_live, frozenset())])
        assert all(
            p.instance.instance_id != gpu_live.instance_id for p in relabelled
        )

    def test_summary(self, example_catalog, example_tasks):
        # Relabelling onto a live instance keeps the configuration: two
        # instances, all four tasks, 12.8 $/h.
        calc = ReservationPriceCalculator(example_catalog)
        packed = full_reconfiguration(
            example_tasks, example_catalog, RPEvaluator(calc)
        )
        from repro.cluster.instance import fresh_instance

        live = fresh_instance(example_catalog[0])
        relabelled = match_existing_instances(
            packed, [(live, frozenset({example_tasks[0].task_id}))]
        )
        assert len(relabelled) == 2
        assert sorted(tid for p in relabelled for tid in p.task_ids()) == sorted(
            t.task_id for t in example_tasks
        )
        assert configuration_cost(relabelled) == pytest.approx(12.8)
        assert live.instance_id in {p.instance.instance_id for p in relabelled}


class TestTaskPool:
    """Ordering contract of the packer's grouped task pool."""

    @staticmethod
    def _make_tasks(example_catalog):
        # Two interchangeable groups: three 'a' tasks and two 'b' tasks.
        tasks = []
        for i in range(3):
            job = make_job(
                "a", {"*": ResourceVector(0, 4, 12)}, 1.0, job_id=f"a{i}"
            )
            tasks.extend(job.tasks)
        for i in range(2):
            job = make_job(
                "b", {"*": ResourceVector(0, 6, 20)}, 1.0, job_id=f"b{i}"
            )
            tasks.extend(job.tasks)
        return tasks

    @staticmethod
    def _pool(tasks, example_catalog, group_identical=True):
        calc = ReservationPriceCalculator(example_catalog)
        return _TaskPool(tasks, RPEvaluator(calc), group_identical)

    def test_representatives_are_sorted_by_group_and_lowest_id_first(
        self, example_catalog
    ):
        tasks = self._make_tasks(example_catalog)
        pool = self._pool(tasks, example_catalog)
        reps = pool.representatives()
        assert len(reps) == 2
        # Group keys sort 'a' before 'b'; the representative is the
        # lowest task id of its group (stacks are pushed in descending
        # id order, so the top is the smallest).
        assert [r.workload for r in reps] == ["a", "b"]
        assert reps[0].task_id == min(
            t.task_id for t in tasks if t.workload == "a"
        )

    def test_pop_removes_only_the_representative(self, example_catalog):
        tasks = self._make_tasks(example_catalog)
        pool = self._pool(tasks, example_catalog)
        rep = pool.representatives()[0]
        popped = pool.pop(rep)
        assert popped is rep
        assert len(pool) == len(tasks) - 1
        # Popping a task that is not currently on top is rejected (the
        # stack top is the smallest remaining id, so the largest is not).
        bottom = max(
            (t for t in tasks if t.workload == "a"), key=lambda t: t.task_id
        )
        with pytest.raises(KeyError):
            pool.pop(bottom)

    def test_push_back_restores_group_order_and_stack_position(
        self, example_catalog
    ):
        tasks = self._make_tasks(example_catalog)
        pool = self._pool(tasks, example_catalog)
        # Drain group 'a' entirely, then push its tasks back.
        popped = []
        while pool.representatives()[0].workload == "a":
            popped.append(pool.pop(pool.representatives()[0]))
        assert [r.workload for r in pool.representatives()] == ["b"]
        pool.push_back(popped)
        reps = pool.representatives()
        assert [r.workload for r in reps] == ["a", "b"]
        # Stacks are LIFO: the last pushed-back task is the new top.
        assert reps[0] is popped[-1]
        assert len(pool) == len(tasks)

    def test_drain_matches_repeated_first_representative_pops(
        self, example_catalog
    ):
        tasks = self._make_tasks(example_catalog)
        reference = self._pool(tasks, example_catalog)
        expected = []
        while not reference.is_empty():
            expected.append(reference.pop(reference.representatives()[0]))
        drained = self._pool(tasks, example_catalog).drain()
        assert [t.task_id for t in drained] == [t.task_id for t in expected]

    def test_ungrouped_pool_has_one_bucket_per_task(self, example_catalog):
        tasks = self._make_tasks(example_catalog)
        pool = self._pool(tasks, example_catalog, group_identical=False)
        reps = pool.representatives()
        assert len(reps) == len(tasks)
        assert [r.task_id for r in reps] == sorted(t.task_id for t in tasks)

    def test_fingerprint_captures_stack_order(self, example_catalog):
        tasks = self._make_tasks(example_catalog)
        pool = self._pool(tasks, example_catalog)
        fp1 = pool.fingerprint()
        assert fp1 == self._pool(tasks, example_catalog).fingerprint()
        rep = pool.representatives()[0]
        pool.pop(rep)
        assert pool.fingerprint() != fp1
        pool.push_back([rep])
        assert pool.fingerprint() == fp1


def _single(workload, demand, job_id):
    return make_job(workload, {"*": demand}, 1.0, job_id=job_id).tasks[0]


class _ReferenceScan:
    """Cache-free Algorithm 1 line 8 with ``_ArgmaxScan``'s interface.

    Remaining capacity is a ``ResourceVector`` and every term of the
    ``(value, RP, task_id)`` rank is recomputed on every call, from the
    state's evaluator; the group rows go unread.
    """

    def __init__(self, pool, rows, capacity, family):
        self._pool = pool
        self._family = family
        self._remaining = capacity

    def charge(self, task):
        self._remaining = self._remaining - task.demand_for(self._family)

    def fits_any(self):
        return any(
            t.demand_for(self._family).fits_within(self._remaining)
            for t in self._pool.representatives()
        )

    def best(self, state):
        feasible = [
            t
            for t in self._pool.representatives()
            if t.demand_for(self._family).fits_within(self._remaining)
        ]
        if not feasible:
            return None, -float("inf")
        best = max(
            feasible,
            key=lambda t: (
                state.value_with(t),
                state.evaluator.task_rp(t),
                t.task_id,
            ),
        )
        return best, state.value_with(best)


def use_reference_scan(monkeypatch):
    """Make Algorithm 1's one scan call site build ``_ReferenceScan``.

    Returns a list that gains one entry per scan built from then on.
    """
    built = []

    def make(pool, rows, capacity, family):
        built.append(family)
        return _ReferenceScan(pool, rows, capacity, family)

    monkeypatch.setattr(full_reconfig, "_ArgmaxScan", make)
    return built


def _scan_picks(tasks, evaluator, itype, members=()):
    """Drive ``_ArgmaxScan`` through Algorithm 1's greedy loop, requiring
    the reference pick and value at every step; return the picked task
    ids.

    ``members`` pre-charge the instance as ``_pack_one_instance``'s
    ``resident`` tasks do: they seed the state and use capacity but are
    not in the pool.
    """
    pool = _TaskPool(tasks, evaluator, True)
    state = evaluator.make_state(members)
    rows = pool.group_rows(itype, evaluator)
    scan = _ArgmaxScan(pool, rows, itype.capacity, itype.family)
    reference = _ReferenceScan(pool, rows, itype.capacity, itype.family)
    for task in members:
        scan.charge(task)
        reference.charge(task)
    picks = []
    while True:
        task, value = scan.best(state)
        expected, expected_value = reference.best(state)
        assert task is expected
        assert value == expected_value
        if task is None or value < state.value - 1e-9:
            return picks
        pool.pop(task)
        state.add(task)
        scan.charge(task)
        reference.charge(task)
        picks.append(task.task_id)


def _evaluator(kind, calc, table, jobs, urgency):
    if kind == "rp":
        return RPEvaluator(calc)
    if kind.startswith("tnrp"):
        return TNRPEvaluator(calc, table, jobs=jobs)
    return TNRPEvaluator(calc, table, jobs=jobs, urgency=urgency)


_WORKLOADS = st.sampled_from(["wa", "wb", "wc", "wd"])
_DEMANDS = st.sampled_from(
    [
        ResourceVector(0, 2, 4),
        ResourceVector(0, 4, 8),
        ResourceVector(0, 8, 32),
        ResourceVector(1, 4, 16),
        ResourceVector(1, 8, 61),
        ResourceVector(4, 16, 122),
    ]
)


class TestArgmaxScan:
    """Algorithm 1's inner argmax against a cache-free reference.

    ``_ArgmaxScan`` reads demands, RPs and value caps from the type
    visit's group rows, ranks an empty instance's first pick on the caps
    alone, memoizes the delta-stable increment per group, and tracks
    remaining capacity as three clamped scalars; none of that may change
    a pick, a value or a tie-break.
    """

    def test_equal_value_equal_rp_highest_task_id_wins(self):
        # Distinct workloads make distinct groups; one demand gives one
        # RP and, under plain RP, one value.
        catalog = ec2_catalog()
        demand = ResourceVector(0, 4, 8)
        tasks = [_single(f"w{i}", demand, f"job{i}") for i in range(8)]
        ev = RPEvaluator(ReservationPriceCalculator(catalog))
        itype = max(catalog, key=lambda it: it.capacity.cpus)
        picks = _scan_picks(tasks, ev, itype)
        assert picks == sorted((t.task_id for t in tasks), reverse=True)

    def test_tied_value_higher_rp_wins(self):
        # A and B tie on TNRP next to member M while RP(A) > RP(B): A is
        # a GPU task at throughput RP(B)/RP(A) (single-task TNRP is
        # tput·RP), B runs unimpeded, and M is unaffected by either.
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        member = _single("wm", ResourceVector(0, 1, 2), "jm")
        cand_a = _single("wa", ResourceVector(1, 4, 16), "ja")
        cand_b = _single("wb", ResourceVector(0, 2, 4), "jb")
        ratio = calc.rp(cand_b) / calc.rp(cand_a)
        assert 0.0 < ratio < 1.0
        table = CoLocationThroughputTable(default_tput=1.0)
        table.observe_single_task_job(
            TaskPlacementObservation("wa", ("wm",)), ratio
        )
        table.observe_single_task_job(
            TaskPlacementObservation("wm", ("wa",)), 1.0
        )
        table.observe_single_task_job(
            TaskPlacementObservation("wm", ("wb",)), 1.0
        )
        ev = TNRPEvaluator(calc, table, jobs={})
        state = ev.make_state([member])
        assert state.value_with(cand_a) == state.value_with(cand_b)
        itype = max(
            catalog, key=lambda it: (it.capacity.gpus, it.capacity.ram_gb)
        )
        picks = _scan_picks([cand_a, cand_b], ev, itype, members=[member])
        assert picks[0] == cand_a.task_id

    def test_exact_path_tie_breaks_on_value_rp_task_id(self):
        # An exact entry for a three-task set overrides the pairwise
        # product.  Next to members {w1, w2} it values A (w0) at
        # RP(B)/RP(A) throughput, so A, B and C tie on value and A wins
        # on RP; once A joins, B and C tie on value and RP, and the
        # higher task id (C) wins.
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        members = [
            _single("w1", ResourceVector(0, 1, 2), "jm1"),
            _single("w2", ResourceVector(0, 1, 2), "jm2"),
        ]
        cand_a = _single("w0", ResourceVector(1, 4, 16), "ja")
        cand_b = _single("w3", ResourceVector(0, 2, 4), "jb")
        cand_c = _single("w4", ResourceVector(0, 2, 4), "jc")
        ratio = calc.rp(cand_b) / calc.rp(cand_a)
        table = CoLocationThroughputTable(default_tput=1.0)
        table.sync({("w0", ("w1", "w2")): ratio})
        ev = TNRPEvaluator(calc, table, jobs={})
        state = ev.make_state(members)
        values = {state.value_with(t) for t in (cand_a, cand_b, cand_c)}
        assert len(values) == 1
        itype = max(
            catalog, key=lambda it: (it.capacity.gpus, it.capacity.ram_gb)
        )
        picks = _scan_picks(
            [cand_a, cand_b, cand_c], ev, itype, members=members
        )
        assert picks == [cand_a.task_id, cand_c.task_id, cand_b.task_id]

    @pytest.mark.parametrize("start", ["fresh", "precharged"])
    @pytest.mark.parametrize(
        "kind", ["rp", "tnrp-pairwise", "tnrp-exact", "deadline", "heterogeneous"]
    )
    @settings(max_examples=30, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(
                _WORKLOADS,
                _DEMANDS,
                st.integers(min_value=1, max_value=3),  # arity (§4.4)
                st.sampled_from([1.0, 2.5, 4.0]),  # deadline urgency
            ),
            min_size=1,
            max_size=10,
        ),
        pairs=st.lists(
            st.tuples(
                _WORKLOADS, _WORKLOADS, st.sampled_from([0.25, 0.5, 0.75, 0.9])
            ),
            max_size=6,
        ),
        deadline_exact=st.booleans(),
        num_members=st.integers(min_value=1, max_value=2),
    )
    def test_every_step_matches_brute_force(
        self, kind, start, jobs, pairs, deadline_exact, num_members
    ):
        table = CoLocationThroughputTable()
        for a, b, tput in pairs:
            if a != b:
                table.observe_single_task_job(
                    TaskPlacementObservation(a, (b,)), tput
                )
        if kind == "tnrp-exact" or (kind == "deadline" and deadline_exact):
            # A three-task entry overrides the pairwise product (§4.3).
            table.sync({("wa", ("wb", "wc")): 0.5})
        mapping, urgency, tasks = {}, {}, []
        for i, (workload, demand, arity, u) in enumerate(jobs):
            job = make_job(
                workload, {"*": demand}, 1.0, num_tasks=arity, job_id=f"j{i}"
            )
            mapping[job.job_id] = job
            urgency[job.job_id] = u
            tasks.extend(job.tasks)
        catalog = ec2_catalog()
        itype = max(catalog, key=lambda it: it.capacity.gpus)
        if kind == "heterogeneous":
            # Speeds away from 1 part a task's value cap from its RP, which
            # the first pick of an empty instance ranks on.
            speeds = {"wa": 2.0, "wb": 0.5, "wc": 1.5}
            ev = HeterogeneousEvaluator(
                calculator=HeterogeneousRPCalculator(
                    catalog,
                    FamilySpeedProfile(
                        {w: {itype.family: v} for w, v in speeds.items()}
                    ),
                ),
                table=table,
                jobs=mapping,
            ).for_type(itype)
        else:
            ev = _evaluator(
                kind, ReservationPriceCalculator(catalog), table, mapping, urgency
            )
        members = tasks[:num_members] if start == "precharged" else []
        _scan_picks(tasks[len(members):], ev, itype, members=members)


def _microbench_setup(num_tasks, seed):
    """A Table-7 task bag, a throughput table over some of its workloads,
    and an urgency map over its jobs."""
    tasks = microbench_task_pool(num_tasks, seed=seed)
    table = CoLocationThroughputTable(default_tput=1.0)
    for workload, other, tput in (
        ("ViT", "GCN", 0.8),
        ("A3C", "Diamond", 0.6),
        ("GPT2", "GraphSAGE", 0.5),
        ("CycleGAN", "ResNet18-2", 0.9),
    ):
        table.observe_single_task_job(
            TaskPlacementObservation(workload, (other,)), tput
        )
    urgency = {t.job_id: (1.0, 2.5, 4.0)[i % 3] for i, t in enumerate(tasks)}
    return tasks, table, urgency


def _layout(packed):
    return [
        (p.instance_type.name, tuple(t.task_id for t in p.tasks))
        for p in packed
    ]


class TestAlgorithmOneAgainstReference:
    """Whole packings with ``_ArgmaxScan`` swapped for the cache-free
    ``_ReferenceScan`` at its one call site: the same tasks, in the same
    order, at the same value."""

    @pytest.mark.parametrize("kind", ["rp", "tnrp", "deadline"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_pack_one_instance_matches_reference(self, kind, seed):
        tasks, table, urgency = _microbench_setup(12, seed)
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        itype = max(catalog, key=lambda it: it.capacity.gpus)
        outcomes = []
        for reference in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                built = use_reference_scan(mp) if reference else []
                ev = _evaluator(kind, calc, table, {}, urgency)
                pool = _TaskPool(tasks, ev, True)
                rows = pool.group_rows(itype, ev)
                chosen, value = _pack_one_instance(itype, pool, ev, rows)
            assert len(built) == int(reference)
            left = [t.task_id for t in pool.representatives()]
            outcomes.append(([t.task_id for t in chosen], value, left))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("kind", ["rp", "tnrp", "deadline"])
    def test_full_reconfiguration_matches_reference(self, kind, monkeypatch):
        tasks, table, urgency = _microbench_setup(40, 7)
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        layouts = []
        for reference in (False, True):
            built = use_reference_scan(monkeypatch) if reference else []
            ev = _evaluator(kind, calc, table, {}, urgency)
            packed = full_reconfiguration(tasks, catalog, ev)
            assert bool(built) == reference
            layouts.append(_layout(packed))
        assert layouts[0] == layouts[1]
        assert any(len(ids) > 1 for _, ids in layouts[0])

    @pytest.mark.parametrize("kind", ["rp", "tnrp", "deadline"])
    def test_partial_reconfiguration_matches_reference(
        self, kind, monkeypatch
    ):
        # Residents packed on their own leave spare capacity that
        # ``_fill_survivor`` offers to the newcomers.
        tasks, table, urgency = _microbench_setup(40, 11)
        residents, newcomers = tasks[:28], tasks[28:]
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        current = [
            (p.instance, p.tasks)
            for p in full_reconfiguration(residents, catalog, RPEvaluator(calc))
        ]
        sizes = {inst.instance_id: len(ts) for inst, ts in current}
        outcomes = []
        for reference in (False, True):
            built = use_reference_scan(monkeypatch) if reference else []
            ev = _evaluator(kind, calc, table, {}, urgency)
            result = partial_reconfiguration(current, newcomers, catalog, ev)
            assert bool(built) == reference
            filled = sorted(
                p.instance.instance_id
                for p in result.configuration
                if p.instance.instance_id in sizes
                and p.instance.instance_id not in result.drained_instance_ids
                and len(p.tasks) > sizes[p.instance.instance_id]
            )
            outcomes.append(
                (
                    _layout(result.configuration),
                    filled,
                    result.repacked_task_ids,
                    result.drained_instance_ids,
                )
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1]  # some survivor took newcomers


def never_skip(monkeypatch):
    """Make ``_TaskPool.value_ceiling`` rule no attempt out, and record
    each attempt Algorithm 1 then makes with the ceiling the pool had
    just before it.

    Returns a list that gains one ``(value, ceiling)`` pair per attempt.
    """
    ceiling_of = _TaskPool.value_ceiling
    pack = _pack_one_instance
    attempts = []

    def recorded(itype, pool, evaluator, rows, resident=()):
        ceiling = ceiling_of(pool, itype, rows)
        chosen, value = pack(itype, pool, evaluator, rows, resident)
        attempts.append((value, ceiling))
        return chosen, value

    monkeypatch.setattr(
        _TaskPool, "value_ceiling", lambda self, itype, rows: math.inf
    )
    monkeypatch.setattr(full_reconfig, "_pack_one_instance", recorded)
    return attempts


def count_attempts(monkeypatch):
    """Returns a list that gains one entry per pack attempt."""
    pack = _pack_one_instance
    attempts = []

    def counted(itype, pool, evaluator, rows, resident=()):
        attempts.append(itype.name)
        return pack(itype, pool, evaluator, rows, resident)

    monkeypatch.setattr(full_reconfig, "_pack_one_instance", counted)
    return attempts


_SPEEDS = st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0, 3.0])


class TestCeilingSkip:
    """Algorithm 1 skips the attempts ``_TaskPool.value_ceiling`` proves
    it would reject; the packing must equal the one that makes them."""

    @pytest.mark.parametrize("cost_margin", [0.0, 0.3])
    @pytest.mark.parametrize(
        "kind", ["rp", "tnrp", "tnrp-single", "deadline", "heterogeneous"]
    )
    @settings(max_examples=40, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(
                _WORKLOADS,
                _DEMANDS,
                st.integers(min_value=1, max_value=3),  # arity (§4.4)
                st.sampled_from([1.0, 2.5, 4.0]),  # deadline urgency
            ),
            min_size=1,
            max_size=12,
        ),
        pairs=st.lists(
            st.tuples(
                _WORKLOADS, _WORKLOADS, st.sampled_from([0.25, 0.5, 0.75, 0.9])
            ),
            max_size=6,
        ),
        speeds=st.dictionaries(
            st.tuples(_WORKLOADS, st.sampled_from(["c7i", "r7i", "p3"])),
            _SPEEDS,
            max_size=8,
        ),
    )
    def test_skip_is_exact_and_bound_admissible(
        self, kind, cost_margin, jobs, pairs, speeds
    ):
        table = CoLocationThroughputTable()
        for a, b, tput in pairs:
            if a != b:
                table.observe_single_task_job(
                    TaskPlacementObservation(a, (b,)), tput
                )
        mapping, urgency, tasks = {}, {}, []
        for i, (workload, demand, arity, u) in enumerate(jobs):
            job = make_job(
                workload, {"*": demand}, 1.0, num_tasks=arity, job_id=f"j{i}"
            )
            mapping[job.job_id] = job
            urgency[job.job_id] = u
            tasks.extend(job.tasks)
        catalog = ec2_catalog()
        profile = FamilySpeedProfile(
            speeds={
                workload: {f: v for (w, f), v in speeds.items() if w == workload}
                for workload, _ in speeds
            }
        )

        def make_evaluator():
            calc = ReservationPriceCalculator(catalog)
            if kind == "heterogeneous":
                return HeterogeneousEvaluator(
                    calculator=HeterogeneousRPCalculator(catalog, profile),
                    table=table,
                    jobs=mapping,
                )
            if kind == "tnrp-single":
                return TNRPEvaluator(
                    calc, table, jobs=mapping, multi_task_aware=False
                )
            return _evaluator(kind, calc, table, mapping, urgency)

        outcomes = []
        for skip in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                attempts = [] if skip else never_skip(mp)
                outcomes.append(
                    _layout(
                        full_reconfiguration(
                            tasks,
                            catalog,
                            make_evaluator(),
                            cost_margin=cost_margin,
                        )
                    )
                )
            for value, ceiling in attempts:
                assert value <= ceiling + 1e-9
        assert outcomes[0] == outcomes[1]

    def test_skip_drops_attempts(self, monkeypatch):
        tasks, table, _ = _microbench_setup(40, 7)
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        runs = []
        for skip in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                attempts = count_attempts(mp) if skip else never_skip(mp)
                packed = full_reconfiguration(
                    tasks, catalog, TNRPEvaluator(calc, table, jobs={})
                )
            runs.append((_layout(packed), len(attempts)))
        (with_skip, made), (without_skip, all_attempts) = runs
        assert with_skip == without_skip
        assert made < all_attempts

    def test_margin_path_spends_only_the_anchor(self):
        # Each of three tasks costs exactly c7i.2xlarge alone; with the
        # small task beside it the set misses the 30% margin, so each
        # attempt places its anchor alone and pushes the small task
        # back.  The ceiling must keep the small task's cap: spending it
        # on every margin path would rule out the third anchor.
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        anchors = [_single("wa", ResourceVector(0, 6, 12), f"a{i}") for i in range(3)]
        small = _single("wb", ResourceVector(0, 2, 4), "b")
        layouts = []
        for skip in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                if not skip:
                    never_skip(mp)
                packed = full_reconfiguration(
                    [*anchors, small], catalog, RPEvaluator(calc), cost_margin=0.3
                )
            layouts.append(_layout(packed))
        assert layouts[0] == layouts[1]
        assert [name for name, _ in layouts[0]].count("c7i.2xlarge") == 3

    def test_guard_declines_where_a_rejected_attempt_rotates_a_group(self):
        # Two interchangeable tasks fit the priciest type twice over but
        # are worth far less than it: the attempt picks their group
        # twice and is rejected, and pushing them back swaps the group's
        # top tasks, which later picks would see.
        catalog = ec2_catalog()
        ev = RPEvaluator(ReservationPriceCalculator(catalog))
        tasks = [_single("wa", ResourceVector(0, 2, 4), f"j{i}") for i in range(2)]
        priciest = max(catalog, key=lambda it: it.hourly_cost)
        pool = _TaskPool(tasks, ev, True)
        assert len(pool.representatives()) == 1
        rows = pool.group_rows(priciest, ev)
        assert pool.value_ceiling(priciest, rows) == math.inf
        before = pool.fingerprint()
        chosen, value = _pack_one_instance(priciest, pool, ev, rows)
        assert len(chosen) == 2 and value < priciest.hourly_cost
        pool.push_back(chosen)
        assert pool.fingerprint() != before
        # Where the group fits only once, the ceiling is the RP sum.
        smallest = min(catalog, key=lambda it: it.hourly_cost)
        rows = pool.group_rows(smallest, ev)
        assert pool.value_ceiling(smallest, rows) == 2 * ev.task_rp(tasks[0])


class TestSurvivorFillSkip:
    """A survivor fill whose residents leave room for no pool task stops
    before it builds their pack state; the packing must equal the one
    that builds it."""

    @pytest.mark.parametrize("kind", ["rp", "tnrp", "deadline"])
    @settings(max_examples=120, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(
                _WORKLOADS,
                _DEMANDS,
                st.integers(min_value=1, max_value=3),  # arity (§4.4)
                st.sampled_from([1.0, 2.5, 4.0]),  # deadline urgency
            ),
            min_size=2,
            max_size=12,
        ),
        pairs=st.lists(
            st.tuples(
                _WORKLOADS, _WORKLOADS, st.sampled_from([0.25, 0.5, 0.75, 0.9])
            ),
            max_size=6,
        ),
        split=st.integers(min_value=1, max_value=11),
        packed=st.booleans(),
    )
    def test_skip_is_exact(self, kind, jobs, pairs, split, packed):
        table = CoLocationThroughputTable()
        for a, b, tput in pairs:
            if a != b:
                table.observe_single_task_job(
                    TaskPlacementObservation(a, (b,)), tput
                )
        mapping, urgency, residents, newcomers = {}, {}, [], []
        for i, (workload, demand, arity, u) in enumerate(jobs):
            job = make_job(
                workload, {"*": demand}, 1.0, num_tasks=arity, job_id=f"j{i}"
            )
            mapping[job.job_id] = job
            urgency[job.job_id] = u
            (residents if i < split else newcomers).extend(job.tasks)
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        # Residents packed by Algorithm 1, or each alone on its
        # reservation-price type, which often leaves spare room.
        if packed:
            current = [
                (p.instance, p.tasks)
                for p in full_reconfiguration(residents, catalog, RPEvaluator(calc))
            ]
        else:
            current = [(fresh_instance(calc.rp_type(t)), [t]) for t in residents]
        outcomes = []
        for skip in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                if not skip:
                    mp.setattr(_ArgmaxScan, "fits_any", lambda self: True)
                ev = _evaluator(kind, calc, table, mapping, urgency)
                result = partial_reconfiguration(current, newcomers, catalog, ev)
            outcomes.append(
                (
                    _layout(result.configuration),
                    result.repacked_task_ids,
                    result.drained_instance_ids,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_survivor_fills_to_the_exact_room(self):
        # p3.2xlarge (1 GPU, 8 CPU, 61 GB) keeps 45 GB beside the
        # resident, so RAM alone decides whether the newcomer fits.
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        resident = _single("wa", ResourceVector(1, 4, 16), "res")
        newcomer = _single("wb", ResourceVector(0, 2, 45), "new")
        survivor = fresh_instance(calc.rp_type(resident))
        result = partial_reconfiguration(
            [(survivor, [resident])], [newcomer], catalog, RPEvaluator(calc)
        )
        assert _layout(result.configuration) == [
            ("p3.2xlarge", ("res/t0", "new/t0"))
        ]

    def test_full_survivor_builds_no_pack_state(self, monkeypatch):
        # The resident fills c7i.xlarge (4 CPU, 8 GB); the newcomer fits
        # the empty type but not beside it.
        catalog = ec2_catalog()
        itype = next(it for it in catalog if it.name == "c7i.xlarge")
        resident = _single("wa", ResourceVector(0, 4, 8), "res")
        newcomer = _single("wb", ResourceVector(0, 2, 4), "new")
        ev = RPEvaluator(ReservationPriceCalculator(catalog))
        pool = _TaskPool([newcomer], ev, True)
        rows = pool.group_rows(itype, ev)
        assert rows
        survivor = PackedInstance(
            instance=fresh_instance(itype), tasks=(resident,)
        )
        built = []
        make_state = RPEvaluator.make_state

        def counted(self, tasks=()):
            built.append(tuple(tasks))
            return make_state(self, tasks)

        monkeypatch.setattr(RPEvaluator, "make_state", counted)
        assert _fill_survivor(survivor, pool, ev, rows) is survivor
        assert built == []
        assert pool.representatives() == [newcomer]


class TestValueCap:
    """A heterogeneous task's value at throughput 1 on a bound family."""

    @staticmethod
    def _bound(catalog, speeds, family, job):
        calc = HeterogeneousRPCalculator(catalog, FamilySpeedProfile(speeds))
        return HeterogeneousEvaluator(
            calculator=calc,
            table=CoLocationThroughputTable(),
            jobs={job.job_id: job},
        ).for_family(family)

    def test_fast_family_cap_is_speed_times_rp_for_a_multi_task_job(self):
        catalog = ec2_catalog()
        job = make_job("W", {"*": ResourceVector(0, 4, 8)}, 1.0, num_tasks=3)
        ev = self._bound(catalog, {"W": {"c7i": 2.0}}, "c7i", job)
        task = job.tasks[0]
        rp_het = ev.task_rp(task)
        assert rp_het == pytest.approx(0.1785 / 2)
        # speed * (rp - (1 - 1) * RP(j)): the degradation charge vanishes
        # at throughput 1, whatever the job's arity.
        assert ev.value_cap(task) == 2.0 * rp_het
        assert ev.value_cap(task) == ev.set_value([task])
        # Below throughput 1 the charge is on the job's RP, then scaled.
        assert ev.tnrp_from_tput(task, 0.5) == pytest.approx(
            2.0 * (rp_het - 0.5 * 3 * rp_het)
        )

    def test_slow_family_cap_stays_positive_and_bounds_the_ceiling(self):
        catalog = ec2_catalog()
        job = make_job("W", {"*": ResourceVector(0, 4, 8)}, 1.0, num_tasks=3)
        ev = self._bound(catalog, {"W": {"r7i": 0.25}}, "r7i", job)
        task = job.tasks[0]
        assert ev.value_cap(task) == 0.25 * ev.task_rp(task) > 0.0
        # One task fills r7i.xlarge's CPUs, so the guard allows a bound:
        # the three tasks' caps.
        r7i_xlarge = next(it for it in catalog if it.name == "r7i.xlarge")
        pool = _TaskPool(job.tasks, ev, True)
        rows = pool.group_rows(r7i_xlarge, ev)
        assert pool.value_ceiling(r7i_xlarge, rows) == 3 * ev.value_cap(task)
