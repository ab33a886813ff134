"""Unit tests for the baseline schedulers (§6.1)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.instance as instance_module
from repro.baselines import (
    NoPackingScheduler,
    OwlScheduler,
    ReactiveScheduler,
    StratusScheduler,
    SynergyScheduler,
    runtime_bin,
)
from repro.cluster.instance import Instance, fresh_instance
from repro.cluster.resources import ResourceVector
from repro.cluster.state import ClusterSnapshot, InstanceState
from repro.cluster.task import make_job
from repro.core.protocol import LaunchInstance
from repro.interference.model import InterferenceModel


def _job(workload, demand, job_id, duration=1.0, arrival=0.0):
    return make_job(
        workload, {"*": ResourceVector(*demand)}, duration,
        arrival_time_s=arrival, job_id=job_id,
    )


def _snapshot(jobs, placements=None, time_s=0.0):
    tasks = {t.task_id: t for j in jobs for t in j.tasks}
    instances = [
        InstanceState(instance=inst, task_ids=frozenset(tids))
        for inst, tids in (placements or {}).items()
    ]
    return ClusterSnapshot(
        time_s=time_s,
        tasks=tasks,
        jobs={j.job_id: j for j in jobs},
        instances=instances,
    )


class TestNoPacking:
    def test_one_task_per_instance(self, catalog):
        scheduler = NoPackingScheduler(catalog)
        jobs = [_job("ResNet18-2", (1, 4, 24), f"n{i}") for i in range(3)]
        target = scheduler.schedule(_snapshot(jobs))
        per_instance = {}
        for tid, iid in target.assignment().items():
            per_instance.setdefault(iid, []).append(tid)
        assert all(len(tids) == 1 for tids in per_instance.values())

    def test_uses_cheapest_feasible_type(self, catalog):
        scheduler = NoPackingScheduler(catalog)
        job = _job("A3C", (0, 4, 8), "cpu")
        target = scheduler.schedule(_snapshot([job]))
        assert target.instances[0].instance_type.name == "c7i.xlarge"

    def test_keeps_existing_assignments(self, catalog):
        scheduler = NoPackingScheduler(catalog)
        job = _job("A3C", (0, 4, 8), "keep")
        inst = fresh_instance(scheduler.rp_calculator.rp_type(job.tasks[0]))
        snap = _snapshot([job], {inst: [job.tasks[0].task_id]})
        target = scheduler.schedule(snap)
        assert target.assignment()[job.tasks[0].task_id] == inst.instance_id


class _BinSkeletonNoPacking(ReactiveScheduler):
    """No-Packing as a placement rule on the reactive skeleton: every
    queued task opens its reservation-price type, and
    ``Scheduler.decide`` plans the target through ``diff_target``."""

    name = "No-Packing (bins)"

    def choose_placement(self, task, open_instances, snapshot):
        return self.cheapest_type_for(task)


def _plan_view(decision):
    """A decision as plain values (``Instance`` compares by identity)."""
    actions = [
        (type(a).__name__, a.instance_id, a.instance.instance_type.name)
        if isinstance(a, LaunchInstance)
        else (type(a).__name__, a.task_id, a.instance_id)
        for a in decision.actions
    ]
    return actions, _target_view(decision.target)


def _target_view(target):
    return [
        (s.instance_id, s.instance_type.name, sorted(s.task_ids))
        for s in target.instances
    ]


_NO_PACKING_DEMANDS = st.sampled_from(
    [(0, 2, 4), (0, 4, 8), (0, 8, 32), (1, 4, 16), (1, 8, 61), (4, 16, 122)]
)


@st.composite
def _no_packing_snapshots(draw, catalog):
    """Snapshots mixing queued tasks, tasks on live instances, tasks of a
    partly placed job that wait without an instance (requeued) and,
    maybe, an empty live instance."""
    rp = NoPackingScheduler(catalog).rp_calculator
    jobs, instances = [], []
    count = draw(st.integers(min_value=0, max_value=8))
    for i in range(count):
        job = make_job(
            draw(st.sampled_from(["wa", "wb", "wc"])),
            {"*": ResourceVector(*draw(_NO_PACKING_DEMANDS))},
            1.0,
            num_tasks=draw(st.integers(min_value=1, max_value=3)),
            job_id=f"j{i}",
        )
        jobs.append(job)
        placed = draw(st.integers(min_value=0, max_value=len(job.tasks)))
        for task in job.tasks[:placed]:
            instance = Instance(
                rp.rp_type(task), instance_id=f"live-{len(instances)}"
            )
            instances.append((instance, [task.task_id]))
    if draw(st.booleans()):
        itype = draw(st.sampled_from([it for it in catalog if not it.is_ghost]))
        instances.append((Instance(itype, instance_id="live-empty"), []))
    order = draw(st.permutations(range(len(instances))))
    return _snapshot(jobs, {instances[i][0]: instances[i][1] for i in order})


class TestNoPackingPlan:
    """No-Packing's own plan equals the bin skeleton's ``diff_target``
    plan, action for action."""

    @staticmethod
    def _minted_from_one(plan):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(instance_module, "_instance_counter", itertools.count(1))
            return plan()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_plan_equals_bin_skeleton(self, catalog, data):
        snapshot = data.draw(_no_packing_snapshots(catalog))
        scheduler = NoPackingScheduler(catalog)
        decision = self._minted_from_one(lambda: scheduler.decide(snapshot))
        reference = self._minted_from_one(
            lambda: _BinSkeletonNoPacking(catalog).decide(snapshot)
        )
        assert _plan_view(decision) == _plan_view(reference)
        decision.validate(snapshot, NoPackingScheduler.action_types)
        target = self._minted_from_one(lambda: scheduler.schedule(snapshot))
        assert _target_view(target) == _target_view(decision.target)


class TestStratus:
    def test_runtime_bins_exponential(self):
        assert runtime_bin(0.1) == 0
        assert runtime_bin(0.25) == 0
        assert runtime_bin(0.4) == 1
        assert runtime_bin(0.9) == 2
        assert runtime_bin(1.9) == 3
        assert runtime_bin(30.0) < runtime_bin(200.0)

    def test_same_bin_tasks_colocate(self, catalog):
        # Demands must leave leftover capacity on the first task's
        # cheapest type (c7i.large: 2 CPU / 4 GB) for packing to happen.
        scheduler = StratusScheduler(catalog)
        jobs = [
            _job("A3C", (0, 1, 2), "s1", duration=2.0),
            _job("A3C", (0, 1, 2), "s2", duration=2.1),
        ]
        target = scheduler.schedule(_snapshot(jobs))
        assignment = target.assignment()
        assert assignment["s1/t0"] == assignment["s2/t0"]

    def test_different_bins_do_not_colocate(self, catalog):
        scheduler = StratusScheduler(catalog)
        jobs = [
            _job("A3C", (0, 2, 4), "s1", duration=0.2),
            _job("A3C", (0, 2, 4), "s2", duration=12.0),
        ]
        target = scheduler.schedule(_snapshot(jobs))
        assignment = target.assignment()
        assert assignment["s1/t0"] != assignment["s2/t0"]

    def test_capacity_respected(self, catalog):
        scheduler = StratusScheduler(catalog)
        jobs = [
            _job("GPT2", (4, 4, 10), f"g{i}", duration=2.0) for i in range(3)
        ]
        snapshot = _snapshot(jobs)
        target = scheduler.schedule(snapshot)
        target.validate(snapshot)


class TestSynergy:
    def test_best_fit_packs_compatible_tasks(self, catalog):
        scheduler = SynergyScheduler(catalog)
        jobs = [
            _job("ViT", (2, 8, 60), "v1"),
            _job("ViT", (2, 8, 60), "v2"),
        ]
        snapshot = _snapshot(jobs)
        target = scheduler.schedule(snapshot)
        target.validate(snapshot)
        assignment = target.assignment()
        assert assignment["v1/t0"] == assignment["v2/t0"]

    def test_tnrp_admission_check_blocks_bad_fits(self, catalog):
        """With the default t = 0.95 prior, a $0.09 task cannot justify
        risking a 5% degradation of a $12.24 GPU instance — the TNRP
        admission check must keep it out."""
        scheduler = SynergyScheduler(catalog)
        gpu_job = _job("GPT2", (4, 4, 10), "gpu")
        tiny = _job("A3C", (0, 2, 4), "tiny")
        inst = fresh_instance(
            scheduler.rp_calculator.rp_type(gpu_job.tasks[0])
        )
        snap = _snapshot([gpu_job, tiny], {inst: [gpu_job.tasks[0].task_id]})
        target = scheduler.schedule(snap)
        assert target.assignment()["tiny/t0"] != inst.instance_id

    def test_admission_passes_without_interference_risk(self, catalog):
        """With a neutral prior (t = 1.0) the same join is admitted."""
        scheduler = SynergyScheduler(catalog, default_tput=1.0)
        gpu_job = _job("GPT2", (4, 4, 10), "gpu")
        tiny = _job("A3C", (0, 2, 4), "tiny")
        inst = fresh_instance(
            scheduler.rp_calculator.rp_type(gpu_job.tasks[0])
        )
        snap = _snapshot([gpu_job, tiny], {inst: [gpu_job.tasks[0].task_id]})
        target = scheduler.schedule(snap)
        assert target.assignment()["tiny/t0"] == inst.instance_id

    def test_learned_interference_blocks_join(self, catalog):
        from repro.core.interfaces import JobThroughputReport
        from repro.core.throughput_table import TaskPlacementObservation

        scheduler = SynergyScheduler(catalog)
        # Teach Synergy that A3C wrecks GPT2 (both directions).
        for a, b in (("GPT2", "A3C"), ("A3C", "GPT2")):
            scheduler.on_throughput_reports(
                (
                    JobThroughputReport(
                        job_id="x",
                        normalized_tput=0.2,
                        placements=(
                            TaskPlacementObservation(workload=a, neighbours=(b,)),
                        ),
                    ),
                )
            )
        gpu_job = _job("GPT2", (4, 4, 10), "gpu")
        tiny = _job("A3C", (0, 2, 4), "tiny")
        inst = fresh_instance(
            scheduler.rp_calculator.rp_type(gpu_job.tasks[0])
        )
        snap = _snapshot([gpu_job, tiny], {inst: [gpu_job.tasks[0].task_id]})
        target = scheduler.schedule(snap)
        assert target.assignment()["tiny/t0"] != inst.instance_id


class TestOwl:
    def test_low_interference_pairs_colocate(self, catalog):
        # CycleGAN <-> OpenFOAM is 1.00/0.98 in Figure 1: Owl pairs them.
        scheduler = OwlScheduler(catalog, profile=InterferenceModel())
        # The pair must fit p3.2xlarge (8 CPUs) for pairing to be
        # cost-efficient: 4 + 4 CPUs.
        jobs = [
            _job("CycleGAN", (1, 4, 10), "c1"),
            _job("OpenFOAM", (0, 4, 8), "o1"),
        ]
        snapshot = _snapshot(jobs)
        target = scheduler.schedule(snapshot)
        target.validate(snapshot)
        assignment = target.assignment()
        assert assignment["c1/t0"] == assignment["o1/t0"]

    def test_high_interference_pairs_rejected(self, catalog):
        # GCN <-> A3C is 0.65 in Figure 1: below Owl's 0.9 floor.
        scheduler = OwlScheduler(catalog, profile=InterferenceModel())
        jobs = [
            _job("GCN", (0, 6, 40), "g1"),
            _job("A3C", (0, 4, 8), "a1"),
        ]
        target = scheduler.schedule(_snapshot(jobs))
        assignment = target.assignment()
        assert assignment["g1/t0"] != assignment["a1/t0"]

    def test_pairs_only(self, catalog):
        scheduler = OwlScheduler(catalog, profile=InterferenceModel())
        jobs = [_job("CycleGAN", (1, 4, 10), f"c{i}") for i in range(5)]
        target = scheduler.schedule(_snapshot(jobs))
        sizes = [len(ti.task_ids) for ti in target.instances]
        assert max(sizes) <= 2

    def test_fills_existing_singletons(self, catalog):
        scheduler = OwlScheduler(catalog, profile=InterferenceModel())
        resident = _job("CycleGAN", (1, 4, 10), "res")
        inst = fresh_instance(
            next(it for it in catalog if it.name == "p3.2xlarge")
        )
        newcomer = _job("OpenFOAM", (0, 4, 8), "new")
        snap = _snapshot(
            [resident, newcomer], {inst: [resident.tasks[0].task_id]}
        )
        target = scheduler.schedule(snap)
        assert target.assignment()["new/t0"] == inst.instance_id


class TestReactiveContract:
    def test_all_baselines_assign_every_task(self, catalog):
        jobs = [
            _job("ViT", (2, 8, 60), "b1"),
            _job("GCN", (0, 6, 40), "b2"),
            _job("A3C", (0, 4, 8), "b3"),
            _job("GPT2", (4, 4, 10), "b4"),
        ]
        snapshot = _snapshot(jobs)
        for scheduler in (
            NoPackingScheduler(catalog),
            StratusScheduler(catalog),
            SynergyScheduler(catalog),
            OwlScheduler(catalog),
        ):
            target = scheduler.schedule(snapshot)
            target.validate(snapshot)
            assert set(target.assignment()) == set(snapshot.tasks)
