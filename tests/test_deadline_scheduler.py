"""The deadline-SLO policy surface: Eva with the ``DeadlineUrgency`` signal.

Covers the end-to-end rescue (Eva misses a deadline that Eva-Deadline
meets at bounded extra cost), the declared action vocabulary, native
consumption of ``DeadlineApproaching`` from the observation channel
(never snapshot diffing), clean ``replay_decision`` on every emitted
decision, warning-horizon semantics (the promoted
``deadline_warning_s`` knob, including once-per-job dedup), and the
byte-identity of the no-deadline path with plain Eva.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.cluster.resources import ResourceVector
from repro.cluster.state import ClusterSnapshot
from repro.cluster.task import make_job
from repro.core import make_scheduler
from repro.core.deadline import DeadlineUrgency
from repro.core.evaluation import TNRPEvaluator
from repro.core.protocol import (
    AssignTask,
    DeadlineApproaching,
    LaunchInstance,
    MigrateTask,
    TerminateInstance,
    replay_decision,
)
from repro.core.scheduler import MAX_URGENCY, EvaConfig, EvaScheduler
from repro.sim.simulator import run_simulation
from repro.workloads.synthetic import synthetic_trace
from repro.workloads.trace import Trace, sort_jobs_by_arrival
from repro.workloads.workloads import workload

ALWAYS = 7 * 24 * 3600.0  # warning horizon covering any trace


def _deadline_aware(catalog, **kwargs):
    """Eva with a deadline signal, and the signal."""
    signal = DeadlineUrgency()
    return EvaScheduler(catalog, signals=[signal], **kwargs), signal


def _rescue_trace() -> Trace:
    """ViT + GraphSAGE arriving together: Eva co-locates them (their
    pairwise interference stretches GraphSAGE's JCT ~1.32x), so a 1.25x
    deadline on the GraphSAGE job is met standalone but missed packed."""
    jobs = [
        workload("ViT").make_job(
            duration_hours=1.0, arrival_time_s=0.0, job_id="dl-0"
        ),
        workload("GraphSAGE").make_job(
            duration_hours=1.0,
            arrival_time_s=0.0,
            job_id="dl-1",
            deadline_hours=1.25,
        ),
    ]
    return Trace(name="dl-rescue", jobs=sort_jobs_by_arrival(jobs))


class TestEndToEndRescue:
    def test_eva_misses_eva_deadline_meets_at_bounded_cost(self, catalog):
        trace = _rescue_trace()
        eva = run_simulation(
            trace,
            make_scheduler("eva", catalog),
            validate=True,
            deadline_warning_s=ALWAYS,
        )
        aware = run_simulation(
            trace,
            make_scheduler("eva-deadline", catalog),
            validate=True,
            deadline_warning_s=ALWAYS,
        )
        nopack = run_simulation(
            trace,
            make_scheduler("no-packing", catalog),
            validate=True,
            deadline_warning_s=ALWAYS,
        )
        assert eva.deadline_miss_count == 1
        assert eva.deadline_total_lateness_s > 0
        assert aware.deadline_miss_count == 0
        assert aware.deadline_attainment == 1.0
        # Bounded extra cost: never above giving every job its own
        # reservation-price instance (the No-Packing bill).
        assert aware.total_cost <= nopack.total_cost * 1.01
        assert aware.total_cost >= eva.total_cost  # isolation is not free

    def test_urgency_engaged_during_rescue(self, catalog):
        scheduler = make_scheduler("eva-deadline", catalog)
        (signal,) = scheduler.signals
        seen: list[dict] = []
        original = signal._compute_urgency

        def spy(snapshot):
            urgency = original(snapshot)
            seen.append(urgency)
            return urgency

        signal._compute_urgency = spy
        run_simulation(
            _rescue_trace(), scheduler, deadline_warning_s=ALWAYS
        )
        engaged = [u for u in seen if u]
        assert engaged, "urgency never escalated during the rescue"
        assert all(set(u) == {"dl-1"} for u in engaged)
        assert all(1.0 < m <= MAX_URGENCY for u in engaged for m in u.values())


class TestObservationChannel:
    def test_deadlines_learned_from_observations_only(self, catalog):
        """Without DeadlineApproaching observations the policy is Eva —
        it never sniffs Job.deadline_hours off the snapshot."""
        trace = _rescue_trace()
        aware = run_simulation(
            trace,
            make_scheduler("eva-deadline", catalog),
            validate=True,
            deadline_warning_s=0.0,  # warnings only after the deadline passes
        )
        eva = run_simulation(
            trace,
            make_scheduler("eva", catalog),
            validate=True,
        )
        # With the warning silenced until too late, eva-deadline packs —
        # and misses — exactly like Eva.
        assert aware.deadline_miss_count == eva.deadline_miss_count == 1
        assert aware.total_cost == eva.total_cost

    def test_observe_records_and_prunes_deadlines(self, catalog):
        scheduler, signal = _deadline_aware(catalog)
        scheduler.observe(
            (
                DeadlineApproaching(job_id="gone", deadline_s=100.0),
                DeadlineApproaching(job_id="live", deadline_s=7200.0),
            )
        )
        assert signal._deadlines == {"gone": 100.0, "live": 7200.0}
        job = make_job(
            "GPT2",
            {"*": ResourceVector(1, 4, 10)},
            duration_hours=1.0,
            job_id="live",
        )
        snapshot = ClusterSnapshot(
            time_s=0.0,
            tasks={t.task_id: t for t in job.tasks},
            jobs={"live": job},
            instances=(),
        )
        scheduler.schedule(snapshot)
        assert "gone" not in signal._deadlines  # pruned against snapshot
        assert "live" in signal._deadlines

    def test_direct_schedule_without_observations_matches_eva(self, catalog):
        """Legacy direct schedule() callers get plain Eva decisions."""
        trace = _rescue_trace()
        job_map = {j.job_id: j for j in trace}
        tasks = {t.task_id: t for j in trace for t in j.tasks}
        snapshot = ClusterSnapshot(
            time_s=0.0, tasks=tasks, jobs=job_map, instances=()
        )
        aware, signal = _deadline_aware(catalog)
        eva = EvaScheduler(catalog)

        def shape(target):
            # Instance ids are freshly minted from a global counter, so
            # compare the configuration's structure instead.
            return sorted(
                (ti.instance.instance_type.name, tuple(sorted(ti.task_ids)))
                for ti in target.instances
            )

        assert shape(aware.schedule(snapshot)) == shape(eva.schedule(snapshot))
        assert signal.urgency == {}


class TestVocabularyAndReplay:
    def test_action_vocabulary_is_evas(self, catalog):
        scheduler = make_scheduler("eva-deadline", catalog)
        assert scheduler.action_types == EvaScheduler.action_types
        assert scheduler.action_types == frozenset(
            {LaunchInstance, AssignTask, MigrateTask, TerminateInstance}
        )

    def test_replay_clean_on_every_decision(self, catalog):
        """Structural replay of every decision the policy emits, on a
        trace mixing deadline pressure with background jobs."""
        trace = synthetic_trace(
            12,
            seed=3,
            mean_interarrival_s=600.0,
            deadline_fraction=0.6,
            deadline_slack_range=(1.2, 1.6),
            name="dl-replay",
        )
        scheduler = make_scheduler("eva-deadline", catalog)
        records = []
        original = scheduler.decide

        def recording_decide(snapshot, observations=()):
            decision = original(snapshot, observations)
            records.append((snapshot, decision))
            return decision

        scheduler.decide = recording_decide
        run_simulation(
            trace, scheduler, validate=True, deadline_warning_s=ALWAYS
        )
        assert records
        for snapshot, decision in records:
            replay_decision(snapshot, decision)  # raises on any violation


class TestWarningKnob:
    @staticmethod
    def _spy_run(catalog, trace, **kwargs):
        seen = []

        class Spy(EvaScheduler):
            def observe(self, observations):
                super().observe(observations)
                seen.extend(
                    o for o in observations
                    if isinstance(o, DeadlineApproaching)
                )

        result = run_simulation(trace, Spy(catalog), **kwargs)
        return seen, result

    def _one_job_trace(self, deadline_hours=2.0):
        job = workload("GPT2").make_job(
            duration_hours=1.0,
            arrival_time_s=0.0,
            job_id="w-0",
            deadline_hours=deadline_hours,
        )
        return Trace(name="warn", jobs=(job,))

    def test_warning_respects_custom_horizon(self, catalog):
        # Horizon covering the whole run: warned at the first round.
        seen, _ = self._spy_run(
            catalog, self._one_job_trace(), deadline_warning_s=ALWAYS
        )
        assert seen and seen[0].deadline_s == pytest.approx(7200.0)

        # Default horizon (2 periods = 600 s): a 2 h deadline on a 1 h
        # job is never within 600 s while the job is still live.
        seen_default, result = self._spy_run(catalog, self._one_job_trace())
        assert result.deadline_miss_count == 0
        assert seen_default == []

        # Zero horizon: warnings only once the deadline has passed; with
        # a met deadline nothing is ever emitted.
        seen_zero, _ = self._spy_run(
            catalog, self._one_job_trace(), deadline_warning_s=0.0
        )
        assert seen_zero == []

    def test_warning_emitted_once_per_job(self, catalog):
        """Re-emission dedup: many rounds inside the horizon, one warning."""
        seen, result = self._spy_run(
            catalog, self._one_job_trace(), deadline_warning_s=ALWAYS
        )
        assert result.scheduling_rounds > 2
        assert len(seen) == 1

    def test_negative_horizon_rejected(self, catalog):
        with pytest.raises(ValueError, match="deadline_warning_s"):
            run_simulation(
                self._one_job_trace(),
                make_scheduler("eva", catalog),
                deadline_warning_s=-1.0,
            )


class TestNoDeadlinePath:
    def test_byte_identical_to_eva_without_deadlines(self, catalog):
        trace = synthetic_trace(14, seed=2, name="nodl-14")
        eva = run_simulation(trace, make_scheduler("eva", catalog), validate=True)
        aware = run_simulation(
            trace, make_scheduler("eva-deadline", catalog), validate=True
        )
        relabelled = dataclasses.replace(
            aware, scheduler_name=eva.scheduler_name
        )
        assert pickle.dumps(eva) == pickle.dumps(relabelled)

    def test_legacy_result_pickle_omits_deadline_fields(self, catalog):
        trace = synthetic_trace(4, seed=0, name="nodl-4")
        result = run_simulation(trace, make_scheduler("no-packing", catalog))
        assert b"deadline" not in pickle.dumps(result)
        roundtrip = pickle.loads(pickle.dumps(result))
        assert roundtrip.deadline_outcomes == ()
        assert roundtrip.deadline_miss_count == 0
        assert roundtrip.deadline_total_lateness_s == 0.0
        assert roundtrip.deadline_attainment == 1.0


class TestConfigAndEvaluator:
    def test_requires_interference_awareness(self, catalog):
        with pytest.raises(ValueError, match="interference_aware"):
            _deadline_aware(catalog, config=EvaConfig(interference_aware=False))

    def test_urgency_evaluator_matches_stock_when_not_urgent(self, catalog):
        scheduler = EvaScheduler(catalog)
        job = make_job(
            "GPT2", {"*": ResourceVector(1, 4, 10)}, duration_hours=1.0
        )
        task = job.tasks[0]
        stock = TNRPEvaluator(
            calculator=scheduler.rp_calculator, table=scheduler.monitor.table
        )
        urgent = TNRPEvaluator(
            calculator=scheduler.rp_calculator,
            table=scheduler.monitor.table,
            urgency={"other-job": 8.0},
        )
        for tput in (1.0, 0.9, 0.7):
            assert urgent.tnrp_from_tput(task, tput) == stock.tnrp_from_tput(
                task, tput
            )

    def test_urgency_scales_degradation_charge_only(self, catalog):
        scheduler = EvaScheduler(catalog)
        job = make_job(
            "GPT2", {"*": ResourceVector(1, 4, 10)}, duration_hours=1.0
        )
        task = job.tasks[0]
        u = 8.0
        evaluator = TNRPEvaluator(
            calculator=scheduler.rp_calculator,
            table=scheduler.monitor.table,
            urgency={job.job_id: u},
        )
        rp = scheduler.rp_calculator.rp(task)
        # Standalone value untouched; packed value charged at 8x.
        assert evaluator.tnrp_from_tput(task, 1.0) == rp
        assert evaluator.tnrp_from_tput(task, 0.9) == pytest.approx(
            rp - 0.1 * rp * u
        )
        # Group keys must separate urgent tasks from identical calm ones.
        calm = make_job(
            "GPT2", {"*": ResourceVector(1, 4, 10)}, duration_hours=1.0
        ).tasks[0]
        assert evaluator.group_key(task) != evaluator.group_key(calm)
        # Cache token carries the urgency state.
        assert evaluator.cache_token() != TNRPEvaluator(
            calculator=scheduler.rp_calculator, table=scheduler.monitor.table
        ).cache_token()

    def test_lost_causes_are_abandoned(self, catalog):
        """A deadline that full-throughput execution cannot meet gets no
        escalation — the policy spends nothing on a guaranteed miss."""
        scheduler, signal = _deadline_aware(catalog)
        job = make_job(
            "GPT2",
            {"*": ResourceVector(1, 4, 10)},
            duration_hours=2.0,
            job_id="doomed",
        )
        snapshot = ClusterSnapshot(
            time_s=0.0,
            tasks={t.task_id: t for t in job.tasks},
            jobs={"doomed": job},
            instances=(),
        )
        # Deadline in 1h, 2h of work left: unattainable.
        scheduler.observe(
            (DeadlineApproaching(job_id="doomed", deadline_s=3600.0),)
        )
        scheduler.schedule(snapshot)
        assert signal.urgency == {}

    def test_inside_headroom_saturates(self, catalog):
        scheduler, signal = _deadline_aware(catalog)
        job = make_job(
            "GPT2",
            {"*": ResourceVector(1, 4, 10)},
            duration_hours=0.05,
            job_id="tight",
        )
        snapshot = ClusterSnapshot(
            time_s=0.0,
            tasks={t.task_id: t for t in job.tasks},
            jobs={"tight": job},
            instances=(),
        )
        # 0.05h (3 min) of work, deadline in 500s: attainable, but only
        # by acting now (inside the 600s reconfiguration headroom).
        scheduler.observe(
            (DeadlineApproaching(job_id="tight", deadline_s=500.0),)
        )
        scheduler.schedule(snapshot)
        assert signal.urgency == {"tight": MAX_URGENCY}


class TestDeadlineSloExperiment:
    def test_eva_deadline_strictly_improves_attainment(self):
        from repro.experiments.deadline_slo import TIGHTNESS, run

        result = run(seed=0)
        improved = [
            slack
            for slack in TIGHTNESS
            if result.attainment[("Eva-Deadline", slack)]
            > result.attainment[("Eva", slack)]
        ]
        assert improved, (
            "eva-deadline never beat eva on attainment: "
            f"{result.attainment}"
        )
        # Sanity anchor: at the loosest tightness nothing is at risk and
        # deadline awareness changes nothing.
        loosest = max(TIGHTNESS)
        assert result.misses[("Eva-Deadline", loosest)] == 0

    def test_multi_seed_presentation_keeps_attainment_column(self):
        from repro.experiments.registry import ExperimentContext, run_experiment

        run = run_experiment(
            "deadline-slo", ExperimentContext(seeds=(0, 1))
        )
        table = run.presentation.tables[0]
        assert "Attainment" in table.headers
        assert "Norm. Cost" in table.headers
        labels = {(row[0], row[1]) for row in table.rows}
        assert ("1.25x", "Eva-Deadline") in labels


class TestMasterEmission:
    def test_master_emits_deadline_warning_once(self, catalog):
        from repro.runtime.master import EvaMaster

        seen = []

        class Spy(EvaScheduler):
            def observe(self, observations):
                super().observe(observations)
                seen.extend(
                    o for o in observations
                    if isinstance(o, DeadlineApproaching)
                )

        master = EvaMaster(
            catalog=catalog,
            scheduler=Spy(catalog),
            deadline_warning_s=ALWAYS,
        )
        master.submit_job(
            make_job(
                "GPT2",
                {"*": ResourceVector(1, 4, 10)},
                duration_hours=0.3,
                job_id="m-dl",
                deadline_hours=0.5,
            )
        )
        master.run_for(hours=0.5)
        assert [o.job_id for o in seen] == ["m-dl"]
        assert seen[0].deadline_s == pytest.approx(0.5 * 3600.0)

    def test_master_default_horizon_matches_simulator(self, catalog):
        from repro.runtime.master import EvaMaster

        master = EvaMaster(catalog=catalog, scheduler=EvaScheduler(catalog))
        assert master.deadline_warning_s == 2.0 * master.period_s
