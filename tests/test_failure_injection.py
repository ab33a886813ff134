"""Fault injection, retry/restart semantics, and the eva-failure policy.

Covers the reliability subsystem end to end:

* config validation (``FailureConfig``/``RetryPolicy``, plus the
  ``SpotConfig`` non-finite regression);
* byte-identity with failures disabled (the fault-free engine path must
  be indistinguishable from a build without the subsystem);
* crash/rollback semantics — a failed instance loses exactly the
  un-checkpointed progress, retries back off exponentially, and domain
  shocks take out whole failure domains at once;
* the typed observation surface (``InstanceFailed``,
  ``StragglerReport``) every scheduler sees;
* the ``eva-failure`` scheduler: per-domain hazard estimates built from
  observations only, strike-escalated urgency, straggler draining;
* fingerprint coverage for every failure knob, stable across
  ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro.cloud.catalog import ec2_catalog
from repro.cluster.instance import fresh_instance
from repro.cluster.state import ClusterSnapshot, InstanceState
from repro.core import make_scheduler
from repro.core.failure import FailureHazard
from repro.core.interfaces import Scheduler
from repro.core.protocol import InstanceFailed, StragglerReport
from repro.core.scheduler import EvaConfig, EvaScheduler
from repro.sim.batch import Scenario, TraceSpec
from repro.sim.simulator import (
    ClusterSimulator,
    FailureConfig,
    RetryPolicy,
    SpotConfig,
    _JobRT,
    run_simulation,
)
from repro.workloads.synthetic import synthetic_trace
from repro.workloads.workloads import TABLE7_WORKLOADS

#: The Table-7 pool minus the multi-task ResNet variants — rollback and
#: backoff bounds below need the one-task-per-job premise.
_SINGLE_TASK_WORKLOADS = tuple(
    w for w in TABLE7_WORKLOADS if w.tasks_per_job == 1
)


def _trace(num_jobs=10, seed=0, single_task=False, **kwargs):
    kwargs.setdefault("mean_interarrival_s", 600.0)
    kwargs.setdefault("duration_range_hours", (0.2, 1.0))
    if single_task:
        kwargs.setdefault("workloads", _SINGLE_TASK_WORKLOADS)
    return synthetic_trace(num_jobs, seed=seed, name=f"fail-{seed}", **kwargs)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_failure_rates_must_be_finite_nonnegative(self, bad):
        with pytest.raises(ValueError):
            FailureConfig(enabled=True, crash_rate_per_hour=bad)
        with pytest.raises(ValueError):
            FailureConfig(enabled=True, domain_shock_rate_per_hour=bad)
        with pytest.raises(ValueError):
            FailureConfig(enabled=True, straggler_rate_per_hour=bad)

    def test_straggler_slowdown_band_validated(self):
        with pytest.raises(ValueError):
            FailureConfig(enabled=True, straggler_slowdown=(0.9, 0.2))
        with pytest.raises(ValueError):
            FailureConfig(enabled=True, straggler_slowdown=(0.0, 0.5))
        with pytest.raises(ValueError):
            FailureConfig(enabled=True, straggler_slowdown=(0.5, 1.5))

    def test_num_domains_must_be_positive(self):
        with pytest.raises(ValueError):
            FailureConfig(enabled=True, num_domains=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_retry_policy_knobs_must_be_finite(self, bad):
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=bad)
        with pytest.raises(ValueError):
            RetryPolicy(checkpoint_interval_s=bad if bad != -1.0 else 0.0)

    def test_checkpoint_overhead_is_a_fraction(self):
        with pytest.raises(ValueError):
            RetryPolicy(checkpoint_overhead=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(checkpoint_overhead=-0.01)
        assert RetryPolicy(checkpoint_overhead=0.0).checkpoint_overhead == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_spot_config_rejects_non_finite(self, bad):
        """Regression: NaN/inf used to flow into event timestamps and
        corrupt the queue ordering instead of failing fast."""
        with pytest.raises(ValueError):
            SpotConfig(enabled=True, preemption_rate_per_hour=bad)
        with pytest.raises(ValueError):
            SpotConfig(
                enabled=True, preemption_rate_per_hour=0.3, notice_s=bad
            )


# ---------------------------------------------------------------------------
# Fault-free byte identity
# ---------------------------------------------------------------------------


class TestDisabledByteIdentity:
    def test_disabled_config_matches_no_config(self, catalog):
        trace = _trace()
        results = []
        for failures in (None, FailureConfig(), FailureConfig(seed=99)):
            results.append(
                run_simulation(
                    trace, make_scheduler("eva", catalog), failures=failures
                )
            )
        baseline = pickle.dumps(results[0], protocol=5)
        assert all(
            pickle.dumps(r, protocol=5) == baseline for r in results[1:]
        )

    def test_eva_failure_scheduler_matches_eva_without_faults(self, catalog):
        """With no failure observations the policy must be byte-for-byte
        plain Eva (the urgency machinery never engages)."""
        trace = _trace()
        eva = run_simulation(trace, make_scheduler("eva", catalog))
        # Same display name so the only possible pickle difference is
        # behavioural (the result embeds the scheduler name).
        eva_failure = run_simulation(
            trace, EvaScheduler(catalog, name="Eva", signals=[FailureHazard()])
        )
        assert pickle.dumps(eva, protocol=5) == pickle.dumps(
            eva_failure, protocol=5
        )

    def test_failure_aware_requires_tnrp(self, catalog):
        with pytest.raises(ValueError, match="interference_aware"):
            EvaScheduler(
                ec2_catalog(),
                config=EvaConfig(interference_aware=False),
                signals=[FailureHazard()],
            )


# ---------------------------------------------------------------------------
# Crash semantics
# ---------------------------------------------------------------------------


def _crash_config(**kwargs):
    kwargs.setdefault("crash_rate_per_hour", 0.6)
    retry = kwargs.pop("retry", None) or RetryPolicy(
        checkpoint_interval_s=900.0
    )
    return FailureConfig(enabled=True, retry=retry, **kwargs)


class TestCrashSemantics:
    def test_rollback_bounded_by_checkpoint_interval(self, catalog):
        """Single-task jobs progress at rate <= 1 standalone-hour per
        wall hour, so no crash can lose more than one checkpoint
        interval's worth of work."""
        trace = _trace(seed=1, single_task=True)
        assert trace.num_tasks() == len(trace)
        interval_s = 900.0
        result = run_simulation(
            trace,
            make_scheduler("eva", catalog),
            failures=_crash_config(
                retry=RetryPolicy(checkpoint_interval_s=interval_s)
            ),
            validate=True,
        )
        assert result.instance_failures > 0
        for outcome in result.failure_outcomes:
            for _, lost in outcome.job_losses:
                assert 0.0 < lost <= interval_s / 3600.0 + 1e-9

    def test_no_checkpoints_lose_all_progress_since_start(self, catalog):
        """With an effectively infinite checkpoint interval, the useful
        work is bounded by the jobs' total durations, and goodput
        degrades against the checkpointed run."""
        trace = _trace(seed=2)
        sparse = run_simulation(
            trace,
            make_scheduler("eva", catalog),
            failures=_crash_config(
                retry=RetryPolicy(checkpoint_interval_s=1e12)
            ),
            validate=True,
        )
        dense = run_simulation(
            trace,
            make_scheduler("eva", catalog),
            failures=_crash_config(
                retry=RetryPolicy(checkpoint_interval_s=300.0)
            ),
            validate=True,
        )
        assert sparse.instance_failures > 0
        # Every loss under the infinite interval is the job's entire
        # progress at crash time (never capped by a boundary).
        total = sum(j.duration_hours for j in trace)
        assert sparse.work_lost_h > 0
        for outcome in sparse.failure_outcomes:
            for jid, lost in outcome.job_losses:
                job = next(j for j in trace if j.job_id == jid)
                assert lost <= job.duration_hours + 1e-9
        assert sparse.total_work_hours == pytest.approx(total)
        assert dense.goodput_fraction >= sparse.goodput_fraction

    def test_retry_backoff_floors_every_repair(self, catalog):
        """Single-task jobs cannot recover before the backoff expires:
        every repair span is at least the base backoff."""
        trace = _trace(seed=3, single_task=True)
        assert trace.num_tasks() == len(trace)
        base_s = 1200.0
        result = run_simulation(
            trace,
            make_scheduler("eva", catalog),
            failures=_crash_config(
                retry=RetryPolicy(
                    backoff_base_s=base_s, checkpoint_interval_s=900.0
                )
            ),
            validate=True,
        )
        assert result.repair_outcomes, "no repairs recorded"
        for repair in result.repair_outcomes:
            assert repair.repair_s >= base_s - 1e-6

    def test_restart_counts_match_failure_records(self, catalog):
        result = run_simulation(
            _trace(seed=4),
            make_scheduler("eva", catalog),
            failures=_crash_config(),
            validate=True,
        )
        assert result.task_restarts == sum(
            o.tasks_lost for o in result.failure_outcomes
        )
        assert result.restarts_per_job() == pytest.approx(
            result.task_restarts / result.num_jobs
        )


class _SnapshotRecorder(Scheduler):
    """Wrapper recording (snapshot, observations) for every round."""

    def __init__(self, inner: Scheduler):
        self.inner = inner
        self.name = inner.name
        self.action_types = inner.action_types
        self.rounds: list[tuple] = []

    def schedule(self, snapshot):  # pragma: no cover - decide() is the path
        return self.inner.schedule(snapshot)

    def decide(self, snapshot, observations=()):
        self.rounds.append((snapshot, observations))
        return self.inner.decide(snapshot, observations)


class TestDomainShocks:
    def test_single_domain_shock_clears_the_whole_cluster(self, catalog):
        """With one failure domain, a shock kills every live instance:
        no instance id survives across a shock timestamp."""
        recorder = _SnapshotRecorder(make_scheduler("eva", catalog))
        result = run_simulation(
            _trace(seed=5),
            recorder,
            failures=FailureConfig(
                enabled=True,
                domain_shock_rate_per_hour=0.5,
                num_domains=1,
                seed=5,
            ),
            validate=True,
        )
        shocks = [
            o for o in result.failure_outcomes if o.kind == "domain-shock"
        ]
        assert shocks, "no shocks fired"
        assert all(o.failure_domain == 0 for o in result.failure_outcomes)
        for shock_time in {o.time_s for o in shocks}:
            before = [
                {st.instance_id for st in snap.instances}
                for snap, _ in recorder.rounds
                if snap.time_s < shock_time
            ]
            after = [
                {st.instance_id for st in snap.instances}
                for snap, _ in recorder.rounds
                if snap.time_s > shock_time
            ]
            if before and after:
                assert not (before[-1] & after[0])

    def test_multi_domain_shock_spares_other_domains(self, catalog):
        """Shock outcomes sharing one timestamp share one domain, and
        crashes land across several domains over the run."""
        result = run_simulation(
            _trace(num_jobs=14, seed=2),
            make_scheduler("eva", catalog),
            failures=FailureConfig(
                enabled=True,
                crash_rate_per_hour=0.4,
                domain_shock_rate_per_hour=0.3,
                num_domains=3,
                seed=2,
            ),
            validate=True,
        )
        kinds = {o.kind for o in result.failure_outcomes}
        assert kinds == {"crash", "domain-shock"}
        by_time: dict[float, set[int]] = {}
        for outcome in result.failure_outcomes:
            if outcome.kind == "domain-shock":
                by_time.setdefault(outcome.time_s, set()).add(
                    outcome.failure_domain
                )
        assert by_time
        for domains in by_time.values():
            assert len(domains) == 1


class TestObservationSurface:
    def test_failures_and_stragglers_reach_every_scheduler(self, catalog):
        recorder = _SnapshotRecorder(make_scheduler("no-packing", catalog))
        run_simulation(
            _trace(seed=7),
            recorder,
            failures=FailureConfig(
                enabled=True,
                crash_rate_per_hour=0.5,
                straggler_rate_per_hour=0.6,
                straggler_duration_s=1800.0,
                seed=7,
            ),
            validate=True,
        )
        flat = [o for _, obs in recorder.rounds for o in obs]
        failed = [o for o in flat if isinstance(o, InstanceFailed)]
        straggles = [o for o in flat if isinstance(o, StragglerReport)]
        assert failed and straggles
        assert all(o.failure_domain >= 0 for o in failed)
        onsets = [o for o in straggles if o.slowdown < 1.0]
        recoveries = [o for o in straggles if o.slowdown == 1.0]
        assert onsets, "no straggler onsets observed"
        assert all(0.0 < o.slowdown < 1.0 for o in onsets)
        # Recoveries only exist for instances that lived long enough —
        # but any recovery must name a previously reported straggler.
        onset_ids = {o.instance_id for o in onsets}
        assert all(o.instance_id in onset_ids for o in recoveries)

    def test_stragglers_slow_jobs_down(self, catalog):
        """A straggler-degraded run can never finish earlier than the
        fault-free run of the same trace (no-packing: placements do not
        react, so the slowdown maps straight onto JCT)."""
        trace = _trace(seed=8)
        clean = run_simulation(trace, make_scheduler("no-packing", catalog))
        slowed = run_simulation(
            trace,
            make_scheduler("no-packing", catalog),
            failures=FailureConfig(
                enabled=True,
                straggler_rate_per_hour=1.0,
                straggler_slowdown=(0.3, 0.5),
                straggler_duration_s=3600.0,
                seed=8,
            ),
            validate=True,
        )
        assert slowed.makespan_hours >= clean.makespan_hours - 1e-9
        assert slowed.mean_jct_hours() >= clean.mean_jct_hours() - 1e-9


# ---------------------------------------------------------------------------
# Checkpoint boundary math (unit level)
# ---------------------------------------------------------------------------


class TestCheckpointBoundaries:
    def _job_rt(self, interval_s):
        job = next(iter(_trace(num_jobs=1, seed=0)))
        return _JobRT(
            job=job,
            arrival_s=0.0,
            ckpt_interval_s=interval_s,
            last_ckpt_s=0.0,
        )

    def test_advance_completes_crossed_boundaries_exactly(self):
        rt = self._job_rt(600.0)
        rt.rate = 1.0
        rt.advance(1500.0)  # crosses boundaries at 600 and 1200
        assert rt.work_done_h == pytest.approx(1500.0 / 3600.0)
        assert rt.last_ckpt_s == 1200.0
        assert rt.ckpt_work_h == pytest.approx(1200.0 / 3600.0)

    def test_no_boundary_no_checkpoint(self):
        rt = self._job_rt(600.0)
        rt.rate = 1.0
        rt.advance(599.0)
        assert rt.ckpt_work_h == 0.0
        assert rt.last_ckpt_s == 0.0

    def test_rate_change_between_boundaries_stays_exact(self):
        """The boundary work is computed under the rate that actually
        held there: advance → rate change → advance across boundary."""
        rt = self._job_rt(600.0)
        rt.rate = 1.0
        rt.advance(300.0)
        rt.rate = 0.5
        rt.advance(900.0)  # boundary at 600 under rate 0.5
        expected_at_600 = 300.0 / 3600.0 + 0.5 * 300.0 / 3600.0
        assert rt.ckpt_work_h == pytest.approx(expected_at_600)
        assert rt.work_done_h == pytest.approx(
            300.0 / 3600.0 + 0.5 * 600.0 / 3600.0
        )


# ---------------------------------------------------------------------------
# The eva-failure policy
# ---------------------------------------------------------------------------


def _snapshot(time_s=0.0, tasks=None, jobs=None, instances=()):
    return ClusterSnapshot(
        time_s=time_s,
        tasks=tasks or {},
        jobs=jobs or {},
        instances=tuple(instances),
    )


class TestFailureAwarePolicy:
    def _scheduler(self):
        """Eva with a failure signal, and the signal."""
        hazard = FailureHazard()
        return EvaScheduler(ec2_catalog(), signals=[hazard]), hazard

    def test_hazard_estimates_come_from_observations_only(self):
        sched, hazard = self._scheduler()
        sched.observe(
            (
                InstanceFailed(instance_id="i-a", time_s=100.0, failure_domain=0),
                InstanceFailed(instance_id="i-b", time_s=200.0, failure_domain=0),
                InstanceFailed(instance_id="i-c", time_s=300.0, failure_domain=1),
            )
        )
        sched.decide(_snapshot(time_s=7200.0))
        assert hazard.domain_hazard_per_hour() == {
            0: pytest.approx(1.0),
            1: pytest.approx(0.5),
        }

    def test_strikes_escalate_urgency_with_domain_weight(self):
        trace = _trace(num_jobs=2, seed=0)
        jobs = {j.job_id: j for j in trace}
        tasks = {t.task_id: t for j in trace for t in j.tasks}
        victim_job = sorted(jobs)[0]
        victim_task = next(
            t.task_id for t in tasks.values() if t.job_id == victim_job
        )
        instance = fresh_instance(ec2_catalog()[0])
        snap = _snapshot(
            time_s=3600.0,
            tasks=tasks,
            jobs=jobs,
            instances=[
                InstanceState(
                    instance=instance, task_ids=frozenset({victim_task})
                )
            ],
        )
        sched, hazard = self._scheduler()
        sched.decide(snap)  # remembers placements
        sched.observe(
            (
                InstanceFailed(
                    instance_id=instance.instance_id,
                    time_s=3700.0,
                    failure_domain=2,
                ),
            )
        )
        sched.decide(_snapshot(time_s=7200.0, tasks=tasks, jobs=jobs))
        # One strike, one observed domain → weight 1 → urgency 8.
        assert hazard.urgency == {victim_job: pytest.approx(8.0)}
        # A second strike from the same (now clearly hot) domain
        # compounds: min(64, 8**2 * weight) with weight 2 (two of the
        # domain's failures vs a 1-failure peer domain) caps at 64.
        sched.observe(
            (
                InstanceFailed(
                    instance_id="i-unattributed",
                    time_s=7300.0,
                    failure_domain=3,
                ),
            )
        )
        hazard._last_placements = {"i-x": frozenset({victim_job})}
        sched.observe(
            (
                InstanceFailed(
                    instance_id="i-x", time_s=7400.0, failure_domain=2
                ),
            )
        )
        sched.decide(_snapshot(time_s=9000.0, tasks=tasks, jobs=jobs))
        assert hazard.urgency == {victim_job: pytest.approx(64.0)}

    def test_strikes_prune_when_job_leaves(self):
        sched, hazard = self._scheduler()
        hazard._strikes["ghost"] = 2
        hazard._strike_domain["ghost"] = 1
        sched.decide(_snapshot(time_s=100.0))
        assert hazard._strikes == {}
        assert hazard.urgency == {}

    def test_straggler_drain_hides_instances_from_packing(self):
        sched, _ = self._scheduler()
        healthy = fresh_instance(ec2_catalog()[0])
        degraded = fresh_instance(ec2_catalog()[0])
        sched.observe(
            (
                StragglerReport(
                    instance_id=degraded.instance_id,
                    time_s=50.0,
                    slowdown=0.4,
                ),
            )
        )
        snap = _snapshot(
            time_s=100.0,
            instances=[
                InstanceState(instance=healthy, task_ids=frozenset()),
                InstanceState(instance=degraded, task_ids=frozenset()),
            ],
        )
        sched._pre_schedule(snap)
        packed = sched._packing_snapshot(snap)
        assert {st.instance_id for st in packed.instances} == {
            healthy.instance_id
        }
        # Recovery report restores visibility.
        sched.observe(
            (
                StragglerReport(
                    instance_id=degraded.instance_id,
                    time_s=200.0,
                    slowdown=1.0,
                ),
            )
        )
        sched._pre_schedule(snap)
        assert sched._packing_snapshot(snap) is snap

    def test_end_to_end_reacts_to_failures(self, catalog):
        """Under a hostile regime the policy actually engages: it sees
        failures, builds hazard estimates, and charges urgency."""

        class _Probe(FailureHazard):
            engaged = False

            def pre_round(self, snapshot):
                super().pre_round(snapshot)
                if self.urgency:
                    _Probe.engaged = True

        hazard = _Probe()
        sched = EvaScheduler(ec2_catalog(), signals=[hazard])
        result = run_simulation(
            _trace(num_jobs=14, seed=9),
            sched,
            failures=FailureConfig(
                enabled=True,
                crash_rate_per_hour=0.8,
                domain_shock_rate_per_hour=0.2,
                seed=9,
            ),
            validate=True,
        )
        assert result.instance_failures > 0
        assert hazard._total_failures == result.instance_failures
        assert _Probe.engaged, "urgency never charged despite failures"


# ---------------------------------------------------------------------------
# Fingerprint coverage
# ---------------------------------------------------------------------------


class TestFailureFingerprint:
    def _scenario(self, failures):
        return Scenario(
            scheduler="eva",
            trace=TraceSpec.make("synthetic", num_jobs=4, seed=0),
            failures=failures,
        )

    def test_every_knob_changes_the_fingerprint(self):
        base = FailureConfig(
            enabled=True,
            crash_rate_per_hour=0.2,
            domain_shock_rate_per_hour=0.1,
            straggler_rate_per_hour=0.3,
            retry=RetryPolicy(checkpoint_interval_s=900.0),
            seed=1,
        )
        from dataclasses import replace

        variants = [
            None,
            replace(base, crash_rate_per_hour=0.25),
            replace(base, domain_shock_rate_per_hour=0.15),
            replace(base, straggler_rate_per_hour=0.35),
            replace(base, num_domains=7),
            replace(base, straggler_slowdown=(0.2, 0.6)),
            replace(base, straggler_duration_s=1234.0),
            replace(base, seed=2),
            replace(base, retry=RetryPolicy(backoff_base_s=120.0)),
            replace(base, retry=RetryPolicy(checkpoint_interval_s=600.0)),
            replace(base, retry=RetryPolicy(checkpoint_overhead=0.05)),
        ]
        prints = {self._scenario(base).fingerprint()}
        for variant in variants:
            fp = self._scenario(variant).fingerprint()
            assert fp not in prints, f"knob not covered: {variant}"
            prints.add(fp)

    def test_fingerprint_stable_across_hash_seeds(self):
        """Same regression harness as the simulator hash-seed test: the
        failure-bearing fingerprint must be process-invariant (it keys
        the persistent result store)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_dir = Path(repro.__file__).resolve().parents[1]
        script = (
            "from repro.sim.batch import Scenario, TraceSpec\n"
            "from repro.sim.simulator import FailureConfig, RetryPolicy\n"
            "s = Scenario(scheduler='eva',\n"
            "             trace=TraceSpec.make('synthetic', num_jobs=4, seed=0),\n"
            "             failures=FailureConfig(enabled=True,\n"
            "                 crash_rate_per_hour=0.2,\n"
            "                 domain_shock_rate_per_hour=0.1,\n"
            "                 retry=RetryPolicy(checkpoint_overhead=0.02),\n"
            "                 seed=3))\n"
            "print(s.fingerprint())\n"
        )
        prints = set()
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            env["PYTHONPATH"] = (
                str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            prints.add(proc.stdout.strip())
        assert len(prints) == 1, f"hash-seed-dependent fingerprint: {prints}"


# ---------------------------------------------------------------------------
# Derived metrics
# ---------------------------------------------------------------------------


class TestDerivedMetrics:
    def test_goodput_accounts_lost_work(self, catalog):
        result = run_simulation(
            _trace(seed=10),
            make_scheduler("eva", catalog),
            failures=_crash_config(),
            validate=True,
        )
        assert result.work_lost_h > 0
        gross = result.total_work_hours + result.work_lost_h
        assert result.goodput_fraction == pytest.approx(
            result.total_work_hours / gross
        )
        assert not math.isnan(result.mean_mttr_s())

    def test_fault_free_run_reports_clean_reliability(self, catalog):
        result = run_simulation(_trace(seed=11), make_scheduler("eva", catalog))
        assert result.instance_failures == 0
        assert result.task_restarts == 0
        assert result.work_lost_h == 0.0
        assert result.goodput_fraction == 1.0
        assert result.mean_mttr_s() == 0.0
        assert result.failure_outcomes == ()
        assert result.repair_outcomes == ()
