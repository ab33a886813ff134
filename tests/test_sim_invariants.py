"""Property-style invariant checks over randomized small traces.

Every simulation — whatever the scheduler, seed, or spot configuration —
must preserve a few conservation laws:

* **No lost work**: every job in the trace either finishes (appears in
  the outcomes) or is still queued when the simulator stops; with the
  run-to-completion entry point that means *all* jobs finish, and the
  task counts match the trace exactly.
* **Billing floor**: the total bill is at least the cheapest hourly
  price times every instance's lifetime (spot runs use the discounted
  floor) — cost can exceed the floor (pricier SKUs) but never undercut
  it.
* **Time sanity**: the makespan covers the latest arrival and the latest
  finish, and no job finishes before it arrives or runs faster than its
  standalone duration.
* **Allocation sanity**: the time-weighted allocation integrator never
  reports a negative (or, with validation on, over-committed) ratio.
"""

from __future__ import annotations

import itertools
import pickle

import numpy as np
import pytest

import repro.cluster.instance as instance_module

from repro.cloud.catalog import ec2_catalog
from repro.cloud.delays import DelayModel
from repro.cloud.market import CreditModel, MarketConfig, MarketPool
from repro.cloud.provider import SPOT_DISCOUNT
from repro.cluster.resources import RESOURCE_NAMES
from repro.cluster.state import tasks_fit_on_type
from repro.core import EvaScheduler, make_scheduler, scheduler_names
from repro.core.interfaces import Scheduler
from repro.core.protocol import (
    AssignTask,
    DeadlineApproaching,
    MigrateTask,
    TerminateInstance,
    ThroughputReport,
    replay_decision,
)
from repro.sim.accounting import deadline_totals, failure_totals, naive_totals
from repro.sim.batch import Scenario, TraceSpec, run_batch
from repro.sim.metrics import AllocationIntegrator, SimulationResult
from repro.sim.simulator import (
    ClusterSimulator,
    FailureConfig,
    RetryPolicy,
    SpotConfig,
    run_simulation,
)
from repro.workloads.synthetic import synthetic_trace
from repro.workloads.trace import Trace
from test_full_reconfig import use_reference_scan

_EPS = 1e-6


def _random_trace(seed: int) -> Trace:
    """A small trace whose size/durations vary with the seed."""
    rng = np.random.default_rng(seed)
    num_jobs = int(rng.integers(3, 9))
    lo = float(rng.uniform(0.2, 0.6))
    hi = lo + float(rng.uniform(0.5, 2.0))
    return synthetic_trace(
        num_jobs,
        seed=seed,
        duration_range_hours=(lo, hi),
        name=f"invariant-{seed}",
    )


def check_invariants(
    trace: Trace, result: SimulationResult, price_floor_factor: float = 1.0
) -> None:
    # -- no lost jobs or tasks ----------------------------------------
    assert result.num_jobs == len(trace)
    assert {o.job_id for o in result.jobs} == {j.job_id for j in trace}
    assert result.num_tasks == trace.num_tasks()

    # -- billing floor -------------------------------------------------
    min_hourly = min(t.hourly_cost for t in ec2_catalog() if t.hourly_cost > 0)
    floor = min_hourly * price_floor_factor * sum(result.uptimes_hours)
    assert result.total_cost >= floor - _EPS
    assert result.total_cost > 0
    assert all(u >= 0 for u in result.uptimes_hours)
    assert len(result.uptimes_hours) == result.instances_launched

    # -- time sanity ---------------------------------------------------
    makespan_s = result.makespan_hours * 3600.0
    last_arrival_s = max(j.arrival_time_s for j in trace)
    assert makespan_s + _EPS >= last_arrival_s
    for outcome in result.jobs:
        assert makespan_s + _EPS >= outcome.finish_s
        assert outcome.finish_s + _EPS >= outcome.arrival_s
        assert outcome.idle_hours >= -_EPS
        # Interference only slows jobs down (throughput <= 1), so no job
        # can beat its standalone duration.
        assert outcome.jct_hours + _EPS >= outcome.duration_hours

    # -- allocation sanity ---------------------------------------------
    for resource in RESOURCE_NAMES:
        assert result.allocation[resource] >= 0.0
        assert result.allocation[resource] <= 1.0 + _EPS
    assert result.tasks_per_instance >= 0.0
    assert result.migrations >= 0
    assert result.placements >= 0
    assert result.preemptions >= 0

    # -- SLO accounting consistency ------------------------------------
    check_slo_consistency(trace, result)

    # -- failure accounting consistency --------------------------------
    check_failure_consistency(result)


def check_failure_consistency(result: SimulationResult) -> None:
    """The reliability records must be complete and self-consistent.

    * the result's restart and work-lost totals are the sums over its
      failure records (stored in dispatch order);
    * every repair span is non-negative and goodput is a fraction;
    * a fault-free run carries exactly the zero defaults (so its pickle
      stays byte-identical to the pre-failure-subsystem encoding).
    """
    restarts, lost = failure_totals(result.failure_outcomes)
    assert restarts == result.task_restarts
    assert lost == result.work_lost_h
    repairs = len(result.repair_outcomes)
    repair_s = 0.0
    for repair in result.repair_outcomes:
        repair_s += repair.recovered_s - repair.failed_s
    # statistics.mean is exact (fraction arithmetic); the float sum may
    # differ in the last ulp, so the *mean* is approx.
    assert result.mean_mttr_s() == pytest.approx(
        repair_s / repairs if repairs else 0.0, rel=1e-12, abs=0.0
    )
    for outcome in result.failure_outcomes:
        assert outcome.kind in ("crash", "domain-shock")
        assert outcome.tasks_lost >= 0
        assert outcome.instance_index >= 0
        assert all(l > 0.0 for _, l in outcome.job_losses)
    for repair in result.repair_outcomes:
        assert repair.recovered_s >= repair.failed_s
    assert 0.0 < result.goodput_fraction <= 1.0
    if not result.failure_outcomes:
        assert result.task_restarts == 0
        assert result.work_lost_h == 0.0
        assert result.repair_outcomes == ()
        assert result.goodput_fraction == 1.0


def check_slo_consistency(trace: Trace, result: SimulationResult) -> None:
    """The deadline-SLO records must be complete and self-consistent.

    * exactly the deadline-bearing trace jobs have a record;
    * every record's lateness re-derives from its own finish/deadline
      and from the matching :class:`~repro.sim.metrics.JobOutcome`;
    * attainment counts partition: met + missed == deadline-bearing
      jobs <= all jobs, and zero total lateness iff zero misses;
    * the result's miss count and total lateness are the sums over
      the records (stored in finish order).
    """
    deadline_jobs = {
        j.job_id: j for j in trace if j.deadline_hours is not None
    }
    records = result.deadline_outcomes
    assert {r.job_id for r in records} == set(deadline_jobs)
    assert len(records) == len(deadline_jobs)
    outcomes = {o.job_id: o for o in result.jobs}
    for record in records:
        job = deadline_jobs[record.job_id]
        outcome = outcomes[record.job_id]
        assert record.finish_s == outcome.finish_s
        assert record.deadline_s == pytest.approx(
            outcome.arrival_s + job.deadline_hours * 3600.0
        )
        assert record.lateness_s == max(
            0.0, record.finish_s - record.deadline_s
        )
        assert record.met == (record.lateness_s == 0.0)

    assert result.deadline_job_count == len(deadline_jobs)
    assert 0 <= result.deadline_miss_count <= result.deadline_job_count
    assert (
        result.deadline_met_count + result.deadline_miss_count
        == result.deadline_job_count
        <= result.num_jobs
    )
    assert result.deadline_miss_count == sum(1 for r in records if not r.met)
    assert (result.deadline_total_lateness_s == 0.0) == (
        result.deadline_miss_count == 0
    )
    assert 0.0 <= result.deadline_attainment <= 1.0
    if deadline_jobs:
        assert result.deadline_attainment == (
            result.deadline_met_count / result.deadline_job_count
        )
    else:
        assert result.deadline_attainment == 1.0
        assert result.deadline_total_lateness_s == 0.0

    misses, lateness = deadline_totals(records)
    assert misses == result.deadline_miss_count
    assert lateness == result.deadline_total_lateness_s


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("scheduler", ["eva", "stratus", "no-packing"])
def test_randomized_traces_preserve_invariants(scheduler, seed, catalog):
    trace = _random_trace(seed)
    result = run_simulation(
        trace, make_scheduler(scheduler, catalog), validate=True
    )
    check_invariants(trace, result)


@pytest.mark.parametrize("seed", [1, 4])
def test_spot_preemption_preserves_invariants(seed, catalog):
    trace = _random_trace(seed)
    result = run_simulation(
        trace,
        make_scheduler("eva", catalog),
        validate=True,
        spot=SpotConfig(enabled=True, preemption_rate_per_hour=0.5, seed=seed),
    )
    check_invariants(
        trace, result, price_floor_factor=SPOT_DISCOUNT
    )
    # Preempted tasks must be re-placed, never dropped.
    assert result.num_jobs == len(trace)


def test_invariants_hold_through_batch_layer():
    """The batch executor returns the same invariant-respecting results."""
    traces = [_random_trace(seed) for seed in (10, 11)]
    scenarios = [
        Scenario(scheduler=name, trace=trace, validate=True)
        for trace in traces
        for name in ("eva", "owl")
    ]
    outcomes = run_batch(scenarios, workers=2)
    for outcome in outcomes:
        trace = outcome.scenario.trace
        assert isinstance(trace, Trace)
        check_invariants(trace, outcome.result)


def test_results_identical_across_hash_seeds():
    """Simulations must not depend on hash-randomized set iteration.

    Regression test: Eva's repacking used to iterate ``frozenset``
    task-id fields directly, so tie-breaking (and float summation order)
    varied with ``PYTHONHASHSEED`` — two identical runs in different
    processes produced different costs.  This exact configuration
    (100-job Alibaba trace, Eva-RP, uniform 0.95 interference) diverged
    before the iteration order was pinned.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src_dir = Path(repro.__file__).resolve().parents[1]
    script = (
        "from repro.core import make_scheduler\n"
        "from repro.cloud.catalog import ec2_catalog\n"
        "from repro.sim.simulator import run_simulation\n"
        "from repro.workloads.alibaba import synthesize_alibaba_trace\n"
        "from repro.interference.model import InterferenceModel\n"
        "trace = synthesize_alibaba_trace(100, seed=0)\n"
        "r = run_simulation(trace, make_scheduler('eva-rp', ec2_catalog()),\n"
        "                   interference=InterferenceModel(uniform_value=0.95))\n"
        "print(f'{r.total_cost:.12f} {r.migrations} {r.placements} "
        "{r.makespan_hours:.10f}')\n"
    )
    outputs = set()
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.add(proc.stdout.strip())
    assert len(outputs) == 1, f"hash-seed-dependent results: {outputs}"


@pytest.mark.parametrize("scheduler", scheduler_names())
def test_results_independent_of_instance_id_start(scheduler, monkeypatch):
    """A run's result must not depend on how many instance ids its
    process minted before it (a long sweep or fabric worker).

    Regression test: ids were padded to six digits, so once the
    process-global counter passed ``i-999999`` new ids sorted before
    old ones and instance-id tie-breaks flipped.  The second run starts
    half its mint count below ``1_000_000``, so its ids straddle that
    boundary whatever the scheduler.
    """
    import itertools

    import repro.cluster.instance as instance_module

    trace = TraceSpec.make(
        "alibaba-replay",
        num_jobs=80,
        seed=1,
        arrival_rate_per_hour=40.0,
        clip_hours=4.0,
    ).build(default_seed=1)

    def run_from(start: int) -> tuple[bytes, int]:
        counter = itertools.count(start)
        monkeypatch.setattr(instance_module, "_instance_counter", counter)
        sim = ClusterSimulator(
            trace=trace, scheduler=make_scheduler(scheduler, ec2_catalog())
        )
        return pickle.dumps(sim.run()), next(counter) - start

    fresh, minted = run_from(1)
    assert minted >= 2
    straddling, minted_again = run_from(1_000_000 - minted // 2)
    assert minted_again == minted
    assert fresh == straddling


class _RecordingScheduler(Scheduler):
    """Transparent wrapper capturing every (snapshot, decision) pair."""

    def __init__(self, inner: Scheduler):
        self.inner = inner
        self.name = inner.name
        self.action_types = inner.action_types
        self.records: list[tuple] = []

    def schedule(self, snapshot):  # pragma: no cover - decide() is the path
        return self.inner.schedule(snapshot)

    def decide(self, snapshot, observations=()):
        decision = self.inner.decide(snapshot, observations)
        self.records.append((snapshot, decision))
        return decision


class TestActionConservation:
    """Action-level conservation laws over every round of real runs.

    For every decision an evaluation scheduler emits against a live
    snapshot: assignments target live tasks on capacity-respecting
    instances, terminations never strand a running task (a matching
    migrate/unassign must precede them in the stream), and the planned
    action stream round-trips — structurally replaying
    ``diff_target(snapshot, target)`` reproduces the target
    configuration exactly.
    """

    @staticmethod
    def _check_round(snapshot, decision):
        live_tasks = set(snapshot.tasks)
        for action in decision.actions:
            if isinstance(action, (AssignTask, MigrateTask)):
                assert action.task_id in live_tasks, (
                    f"action moves dead task {action.task_id}"
                )
        # replay_decision raises on: assigning an already-placed task,
        # migrating from the wrong source, terminating with tasks still
        # hosted (no matching unassign/migrate earlier in the stream),
        # and final-state over-subscription.
        final = replay_decision(snapshot, decision)
        # Terminated instances are really gone from the final state.
        for action in decision.actions:
            if isinstance(action, TerminateInstance):
                assert action.instance_id not in final
        # Per-instance capacity holds in the planned end state.
        instance_types = {
            st.instance_id: st.instance_type for st in snapshot.instances
        }
        for action in decision.actions:
            if hasattr(action, "instance"):  # LaunchInstance
                instance_types[action.instance_id] = (
                    action.instance.instance_type
                )
        for iid, task_ids in final.items():
            tasks = [snapshot.tasks[tid] for tid in sorted(task_ids)]
            assert tasks_fit_on_type(tasks, instance_types[iid]), iid
        # Round-trip: the planner's actions reproduce the target.
        if decision.target is not None:
            assert final == {
                ti.instance_id: ti.task_ids
                for ti in decision.target.instances
            }

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "scheduler", ["eva", "stratus", "synergy", "owl", "no-packing"]
    )
    def test_actions_conserve_tasks_and_instances(self, scheduler, seed, catalog):
        trace = _random_trace(seed)
        recorder = _RecordingScheduler(make_scheduler(scheduler, catalog))
        result = run_simulation(trace, recorder, validate=True)
        check_invariants(trace, result)
        assert recorder.records, "no scheduling rounds recorded"
        for snapshot, decision in recorder.records:
            self._check_round(snapshot, decision)

    @pytest.mark.parametrize("seed", [2, 5])
    def test_actions_conserve_under_spot_eviction_notices(self, seed, catalog):
        trace = _random_trace(seed)
        recorder = _RecordingScheduler(
            make_scheduler("eva-eviction-aware", catalog)
        )
        result = run_simulation(
            trace,
            recorder,
            validate=True,
            spot=SpotConfig(
                enabled=True,
                preemption_rate_per_hour=0.5,
                seed=seed,
                notice_s=600.0,
            ),
        )
        check_invariants(
            trace, result, price_floor_factor=SPOT_DISCOUNT
        )
        for snapshot, decision in recorder.records:
            self._check_round(snapshot, decision)


class _NaiveAccountingSimulator(ClusterSimulator):
    """The pre-incremental engine: re-scan the whole cluster per event.

    Uses the retained :func:`repro.sim.accounting.naive_totals` reference
    so the equivalence test below compares the incremental O(delta)
    accounting path against an independently derived ground truth.
    """

    def _account_until(self, time_s: float) -> None:
        dt = time_s - self._accounting_time_s
        if dt <= 0:
            return
        allocated, capacity, num_tasks, num_instances = naive_totals(
            self._instances, self._tasks
        )
        self._alloc.accumulate(dt, allocated, capacity, num_tasks, num_instances)
        self._accounting_time_s = time_s


class _RecomputingSimulator(ClusterSimulator):
    """The simulator without its per-round reuse: every round drops every
    kept report, queues every live job for the round-end re-rate and
    drops the snapshot caches, so each report, rate, job view and
    instance state is recomputed from the cluster state, as the
    whole-cluster sweeps did.  It bypasses ``_mark``, the mechanism
    under test, and an Eva scheduler's last-round evaluator, whose
    reuse rides on the snapshot's ``jobs`` mapping."""

    def _on_round(self) -> None:
        self._job_reports.clear()
        self._moved.update(self._jobs)
        self._reports_epoch = self._snapshot_epoch = -1
        self._reports_cache = self._instance_states = ()
        self._live_cache = None
        for irt in self._instances.values():
            irt.running_cache = irt.state_cache = None
        if isinstance(self.scheduler, EvaScheduler):
            self.scheduler._evaluator = None
        super()._on_round()


class _AllObservationsSimulator(ClusterSimulator):
    """The simulator building every observation kind, whatever the
    scheduler's ``observation_types`` leaves out: throughput reports
    each round, and deadline warnings whenever the trace has
    deadlines."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._builds_reports = True
        self._scans_deadlines = any(
            job.deadline_hours is not None for job in self.trace
        )


def _record_rounds(scheduler: Scheduler) -> list[tuple]:
    """Wrap ``scheduler.decide`` to record each round's inputs: the time,
    the task and job ids, each instance's id and task ids, and the
    observations."""
    rounds: list[tuple] = []
    decide = scheduler.decide

    def recording(snapshot, observations=()):
        rounds.append(
            (
                snapshot.time_s,
                tuple(snapshot.tasks),
                tuple(snapshot.jobs),
                tuple(
                    (st.instance_id, tuple(sorted(st.task_ids)))
                    for st in snapshot.instances
                ),
                observations,
            )
        )
        return decide(snapshot, observations)

    scheduler.decide = recording
    return rounds


class TestIncrementalAccountingEquivalence:
    """The O(delta) engine must be indistinguishable from a full re-scan."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scheduler", ["eva", "stratus", "no-packing"])
    def test_results_byte_identical_to_naive_reference(
        self, scheduler, seed, catalog
    ):
        trace = _random_trace(seed)
        results = []
        for sim_cls in (ClusterSimulator, _NaiveAccountingSimulator):
            sim = sim_cls(trace=trace, scheduler=make_scheduler(scheduler, catalog))
            results.append(sim.run())
        incremental, naive = results
        assert pickle.dumps(incremental) == pickle.dumps(naive)

    def test_spot_preemption_byte_identical_to_naive_reference(self, catalog):
        trace = _random_trace(2)
        spot = SpotConfig(enabled=True, preemption_rate_per_hour=0.5, seed=2)
        results = []
        for sim_cls in (ClusterSimulator, _NaiveAccountingSimulator):
            sim = sim_cls(
                trace=trace, scheduler=make_scheduler("eva", catalog), spot=spot
            )
            results.append(sim.run())
        assert pickle.dumps(results[0]) == pickle.dumps(results[1])

    def test_validate_mode_cross_checks_every_event(self, catalog):
        """validate=True asserts incremental == naive on every accounting
        step; a green run is itself an equivalence proof over the whole
        event stream."""
        trace = _random_trace(5)
        result = run_simulation(
            trace, make_scheduler("eva", catalog), validate=True
        )
        check_invariants(trace, result)


def _fuzz_scenario(seed: int) -> Scenario:
    """One seeded random scenario over the full configuration space.

    Draws scheduler (deadline-aware, eviction-aware, failure-aware, Eva,
    baselines) × spot market (off / on, with and without notice windows)
    × deadline knobs (fraction, tightness, warning horizon) × fault
    injection (crash/shock/straggler rates, retry backoff, checkpoint
    cadence and overhead) × period, on top of a seed-sized synthetic
    trace.  Everything derives from ``seed``, so a failing case replays
    exactly; ``validate=True`` arms the per-event accounting cross-check
    and decision replay inside the run itself.
    """
    rng = np.random.default_rng(100_000 + seed)
    scheduler = ["eva", "eva-deadline", "eva-eviction-aware", "stratus",
                 "no-packing", "owl"][int(rng.integers(6))]
    num_jobs = int(rng.integers(3, 10))
    deadline_fraction = float(rng.choice([0.0, 0.3, 0.7, 1.0]))
    slack_lo = float(rng.uniform(1.02, 1.8))
    slack_hi = slack_lo + float(rng.uniform(0.0, 1.5))
    builder_roll = rng.random()
    if builder_roll < 0.3:
        # Replay-trace axis: the densified Alibaba/Gavel builders (wide
        # Algorithm-1 pools), shrunk to fuzz size.  Durations are
        # clipped tight so the scenario stays fast.
        trace = TraceSpec.make(
            "alibaba-replay" if builder_roll < 0.15 else "gavel-replay",
            num_jobs=num_jobs,
            seed=seed,
            arrival_rate_per_hour=float(rng.choice([20.0, 40.0])),
            clip_hours=float(rng.choice([2.0, 6.0])),
        )
    else:
        trace = TraceSpec.make(
            "synthetic",
            num_jobs=num_jobs,
            seed=seed,
            duration_range_hours=(float(rng.uniform(0.2, 0.5)),
                                  float(rng.uniform(0.6, 2.5))),
            mean_interarrival_s=float(rng.choice([300.0, 600.0, 1200.0])),
            deadline_fraction=deadline_fraction,
            deadline_slack_range=(slack_lo, slack_hi),
        )
    spot = None
    if rng.random() < 0.4:
        spot = SpotConfig(
            enabled=True,
            preemption_rate_per_hour=float(rng.uniform(0.1, 0.6)),
            seed=seed,
            notice_s=float(rng.choice([0.0, 300.0, 600.0])),
        )
    deadline_warning_s = float(
        rng.choice([0.0, 600.0, 3600.0, 7 * 24 * 3600.0])
    )
    period_s = float(rng.choice([150.0, 300.0]))
    # Fault-injection axis (drawn last so earlier axes replay unchanged
    # for a given seed against the pre-failure fuzz corpus).
    failures = None
    if rng.random() < 0.5:
        retry = RetryPolicy(
            backoff_base_s=float(rng.choice([0.0, 60.0, 300.0])),
            checkpoint_interval_s=float(rng.choice([600.0, 1800.0])),
            checkpoint_overhead=float(rng.choice([0.0, 0.02, 0.05])),
        )
        failures = FailureConfig(
            enabled=True,
            crash_rate_per_hour=float(rng.choice([0.0, 0.2, 0.5])),
            domain_shock_rate_per_hour=float(rng.choice([0.0, 0.15])),
            straggler_rate_per_hour=float(rng.choice([0.0, 0.4])),
            num_domains=int(rng.integers(2, 5)),
            retry=retry,
            seed=seed,
        )
        if rng.random() < 0.4:
            scheduler = "eva-failure"
    # Spot-market axis (drawn last so earlier axes replay unchanged for
    # a given seed against the pre-market fuzz corpus).
    market = None
    if rng.random() < 0.4:
        volatility = float(rng.choice([0.0, 0.15, 0.4]))
        pools = (
            MarketPool(
                name="fuzz-c",
                families=("c7i",),
                volatility=volatility,
                step_s=float(rng.choice([600.0, 1800.0])),
                capacity=int(rng.choice([0, 3])),
                min_multiplier=float(rng.choice([0.25, 0.5])),
            ),
            MarketPool(
                name="fuzz-r",
                families=("r7i",),
                volatility=volatility,
                step_s=1800.0,
            ),
        )
        credits = None
        if rng.random() < 0.3:
            credits = CreditModel(
                families=("c7i", "r7i"),
                initial_credit_s=float(rng.choice([1800.0, 7200.0])),
            )
        market = MarketConfig(
            enabled=True,
            pools=pools,
            seed=seed,
            eviction_coupling=float(rng.choice([0.0, 1.0, 2.0])),
            credits=credits,
        )
        if rng.random() < 0.4:
            scheduler = "eva-market"
    return Scenario(
        scheduler=scheduler,
        trace=trace,
        name=f"fuzz-{seed}",
        spot=spot,
        period_s=period_s,
        validate=True,
        seed=seed,
        deadline_warning_s=deadline_warning_s,
        failures=failures,
        market=market,
    )


def _simulate(
    scenario: Scenario,
    scheduler: Scheduler,
    delay_model: DelayModel | None = None,
    sim_cls: type[ClusterSimulator] = ClusterSimulator,
) -> SimulationResult:
    """Run ``scenario``'s trace and environment under ``scheduler``."""
    sim = sim_cls(
        trace=scenario.trace.build(default_seed=scenario.seed),
        scheduler=scheduler,
        delay_model=delay_model,
        period_s=scenario.period_s,
        spot=scenario.spot,
        deadline_warning_s=scenario.deadline_warning_s,
        failures=scenario.failures,
        market=scenario.market,
    )
    return sim.run()


class TestFuzzedScenarioInvariants:
    """Property-style fuzz layer over the full scenario space.

    Every generated case — scheduler × spot/notice × deadlines ×
    warning horizon — must satisfy the conservation laws, keep the SLO
    and reliability records consistent with the result's totals, and
    produce byte-identical results serially and through the parallel
    batch path.
    """

    SEEDS = range(24)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzzed_scenario_preserves_invariants(self, seed):
        scenario = _fuzz_scenario(seed)
        outcome = run_batch([scenario], workers=1)[0]
        trace = scenario.trace.build(default_seed=scenario.seed)
        floor = 1.0
        if scenario.spot is not None and scenario.spot.enabled:
            floor = SPOT_DISCOUNT
        if scenario.market is not None and scenario.market.active:
            # Pool prices are clamped at min_multiplier, so the billing
            # floor scales by the deepest discount any pool can reach.
            floor *= min(p.min_multiplier for p in scenario.market.pools)
        check_invariants(trace, outcome.result, price_floor_factor=floor)

    def test_fuzzed_scenarios_deterministic_serial_vs_parallel(self):
        scenarios = [_fuzz_scenario(seed) for seed in self.SEEDS]
        serial = run_batch(scenarios, workers=1)
        parallel = run_batch(scenarios, workers=4)
        for s_out, p_out in zip(serial, parallel):
            assert pickle.dumps(s_out.result) == pickle.dumps(p_out.result), (
                s_out.scenario.name
            )

    def test_fuzz_space_actually_covers_deadlines_and_schedulers(self):
        """The generator must exercise the axes it claims to fuzz."""
        scenarios = [_fuzz_scenario(seed) for seed in self.SEEDS]
        assert len(scenarios) >= 20
        schedulers = {s.scheduler for s in scenarios}
        assert "eva-deadline" in schedulers
        assert "eva-failure" in schedulers
        assert len(schedulers) >= 4
        assert any(s.spot is not None and s.spot.notice_s > 0 for s in scenarios)
        assert any(s.spot is None for s in scenarios)
        builders = {s.trace.builder for s in scenarios}
        assert {"synthetic", "alibaba-replay", "gavel-replay"} <= builders
        deadline_jobs = 0
        for scenario in scenarios:
            trace = scenario.trace.build(default_seed=scenario.seed)
            deadline_jobs += sum(
                1 for j in trace if j.deadline_hours is not None
            )
        assert deadline_jobs > 10
        # Fault-injection axis: both arms populated, every fault family
        # drawn somewhere, and backoff/checkpoint knobs actually vary.
        with_faults = [s.failures for s in scenarios if s.failures is not None]
        assert with_faults and any(s.failures is None for s in scenarios)
        assert any(f.crash_rate_per_hour > 0 for f in with_faults)
        assert any(f.domain_shock_rate_per_hour > 0 for f in with_faults)
        assert any(f.straggler_rate_per_hour > 0 for f in with_faults)
        assert len({f.retry.checkpoint_overhead for f in with_faults}) > 1
        # Spot-market axis: both arms populated, volatile and finite
        # pools drawn somewhere, the coupled eviction path exercised,
        # and the market-aware policy in the scheduler mix.
        with_market = [s.market for s in scenarios if s.market is not None]
        assert with_market and any(s.market is None for s in scenarios)
        assert "eva-market" in schedulers
        assert any(
            any(p.volatility > 0 for p in m.pools) for m in with_market
        )
        assert any(
            any(p.capacity > 0 for p in m.pools) for m in with_market
        )
        assert any(m.eviction_coupling > 0 for m in with_market)
        assert any(m.credits is not None for m in with_market)


class TestReferenceScanByteIdentity:
    """End-to-end: a whole simulation with Algorithm 1's argmax swapped
    for the cache-free ``_ReferenceScan`` must be byte-identical to the
    stock ``_ArgmaxScan`` run — the scan's memos are mechanism only,
    never policy."""

    # Fuzz cases whose scheduler runs Algorithm 1: eva,
    # eva-eviction-aware, eva-failure, eva-deadline (urgency) and
    # eva-market.
    @pytest.mark.parametrize("seed", [0, 1, 2, 6, 13, 17])
    def test_fuzzed_scenarios_identical_to_reference_scan(
        self, seed, monkeypatch
    ):
        scenario = _fuzz_scenario(seed)
        catalog = ec2_catalog()
        results = []
        for reference in (False, True):
            built = use_reference_scan(monkeypatch) if reference else []
            results.append(
                _simulate(scenario, make_scheduler(scenario.scheduler, catalog))
            )
            assert bool(built) == reference
        assert pickle.dumps(results[0]) == pickle.dumps(results[1])

    def test_replay_trace_identical_to_reference_scan(self, monkeypatch):
        """A (shrunk) replay trace: wide Algorithm-1 pools."""
        spec = TraceSpec.make(
            "alibaba-replay",
            num_jobs=40,
            seed=1,
            arrival_rate_per_hour=40.0,
            clip_hours=4.0,
        )
        trace = spec.build(default_seed=1)
        catalog = ec2_catalog()
        results = []
        for reference in (False, True):
            built = use_reference_scan(monkeypatch) if reference else []
            sim = ClusterSimulator(
                trace=trace, scheduler=make_scheduler("eva", catalog)
            )
            results.append(sim.run())
            assert bool(built) == reference
        assert pickle.dumps(results[0]) == pickle.dumps(results[1])


#: Every registry preset built on EvaScheduler (variants and signals).
_EVA_PRESETS = tuple(
    name
    for name in scheduler_names()
    if isinstance(make_scheduler(name, ec2_catalog()), EvaScheduler)
)


class TestRoundMemoOracle:
    """The cross-round caches are mechanism only: with the round memo and
    ``PackMemo`` both switched off, every Eva preset must produce a
    byte-identical result on every fuzz case."""

    @staticmethod
    def _assert_cache_free_identical(preset, scenario, catalog, make_delays):
        """Run ``scenario`` cached and cache-free; each side builds its own
        delay model with ``make_delays`` and shares it between scheduler
        and simulator, as ``_execute_scenario`` does."""
        pickled = []
        for reference in (False, True):
            delays = make_delays()
            scheduler = make_scheduler(preset, catalog, delay_model=delays)
            assert scheduler._round_memo is not None
            assert scheduler._pack_memo is not None
            if reference:
                scheduler._round_memo = None
                scheduler._pack_memo = None
            result = _simulate(scenario, scheduler, delay_model=delays)
            pickled.append(pickle.dumps(result))
        assert pickled[0] == pickled[1]

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("preset", _EVA_PRESETS)
    def test_memo_free_run_is_identical(self, preset, seed, catalog):
        self._assert_cache_free_identical(
            preset, _fuzz_scenario(seed), catalog, DelayModel
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("preset", _EVA_PRESETS)
    def test_memo_free_run_is_identical_under_stochastic_delays(
        self, preset, seed, catalog
    ):
        """Migration pricing must not draw from the RNG the simulator
        samples real delays from, or a memo hit would shift the stream."""
        self._assert_cache_free_identical(
            preset,
            _fuzz_scenario(seed),
            catalog,
            lambda: DelayModel(stochastic=True, rng=np.random.default_rng(seed)),
        )


class TestRecomputingOracle:
    """The simulator's kept reports, marks, job views and instance states
    are mechanism only: against :class:`_RecomputingSimulator`, every
    round hands the scheduler equal inputs and the results are
    byte-identical.  Per-round inputs catch a missing mark that the
    results alone may hide (the scheduler can decide the same on a stale
    report).

    The reference also hands Eva a fresh observations tuple every round
    (its reports are rebuilt, so the tuple wrapping them is new), so it
    is the reference path for Eva's read-once tuple cache as well: a
    steady round there is read in full."""

    @staticmethod
    def _assert_recomputed_identical(monkeypatch, run):
        """``run(sim_cls)`` simulates under a fresh scheduler whose rounds
        :func:`_record_rounds` records, and returns (rounds, result)."""
        records = []
        for sim_cls in (ClusterSimulator, _RecomputingSimulator):
            # Snapshots carry instance ids, minted from a process-global
            # counter.
            monkeypatch.setattr(
                instance_module, "_instance_counter", itertools.count(1)
            )
            rounds, result = run(sim_cls)
            records.append((rounds, pickle.dumps(result)))
        (rounds, result), (reference_rounds, reference) = records
        assert rounds
        assert rounds == reference_rounds
        assert result == reference

    @pytest.mark.parametrize("seed", range(24))
    def test_fuzzed_scenario(self, seed, catalog, monkeypatch):
        scenario = _fuzz_scenario(seed)

        def run(sim_cls):
            scheduler = make_scheduler(scenario.scheduler, catalog)
            rounds = _record_rounds(scheduler)
            return rounds, _simulate(scenario, scheduler, sim_cls=sim_cls)

        self._assert_recomputed_identical(monkeypatch, run)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("scheduler", scheduler_names())
    def test_random_trace(self, scheduler, seed, catalog, monkeypatch):
        trace = _random_trace(seed)

        def run(sim_cls):
            policy = make_scheduler(scheduler, catalog)
            rounds = _record_rounds(policy)
            return rounds, sim_cls(trace=trace, scheduler=policy).run()

        self._assert_recomputed_identical(monkeypatch, run)


class TestObservationVocabularyOracle:
    """A scheduler's ``observation_types`` only spares the simulator
    work: every registered scheduler gives byte-identical results
    whether or not the simulator builds the kinds it leaves out."""

    @staticmethod
    def _assert_vocabulary_free_identical(monkeypatch, run):
        """``run(sim_cls)`` simulates under a fresh scheduler."""
        pickled = []
        for sim_cls in (ClusterSimulator, _AllObservationsSimulator):
            monkeypatch.setattr(
                instance_module, "_instance_counter", itertools.count(1)
            )
            pickled.append(pickle.dumps(run(sim_cls)))
        assert pickled[0] == pickled[1]

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("scheduler", scheduler_names())
    def test_fuzzed_scenario(self, scheduler, seed, catalog, monkeypatch):
        scenario = _fuzz_scenario(seed)
        self._assert_vocabulary_free_identical(
            monkeypatch,
            lambda sim_cls: _simulate(
                scenario, make_scheduler(scheduler, catalog), sim_cls=sim_cls
            ),
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("scheduler", scheduler_names())
    def test_random_trace(self, scheduler, seed, catalog, monkeypatch):
        trace = _random_trace(seed)
        self._assert_vocabulary_free_identical(
            monkeypatch,
            lambda sim_cls: sim_cls(
                trace=trace, scheduler=make_scheduler(scheduler, catalog)
            ).run(),
        )

    def test_reference_builds_what_the_vocabulary_skips(self, catalog):
        """The oracle compares two different paths: under No-Packing the
        stock simulator hands over no report or warning, the reference
        does."""
        scenario = next(
            scenario
            for scenario in map(_fuzz_scenario, range(24))
            if any(
                job.deadline_hours is not None
                for job in scenario.trace.build(default_seed=scenario.seed)
            )
        )
        kinds = []
        for sim_cls in (ClusterSimulator, _AllObservationsSimulator):
            scheduler = make_scheduler("no-packing", catalog)
            rounds = _record_rounds(scheduler)
            _simulate(scenario, scheduler, sim_cls=sim_cls)
            kinds.append({type(obs) for r in rounds for obs in r[-1]})
        stock, reference = kinds
        assert not stock & {ThroughputReport, DeadlineApproaching}
        assert {ThroughputReport, DeadlineApproaching} <= reference


class TestAllocationIntegrator:
    def test_never_reports_negative_allocation(self):
        integrator = AllocationIntegrator()
        zero = {r: 0.0 for r in RESOURCE_NAMES}
        some = {r: 2.0 for r in RESOURCE_NAMES}
        cap = {r: 4.0 for r in RESOURCE_NAMES}
        # Negative and zero intervals are ignored, not subtracted.
        integrator.accumulate(-5.0, some, cap, 3, 2)
        integrator.accumulate(0.0, some, cap, 3, 2)
        assert integrator.allocation_ratios() == {r: 0.0 for r in RESOURCE_NAMES}
        assert integrator.tasks_per_instance() == 0.0

        integrator.accumulate(10.0, some, cap, 3, 2)
        ratios = integrator.allocation_ratios()
        for resource in RESOURCE_NAMES:
            assert ratios[resource] == pytest.approx(0.5)
        assert integrator.tasks_per_instance() == pytest.approx(1.5)

        # An idle stretch dilutes but never drives ratios negative.
        integrator.accumulate(10.0, zero, cap, 0, 2)
        for value in integrator.allocation_ratios().values():
            assert 0.0 <= value <= 1.0
