"""Spot-market economics: price processes, billing splits, and eva-market.

Covers the market subsystem end to end:

* config validation (``MarketPool``/``MarketConfig``/``CreditModel``
  reject NaN/inf and out-of-range knobs);
* the seeded price process — deterministic, quantized, clamped, and
  replayable from explicit traces or CSV files;
* byte-identity with the market unset, disabled, or fully static (the
  no-market engine path must be indistinguishable from a build without
  the subsystem — including under legacy spot);
* mid-life billing splits (hand-computed two-segment bill) and the
  price-coupled eviction rate;
* the typed observation surface (``PriceChanged``, ``PoolExhausted``)
  and the ``eva-market`` policy: repriced reservation prices, bid
  ceiling, eviction-storm fallback, exhaust penalties;
* burstable credits (``CreditModel``) degrading throughput on
  exhaustion;
* fingerprint coverage for every market knob, stable across
  ``PYTHONHASHSEED``, and serial-vs-parallel batch determinism.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import replace

import pytest

from repro.cloud.catalog import ec2_catalog
from repro.cloud.market import (
    CreditModel,
    MarketConfig,
    MarketPool,
    MarketRuntime,
    load_price_trace_csv,
)
from repro.cloud.pricing import BillingLedger, BillingRecord
from repro.cluster.instance import InstanceType
from repro.cluster.resources import ResourceVector
from repro.cluster.state import ClusterSnapshot
from repro.core import make_scheduler
from repro.core.market import (
    EXHAUST_PENALTY,
    STORM_COOLDOWN_S,
    STORM_THRESHOLD,
    MarketPrices,
)
from repro.core.protocol import (
    PoolExhausted,
    PriceChanged,
    SpotEvictionNotice,
)
from repro.core.scheduler import EvaScheduler
from repro.sim.batch import Scenario, TraceSpec, reseed, run_batch
from repro.sim.simulator import SpotConfig, run_simulation
from repro.workloads.synthetic import synthetic_trace


def _trace(num_jobs=10, seed=0, **kwargs):
    kwargs.setdefault("mean_interarrival_s", 600.0)
    kwargs.setdefault("duration_range_hours", (0.2, 1.0))
    return synthetic_trace(num_jobs, seed=seed, name=f"mkt-{seed}", **kwargs)


def _itype(family):
    return next(it for it in ec2_catalog() if it.family == family)


def _volatile_market(seed=11, **config_kwargs):
    return MarketConfig(
        enabled=True,
        seed=seed,
        pools=(
            MarketPool(name="cpu-c", families=("c7i",), volatility=0.3, step_s=1800.0),
            MarketPool(name="cpu-r", families=("r7i",), volatility=0.3, step_s=1800.0),
        ),
        **config_kwargs,
    )


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_pool_rates_must_be_finite_nonnegative(self, bad):
        with pytest.raises(ValueError):
            MarketPool(name="p", volatility=bad)
        with pytest.raises(ValueError):
            MarketPool(name="p", base_multiplier=bad)
        with pytest.raises(ValueError):
            MarketPool(name="p", backlog_delay_s=bad)

    def test_pool_band_and_step_validated(self):
        with pytest.raises(ValueError):
            MarketPool(name="p", min_multiplier=2.0, max_multiplier=1.0)
        with pytest.raises(ValueError):
            MarketPool(name="p", step_s=0.0)
        with pytest.raises(ValueError):
            MarketPool(name="p", quantum=-0.05)
        with pytest.raises(ValueError):
            MarketPool(name="p", reversion=1.5)

    def test_trace_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            MarketPool(name="p", trace=((0.0, 1.0), (0.0, 2.0)))
        MarketPool(name="p", trace=((0.0, 1.0), (10.0, 2.0)))

    def test_trace_and_csv_mutually_exclusive(self):
        with pytest.raises(ValueError):
            MarketPool(name="p", trace=((0.0, 1.0),), trace_csv="x.csv")

    def test_pool_names_unique(self):
        with pytest.raises(ValueError):
            MarketConfig(
                enabled=True,
                pools=(MarketPool(name="p"), MarketPool(name="p")),
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_eviction_coupling_finite_nonnegative(self, bad):
        with pytest.raises(ValueError):
            MarketConfig(enabled=True, eviction_coupling=bad)

    def test_credit_model_fractions(self):
        with pytest.raises(ValueError):
            CreditModel(accrual_fraction=1.0)
        with pytest.raises(ValueError):
            CreditModel(baseline_fraction=0.0)
        with pytest.raises(ValueError):
            CreditModel(initial_credit_s=-1.0)
        model = CreditModel(initial_credit_s=1800.0, accrual_fraction=0.25)
        assert model.exhaustion_horizon_s == pytest.approx(2400.0)

    def test_runtime_requires_active_config(self):
        with pytest.raises(ValueError):
            MarketRuntime(MarketConfig())


# ---------------------------------------------------------------------------
# Price process
# ---------------------------------------------------------------------------


class TestPriceProcess:
    def test_walk_is_deterministic_and_lazy(self):
        config = _volatile_market(seed=5)
        times = [0.0, 900.0, 1800.0, 5400.0, 36000.0, 3600.0]
        first = MarketRuntime(config)
        second = MarketRuntime(config)
        # Querying out of order must not change the trajectory (the walk
        # is a pure function of (seed, pool, segment), never query order).
        a = [first.multiplier_at(_itype("c7i"), t) for t in times]
        b = [second.multiplier_at(_itype("c7i"), t) for t in sorted(times)]
        b_by_time = dict(zip(sorted(times), b))
        assert a == [b_by_time[t] for t in times]

    def test_segment_zero_is_base(self):
        rt = MarketRuntime(_volatile_market(seed=5))
        assert rt.multiplier_at(_itype("c7i"), 0.0) == 1.0
        assert rt.multiplier_at(_itype("c7i"), 1799.0) == 1.0

    def test_walk_respects_band_and_quantum(self):
        pool = MarketPool(
            name="p", families=("c7i",), volatility=1.5, step_s=600.0,
            min_multiplier=0.5, max_multiplier=2.0, quantum=0.05,
        )
        rt = MarketRuntime(MarketConfig(enabled=True, pools=(pool,), seed=3))
        for k in range(200):
            mult = rt.multiplier_at(_itype("c7i"), k * 600.0)
            assert 0.5 <= mult <= 2.0
            # On-band values sit on the quantum lattice.
            if 0.5 < mult < 2.0:
                assert math.isclose(mult / 0.05, round(mult / 0.05))

    def test_static_pool_never_moves(self):
        pool = MarketPool(name="p", families=("c7i",), base_multiplier=1.3)
        rt = MarketRuntime(MarketConfig(enabled=True, pools=(pool,), seed=3))
        assert rt.next_boundary_after(0, 0.0) is None
        assert rt.multiplier_at(_itype("c7i"), 1e6) == pytest.approx(1.3)

    def test_unpooled_family_is_par(self):
        rt = MarketRuntime(_volatile_market())
        assert rt.multiplier_at(_itype("p3"), 7200.0) == 1.0

    def test_replay_trace_steps_at_breakpoints(self):
        pool = MarketPool(
            name="p", families=("c7i",),
            trace=((0.0, 1.0), (600.0, 1.5), (1200.0, 0.8)),
        )
        rt = MarketRuntime(MarketConfig(enabled=True, pools=(pool,), seed=0))
        assert rt.multiplier_at(_itype("c7i"), 0.0) == 1.0
        assert rt.multiplier_at(_itype("c7i"), 599.0) == 1.0
        assert rt.multiplier_at(_itype("c7i"), 600.0) == 1.5
        assert rt.multiplier_at(_itype("c7i"), 5000.0) == pytest.approx(0.8)
        assert rt.next_boundary_after(0, 0.0) == 600.0
        assert rt.next_boundary_after(0, 600.0) == 1200.0
        assert rt.next_boundary_after(0, 1200.0) is None

    def test_csv_trace_loads(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "# time_s,multiplier\ntime_s,multiplier\n0,1.0\n600,1.4\n\n1200,0.9\n"
        )
        assert load_price_trace_csv(path) == ((0.0, 1.0), (600.0, 1.4), (1200.0, 0.9))


# ---------------------------------------------------------------------------
# Byte identity without a live market
# ---------------------------------------------------------------------------


class TestByteIdentity:
    def _run(self, scheduler="eva", **kwargs):
        catalog = ec2_catalog()
        return run_simulation(
            _trace(num_jobs=8, seed=3), make_scheduler(scheduler, catalog), **kwargs
        )

    def test_unset_disabled_and_static_all_identical(self):
        baseline = pickle.dumps(self._run(), protocol=5)
        disabled = self._run(market=MarketConfig())
        static = self._run(
            market=MarketConfig(
                enabled=True,
                pools=(MarketPool(name="flat", families=("c7i", "r7i", "p3")),),
            )
        )
        assert pickle.dumps(disabled, protocol=5) == baseline
        assert pickle.dumps(static, protocol=5) == baseline

    def test_legacy_spot_path_untouched_without_market(self):
        spot = SpotConfig(enabled=True, preemption_rate_per_hour=0.4, seed=4)
        baseline = self._run(spot=spot)
        disabled = self._run(spot=spot, market=MarketConfig())
        assert pickle.dumps(disabled, protocol=5) == pickle.dumps(
            baseline, protocol=5
        )
        assert baseline.preemptions > 0

    def test_market_scheduler_matches_eva_without_market(self):
        trace = _trace(num_jobs=8, seed=3)
        catalog = ec2_catalog()
        eva = run_simulation(trace, make_scheduler("eva", catalog))
        market = run_simulation(
            trace, EvaScheduler(catalog, name="Eva", signals=[MarketPrices()])
        )
        assert pickle.dumps(market, protocol=5) == pickle.dumps(eva, protocol=5)


# ---------------------------------------------------------------------------
# Billing splits
# ---------------------------------------------------------------------------


class TestBillingSplits:
    _TYPE = InstanceType(
        name="t.test", family="t", capacity=ResourceVector(0, 4, 16), hourly_cost=3.6
    )

    def test_two_segment_bill_hand_computed(self):
        ledger = BillingLedger()
        ledger.on_launch("i-1", self._TYPE, 0.0, hourly_rate=3.6)
        ledger.change_rate("i-1", 1800.0, 7.2)
        ledger.on_terminate("i-1", 3600.0)
        # 30 min at $3.6/h + 30 min at $7.2/h.
        assert ledger.total_cost(3600.0) == pytest.approx(3.6 * 0.5 + 7.2 * 0.5)
        record = ledger.records["i-1"]
        assert record.uptime_s(3600.0) == 3600.0
        assert ledger.instances_launched() == 1

    def test_never_rerated_record_uses_legacy_expression(self):
        record = BillingRecord("i-1", self._TYPE, launch_time_s=100.0)
        assert record.segment_start_s is None
        assert record.cost(1900.0) == pytest.approx(1800.0 * 3.6 / 3600.0)

    def test_rerate_guards(self):
        record = BillingRecord("i-1", self._TYPE, launch_time_s=0.0)
        record.change_rate(600.0, 1.0)
        with pytest.raises(ValueError):
            record.change_rate(500.0, 2.0)
        record.termination_time_s = 1200.0
        with pytest.raises(ValueError):
            record.change_rate(1300.0, 2.0)

    def test_simulated_cost_matches_repriced_rates(self):
        """A volatile market must actually move the bill (and count its
        re-rates), while leaving launch/uptime accounting untouched."""
        catalog = ec2_catalog()
        trace = _trace(num_jobs=8, seed=3)
        base = run_simulation(trace, make_scheduler("no-packing", catalog))
        priced = run_simulation(
            trace, make_scheduler("no-packing", catalog), market=_volatile_market()
        )
        assert priced.price_changes > 0
        assert priced.total_cost != base.total_cost
        assert priced.instances_launched == base.instances_launched


# ---------------------------------------------------------------------------
# Price-coupled evictions
# ---------------------------------------------------------------------------


class TestEvictionCoupling:
    def test_expensive_pool_evicts_harder(self):
        catalog = ec2_catalog()
        trace = _trace(num_jobs=10, seed=6)
        expensive = MarketConfig(
            enabled=True,
            seed=2,
            eviction_coupling=2.0,
            pools=(
                MarketPool(
                    name="hot", families=("c7i", "r7i"), base_multiplier=2.5,
                    max_multiplier=2.5,
                ),
            ),
        )
        spot = SpotConfig(enabled=True, preemption_rate_per_hour=0.15, seed=6)
        coupled = run_simulation(
            trace, make_scheduler("eva", catalog), spot=spot, market=expensive
        )
        uncoupled = run_simulation(
            trace,
            make_scheduler("eva", catalog),
            spot=spot,
            market=replace(expensive, eviction_coupling=0.0),
        )
        assert coupled.preemptions > uncoupled.preemptions


# ---------------------------------------------------------------------------
# Observation surface
# ---------------------------------------------------------------------------


class _Recorder:
    """Wraps a scheduler, taping every observation batch.

    The simulator enters through ``decide`` (which internally fans out
    to ``observe``), so that is the method to intercept.
    """

    def __init__(self, inner):
        self.inner = inner
        self.observations = []
        self.name = inner.name

    def decide(self, snapshot, observations):
        self.observations.extend(observations)
        return self.inner.decide(snapshot, observations)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


class TestObservationSurface:
    def test_price_changes_reach_the_scheduler(self):
        recorder = _Recorder(make_scheduler("eva", ec2_catalog()))
        result = run_simulation(
            _trace(num_jobs=8, seed=3), recorder, market=_volatile_market()
        )
        changes = [o for o in recorder.observations if isinstance(o, PriceChanged)]
        assert len(changes) == result.price_changes > 0
        assert any(c.multiplier != 1.0 for c in changes)
        for change in changes:
            assert change.pool in ("cpu-c", "cpu-r")
            assert change.multiplier != change.previous

    def test_exhausted_pool_emits_and_delays(self):
        tight = MarketConfig(
            enabled=True,
            seed=2,
            pools=(
                MarketPool(
                    name="tiny", families=("c7i", "r7i"), capacity=1,
                    backlog_delay_s=600.0,
                ),
            ),
        )
        recorder = _Recorder(make_scheduler("eva", ec2_catalog()))
        result = run_simulation(_trace(num_jobs=10, seed=4), recorder, market=tight)
        exhaustions = [
            o for o in recorder.observations if isinstance(o, PoolExhausted)
        ]
        assert len(exhaustions) == result.pool_exhaustions > 0
        assert all(o.pool == "tiny" for o in exhaustions)


# ---------------------------------------------------------------------------
# The eva-market policy
# ---------------------------------------------------------------------------


def _snapshot(time_s=0.0):
    return ClusterSnapshot(time_s=time_s, tasks={}, jobs={}, instances=())


class TestMarketAwarePolicy:
    def _scheduler(self):
        """Eva with a market signal, and the signal."""
        market = MarketPrices()
        return EvaScheduler(ec2_catalog(), signals=[market]), market

    def test_prices_come_from_observations_only(self):
        sched, market = self._scheduler()
        sched.observe(
            (
                PriceChanged(
                    pool="cpu-c", time_s=600.0, multiplier=1.4,
                    previous=1.0, families=("c7i",),
                ),
            )
        )
        sched._pre_schedule(_snapshot(900.0))
        repriced = {it.name: it for it in sched.catalog}
        stock = {it.name: it for it in market._stock_catalog}
        for name, itype in stock.items():
            expected = itype.hourly_cost * (1.4 if itype.family == "c7i" else 1.0)
            assert repriced[name].hourly_cost == pytest.approx(expected)
        assert sched.rp_calculator is not sched._stock_level[1]

    def test_par_price_restores_stock_objects(self):
        sched, _ = self._scheduler()
        catalog, calculator, caches = (
            sched.catalog, sched.rp_calculator, sched._tnrp_caches
        )
        sched.observe(
            (
                PriceChanged(
                    pool="cpu-c", time_s=600.0, multiplier=1.4,
                    previous=1.0, families=("c7i",),
                ),
            )
        )
        sched._pre_schedule(_snapshot(900.0))
        assert sched.rp_calculator is not calculator
        sched.observe(
            (
                PriceChanged(
                    pool="cpu-c", time_s=1200.0, multiplier=1.0,
                    previous=1.4, families=("c7i",),
                ),
            )
        )
        sched._pre_schedule(_snapshot(1500.0))
        assert sched.catalog is catalog
        assert sched.rp_calculator is calculator
        assert sched._tnrp_caches is caches

    def test_bid_ceiling_drops_covered_family_only(self):
        sched, market = self._scheduler()
        sched.observe(
            (
                PriceChanged(
                    pool="cpu-c", time_s=0.0, multiplier=2.0,
                    previous=1.0, families=("c7i",),
                ),
                PriceChanged(
                    pool="gpu", time_s=0.0, multiplier=2.0,
                    previous=1.0, families=("p3",),
                ),
            )
        )
        sched._pre_schedule(_snapshot(300.0))
        families = {it.family for it in sched.catalog}
        # c7i is covered by r7i (identical CPU shapes) and drops; p3 is
        # the only GPU capacity and must survive at its inflated price.
        assert "c7i" not in families
        assert "p3" in families
        p3 = next(it for it in sched.catalog if it.family == "p3")
        stock_p3 = next(it for it in market._stock_catalog if it.name == p3.name)
        assert p3.hourly_cost == pytest.approx(2.0 * stock_p3.hourly_cost)

    def test_eviction_storm_flips_use_spot_then_recovers(self):
        sched, _ = self._scheduler()
        notices = tuple(
            SpotEvictionNotice(instance_id=f"i-{k}", eviction_time_s=1000.0 + k)
            for k in range(STORM_THRESHOLD)
        )
        sched.observe(notices[:-1])
        sched._pre_schedule(_snapshot(1100.0))
        assert sched.use_spot is True  # one notice short of a storm
        sched.observe(notices[-1:])
        sched._pre_schedule(_snapshot(1100.0))
        assert sched.use_spot is False
        sched._pre_schedule(_snapshot(1100.0 + STORM_COOLDOWN_S - 1.0))
        assert sched.use_spot is False
        sched._pre_schedule(_snapshot(1100.0 + STORM_COOLDOWN_S))
        assert sched.use_spot is True

    def test_exhaust_penalty_lasts_one_round(self):
        sched, market = self._scheduler()
        sched.observe(
            (PoolExhausted(pool="tiny", time_s=0.0, families=("c7i",)),)
        )
        sched._pre_schedule(_snapshot(300.0))
        stock = {it.name: it for it in market._stock_catalog}
        assert {it.name for it in sched.catalog} == set(stock)
        for itype in sched.catalog:
            mult = EXHAUST_PENALTY if itype.family == "c7i" else 1.0
            assert itype.hourly_cost == pytest.approx(
                mult * stock[itype.name].hourly_cost
            )
        sched._pre_schedule(_snapshot(600.0))
        assert sched.catalog is market._stock_catalog

    def test_end_to_end_beats_blind_eva_on_volatile_market(self):
        """The acceptance shape at miniature scale: same volatile
        market, eva-market no costlier than blind Eva."""
        catalog = ec2_catalog()
        trace = _trace(num_jobs=12, seed=1)
        market = _volatile_market(seed=7, eviction_coupling=2.0)
        spot = SpotConfig(
            enabled=True, preemption_rate_per_hour=0.15, seed=1, notice_s=300.0
        )
        eva = run_simulation(
            trace, make_scheduler("eva", catalog), spot=spot, market=market
        )
        aware = run_simulation(
            trace, make_scheduler("eva-market", catalog), spot=spot, market=market
        )
        assert aware.total_cost <= eva.total_cost * 1.02


# ---------------------------------------------------------------------------
# Burstable credits
# ---------------------------------------------------------------------------


class TestCredits:
    def test_credit_exhaustion_slows_jobs(self):
        catalog = ec2_catalog()
        trace = _trace(num_jobs=8, seed=3, duration_range_hours=(1.0, 2.0))
        market = MarketConfig(
            enabled=True,
            seed=2,
            pools=(MarketPool(name="burst", families=("c7i", "r7i")),),
            credits=CreditModel(
                families=("c7i", "r7i"),
                initial_credit_s=1800.0,
                baseline_fraction=0.4,
            ),
        )
        burst = run_simulation(trace, make_scheduler("eva", catalog), market=market)
        flat = run_simulation(
            trace,
            make_scheduler("eva", catalog),
            market=replace(market, credits=None),
        )
        assert burst.credit_exhaustions > 0
        assert flat.credit_exhaustions == 0
        assert burst.mean_jct_hours() > flat.mean_jct_hours()


# ---------------------------------------------------------------------------
# Fingerprint coverage
# ---------------------------------------------------------------------------


class TestMarketFingerprint:
    def _scenario(self, market):
        return Scenario(
            scheduler="eva",
            trace=TraceSpec.make("synthetic", num_jobs=4, seed=0),
            market=market,
        )

    def test_every_knob_changes_the_fingerprint(self):
        pool = MarketPool(name="p", families=("c7i",), volatility=0.2)
        base = MarketConfig(enabled=True, pools=(pool,), seed=1)
        variants = [
            None,
            MarketConfig(),
            replace(base, seed=2),
            replace(base, eviction_coupling=1.0),
            replace(base, credits=CreditModel(families=("c7i",))),
            replace(base, pools=(replace(pool, volatility=0.25),)),
            replace(base, pools=(replace(pool, reversion=0.3),)),
            replace(base, pools=(replace(pool, step_s=600.0),)),
            replace(base, pools=(replace(pool, base_multiplier=1.1),)),
            replace(base, pools=(replace(pool, min_multiplier=0.5),)),
            replace(base, pools=(replace(pool, max_multiplier=3.0),)),
            replace(base, pools=(replace(pool, quantum=0.01),)),
            replace(base, pools=(replace(pool, capacity=4),)),
            replace(base, pools=(replace(pool, backlog_delay_s=300.0),)),
            replace(base, pools=(replace(pool, families=("r7i",)),)),
            replace(
                base,
                pools=(replace(pool, volatility=0.0, trace=((0.0, 1.0),)),),
            ),
        ]
        prints = {self._scenario(base).fingerprint()}
        for variant in variants:
            fp = self._scenario(variant).fingerprint()
            assert fp not in prints, f"knob not covered: {variant}"
            prints.add(fp)

    def test_fingerprint_stable_across_hash_seeds(self):
        """The market-bearing fingerprint must be process-invariant (it
        keys the persistent result store)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_dir = Path(repro.__file__).resolve().parents[1]
        script = (
            "from repro.cloud.market import CreditModel, MarketConfig, MarketPool\n"
            "from repro.sim.batch import Scenario, TraceSpec\n"
            "s = Scenario(scheduler='eva',\n"
            "             trace=TraceSpec.make('synthetic', num_jobs=4, seed=0),\n"
            "             market=MarketConfig(enabled=True, seed=3,\n"
            "                 eviction_coupling=1.5,\n"
            "                 credits=CreditModel(families=('c7i',)),\n"
            "                 pools=(MarketPool(name='p', families=('c7i',),\n"
            "                                   volatility=0.2),)))\n"
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
# Batch determinism
# ---------------------------------------------------------------------------


class TestBatchDeterminism:
    def _scenarios(self):
        return [
            Scenario(
                scheduler=scheduler,
                trace=TraceSpec.make("synthetic", num_jobs=6, seed=s),
                market=_volatile_market(seed=s),
                spot=SpotConfig(
                    enabled=True, preemption_rate_per_hour=0.2, seed=s,
                    notice_s=300.0,
                ),
                seed=s,
                name=f"{scheduler}-{s}",
            )
            for s, scheduler in enumerate(["eva", "eva-market", "no-packing"])
        ]

    def test_serial_vs_parallel_byte_identical(self):
        serial = run_batch(self._scenarios(), workers=1)
        parallel = run_batch(self._scenarios(), workers=4)
        for s_out, p_out in zip(serial, parallel):
            assert pickle.dumps(s_out.result) == pickle.dumps(p_out.result)
        assert any(o.result.price_changes > 0 for o in serial)

    def test_reseed_overrides_market_seed(self):
        scenario = self._scenarios()[0]
        reseeded = reseed(scenario, 99)
        assert reseeded.market.seed == 99
        assert reseeded.spot.seed == 99
        assert reseeded.seed == 99
        # Unset market stays unset.
        bare = Scenario(
            scheduler="eva", trace=TraceSpec.make("synthetic", num_jobs=4)
        )
        assert reseed(bare, 99).market is None
