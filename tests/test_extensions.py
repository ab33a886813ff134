"""Tests for the spot-market and JCT-margin extensions."""

import math

import pytest

from repro.baselines import NoPackingScheduler
from repro.cloud.catalog import ec2_catalog
from repro.cloud.provider import SimulatedCloud
from repro.cluster.instance import InstanceType
from repro.cluster.resources import ResourceVector
from repro.core.evaluation import RPEvaluator
from repro.core.full_reconfig import configuration_cost, full_reconfiguration
from repro.core.reservation_price import ReservationPriceCalculator
from repro.core.scheduler import EvaConfig, EvaScheduler
from repro.sim.simulator import SpotConfig, run_simulation
from repro.workloads.synthetic import microbench_task_pool, synthetic_trace

IT = InstanceType("t", "f", ResourceVector(0, 4, 8), 1.0)


class TestSpotProvider:
    def test_spot_rate_discounted(self):
        cloud = SimulatedCloud()
        receipt = cloud.launch(IT, 0.0, spot=True)
        assert receipt.spot
        assert receipt.hourly_rate == pytest.approx(0.3)
        assert cloud.total_cost(3600.0) == pytest.approx(0.3)

    def test_on_demand_rate_unchanged(self):
        cloud = SimulatedCloud()
        receipt = cloud.launch(IT, 0.0, spot=False)
        assert not receipt.spot
        assert receipt.hourly_rate == pytest.approx(1.0)


class TestSpotSimulation:
    def test_spot_run_cheaper_but_longer(self, catalog):
        trace = synthetic_trace(15, seed=1)
        on_demand = run_simulation(trace, NoPackingScheduler(catalog))
        spot = run_simulation(
            trace,
            NoPackingScheduler(catalog),
            spot=SpotConfig(enabled=True, preemption_rate_per_hour=0.2, seed=3),
        )
        assert spot.num_jobs == on_demand.num_jobs  # everything completes
        assert spot.total_cost < on_demand.total_cost
        assert spot.preemptions > 0
        # Preemptions re-queue work: JCT cannot improve.
        assert spot.mean_jct_hours() >= on_demand.mean_jct_hours() - 1e-9

    def test_no_preemptions_without_spot(self, catalog):
        trace = synthetic_trace(8, seed=2)
        result = run_simulation(trace, NoPackingScheduler(catalog))
        assert result.preemptions == 0

    def test_spot_with_eva(self, catalog):
        trace = synthetic_trace(12, seed=4)
        result = run_simulation(
            trace,
            EvaScheduler(catalog),
            spot=SpotConfig(enabled=True, preemption_rate_per_hour=0.1, seed=5),
            validate=True,
        )
        assert result.num_jobs == 12

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            SpotConfig(enabled=True, preemption_rate_per_hour=0.0)


class TestEfficiencyMargin:
    def test_zero_margin_is_paper_behavior(self, example_catalog, example_tasks):
        calc = ReservationPriceCalculator(example_catalog)
        base = full_reconfiguration(
            example_tasks, example_catalog, RPEvaluator(calc)
        )
        with_margin = full_reconfiguration(
            example_tasks, example_catalog, RPEvaluator(calc), cost_margin=0.0
        )
        assert configuration_cost(base) == configuration_cost(with_margin)

    def test_margin_blocks_thin_colocations(self, example_catalog, example_tasks):
        """The worked example's it1 packing clears cost by 15.4/12 = 1.28;
        a 40% margin must break it apart."""
        calc = ReservationPriceCalculator(example_catalog)
        packed = full_reconfiguration(
            example_tasks, example_catalog, RPEvaluator(calc), cost_margin=0.4
        )
        sizes = sorted(len(p.tasks) for p in packed)
        assert sizes == [1, 1, 1, 1]
        assert configuration_cost(packed) == pytest.approx(16.2)

    def test_margin_keeps_fat_colocations(self, example_catalog, example_tasks):
        calc = ReservationPriceCalculator(example_catalog)
        packed = full_reconfiguration(
            example_tasks, example_catalog, RPEvaluator(calc), cost_margin=0.1
        )
        # 15.4 >= 12 * 1.1 = 13.2: the it1 co-location survives.
        assert configuration_cost(packed) == pytest.approx(12.8)

    def test_all_tasks_still_placed_under_margin(self):
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        tasks = microbench_task_pool(60, seed=6)
        packed = full_reconfiguration(
            tasks, catalog, RPEvaluator(calc), cost_margin=0.5
        )
        assert sum(len(p.tasks) for p in packed) == 60

    def test_negative_margin_rejected(self, example_catalog, example_tasks):
        calc = ReservationPriceCalculator(example_catalog)
        with pytest.raises(ValueError):
            full_reconfiguration(
                example_tasks, example_catalog, RPEvaluator(calc), cost_margin=-0.1
            )
        with pytest.raises(ValueError):
            EvaConfig(efficiency_margin=-1.0)

    @pytest.mark.parametrize("margin", [math.nan, math.inf])
    def test_non_finite_margin_rejected(self, example_catalog, example_tasks, margin):
        """NaN used to pass the ``< 0`` checks and fail later inside
        Algorithm 1 as a packing failure."""
        calc = ReservationPriceCalculator(example_catalog)
        with pytest.raises(ValueError, match="cost_margin"):
            full_reconfiguration(
                example_tasks, example_catalog, RPEvaluator(calc), cost_margin=margin
            )
        with pytest.raises(ValueError, match="efficiency_margin"):
            EvaConfig(efficiency_margin=margin)

    def test_margin_trades_cost_for_throughput(self, catalog):
        """End to end: margin > 0 lifts throughput, costs more."""
        trace = synthetic_trace(25, seed=7)
        plain = run_simulation(
            trace, EvaScheduler(catalog, config=EvaConfig())
        )
        cautious = run_simulation(
            trace, EvaScheduler(catalog, config=EvaConfig(efficiency_margin=0.6))
        )
        assert cautious.mean_normalized_tput() >= plain.mean_normalized_tput() - 1e-6
        assert cautious.total_cost >= plain.total_cost * 0.95
