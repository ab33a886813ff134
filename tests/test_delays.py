"""Unit tests for the Table 1 delay model."""

import math

import numpy as np
import pytest

from repro.cloud.delays import (
    ACQUISITION_MEAN_S,
    ACQUISITION_RANGE_S,
    CHECKPOINT_MEAN_S,
    DelayModel,
    LAUNCH_MEAN_S,
    SETUP_MEAN_S,
    SETUP_RANGE_S,
)


class TestDeterministic:
    def test_means(self):
        model = DelayModel()
        assert model.acquisition_s() == ACQUISITION_MEAN_S
        assert model.setup_s() == SETUP_MEAN_S
        assert model.checkpoint_s() == CHECKPOINT_MEAN_S
        assert model.launch_s() == LAUNCH_MEAN_S

    def test_instance_ready_combines(self):
        model = DelayModel()
        assert model.mean_instance_ready_s() == ACQUISITION_MEAN_S + SETUP_MEAN_S

    def test_workload_overrides(self):
        model = DelayModel()
        assert model.checkpoint_s(30.0) == 30.0
        assert model.launch_s(160.0) == 160.0


class TestMultipliers:
    def test_migration_multiplier_scales_job_delays_only(self):
        model = DelayModel(migration_multiplier=2.0)
        assert model.checkpoint_s(10.0) == 20.0
        assert model.launch_s(10.0) == 20.0
        assert model.acquisition_s() == ACQUISITION_MEAN_S

    @pytest.mark.parametrize("multiplier", [0.1, 0.5, 1.0, 1.7, 3.0, 10.0 / 3.0])
    def test_mean_instance_ready_matches_deterministic(self, multiplier):
        deterministic = DelayModel(instance_multiplier=multiplier)
        stochastic = DelayModel(stochastic=True, instance_multiplier=multiplier)
        expected = deterministic.acquisition_s() + deterministic.setup_s()
        assert deterministic.mean_instance_ready_s() == expected
        assert stochastic.mean_instance_ready_s() == expected

    def test_instance_multiplier_scales_instance_delays_only(self):
        model = DelayModel(instance_multiplier=3.0)
        assert model.acquisition_s() == 3 * ACQUISITION_MEAN_S
        assert model.setup_s() == 3 * SETUP_MEAN_S
        assert model.checkpoint_s(10.0) == 10.0

    @pytest.mark.parametrize("field", ["migration_multiplier", "instance_multiplier"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_multiplier_rejected_at_construction(self, field, value):
        """A NaN multiplier used to run to a NaN makespan, and a negative
        one to a mid-run SimulationError or instances ready before they
        were requested."""
        with pytest.raises(ValueError, match=field):
            DelayModel(**{field: value})

    def test_zero_multipliers_remove_the_delays(self):
        model = DelayModel(migration_multiplier=0.0, instance_multiplier=0.0)
        assert model.mean_instance_ready_s() == 0.0
        assert model.checkpoint_s(10.0) == model.launch_s() == 0.0


class TestStochastic:
    def test_samples_respect_published_ranges(self):
        model = DelayModel(stochastic=True, rng=np.random.default_rng(0))
        acq = [model.acquisition_s() for _ in range(300)]
        setup = [model.setup_s() for _ in range(300)]
        assert min(acq) >= ACQUISITION_RANGE_S[0]
        assert max(acq) <= ACQUISITION_RANGE_S[1]
        assert min(setup) >= SETUP_RANGE_S[0]
        assert max(setup) <= SETUP_RANGE_S[1]

    def test_sample_means_near_published(self):
        model = DelayModel(stochastic=True, rng=np.random.default_rng(1))
        acq = np.mean([model.acquisition_s() for _ in range(2000)])
        assert acq == pytest.approx(ACQUISITION_MEAN_S, rel=0.25)

    def test_workload_jitter_bounded(self):
        model = DelayModel(stochastic=True, rng=np.random.default_rng(2))
        values = [model.checkpoint_s(10.0) for _ in range(200)]
        assert all(8.0 <= v <= 12.0 for v in values)

    def test_deterministic_given_seed(self):
        a = DelayModel(stochastic=True, rng=np.random.default_rng(7))
        b = DelayModel(stochastic=True, rng=np.random.default_rng(7))
        assert [a.launch_s() for _ in range(5)] == [b.launch_s() for _ in range(5)]
