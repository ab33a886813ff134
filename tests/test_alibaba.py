"""Unit tests for the Alibaba-like trace synthesis (Tables 8/9)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import alibaba
from repro.workloads.alibaba import (
    ALIBABA_MEAN_H,
    AlibabaDurationModel,
    TABLE8_GPU_COMPOSITION,
    _brentq,
    _truncated_pareto_mean,
    remix_multi_gpu,
    remix_multi_task,
    solve_tail_alpha,
    synthesize_alibaba_trace,
)
from repro.workloads.gavel import (
    gavel_mean_hours,
    gavel_quantile_hours,
    sample_gavel_durations_hours,
)


class TestDurationModel:
    def test_quantile_anchors_exact(self):
        model = AlibabaDurationModel()
        assert model.inverse_cdf(0.5) == pytest.approx(0.2)
        assert model.inverse_cdf(0.8) == pytest.approx(1.0)
        assert model.inverse_cdf(0.95) == pytest.approx(5.2)

    def test_monotone_inverse_cdf(self):
        model = AlibabaDurationModel()
        us = np.linspace(0.0, 0.999, 200)
        values = [model.inverse_cdf(float(u)) for u in us]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_mean_matches_table9(self):
        model = AlibabaDurationModel()
        samples = model.sample(np.random.default_rng(0), 60_000)
        assert samples.mean() == pytest.approx(ALIBABA_MEAN_H, rel=0.15)

    def test_tail_alpha_positive(self):
        assert solve_tail_alpha() > 0

    def test_invalid_u_rejected(self):
        model = AlibabaDurationModel()
        with pytest.raises(ValueError):
            model.inverse_cdf(1.0)

    def test_tail_alpha_pinned(self):
        # Every Alibaba trace, golden digest and benchmark digest rests on it.
        assert solve_tail_alpha() == 0.06013255641061881

    @pytest.mark.parametrize("target", [0.5, 0.8, 10.02, 1000.0, math.nan])
    def test_unreachable_target_names_the_range(self, target):
        with pytest.raises(ValueError, match=r"unreachable: .*\[0\.835h, 10\.019h\]"):
            solve_tail_alpha(target_mean_h=target)


#: Smooth monotone functions with a root in (0, 0.5), and one decreasing
#: like the tail fit's own gap.
_MONOTONE = (
    lambda x: x**3 - 0.1,
    lambda x: math.atan(x - 0.3),
    lambda x: math.exp(x) - 1.5,
    lambda x: x + math.sin(x) / 2 - 0.2,
    lambda x: _truncated_pareto_mean(x + 0.5, 5.2, 1000.0) - 40.0,
)


class TestBrentPort:
    """``_brentq`` repeats scipy's C ``brentq`` step for step, so its
    results are equal to scipy's, not merely close."""

    @pytest.fixture(scope="class")
    def scipy_brentq(self):
        return pytest.importorskip("scipy.optimize").brentq

    def test_alibaba_solves_match_scipy(self, scipy_brentq, monkeypatch):
        targets = [ALIBABA_MEAN_H, *np.linspace(0.84, 10.0, 23).tolist()]
        ours = [solve_tail_alpha(t) for t in targets]
        monkeypatch.setattr(alibaba, "_brentq", scipy_brentq)
        assert ours == [solve_tail_alpha(t) for t in targets]

    @given(
        f=st.sampled_from(_MONOTONE),
        lo=st.floats(-0.45, 0.0),
        hi=st.floats(0.5, 50.0),
        flip=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_brackets_match_scipy(self, scipy_brentq, f, lo, hi, flip):
        a, b = (hi, lo) if flip else (lo, hi)
        assert _brentq(f, a, b) == scipy_brentq(f, a, b)

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("bad_x", [0.0, 0.5])  # an endpoint, a later step
    def test_nan_value_raises(self, bad_x):
        def f(x):
            return math.nan if x == bad_x else x - 0.5

        with pytest.raises(ValueError, match="NaN"):
            _brentq(f, 0.0, 1.0)

    def test_iteration_cap_raises(self):
        with pytest.raises(RuntimeError, match="converge"):
            _brentq(lambda x: -1.0 if x < 1.0 else 1.0, -1e300, 1e300)


class TestTraceComposition:
    def test_gpu_mix_matches_table8(self):
        trace = synthesize_alibaba_trace(6000, seed=0)
        mix = trace.gpu_demand_composition()
        for gpus, target in TABLE8_GPU_COMPOSITION:
            if target >= 0.01:
                assert mix.get(gpus, 0.0) == pytest.approx(target, abs=0.02)

    def test_every_job_feasible(self, catalog):
        from repro.core.reservation_price import ReservationPriceCalculator

        calc = ReservationPriceCalculator(catalog)
        trace = synthesize_alibaba_trace(500, seed=1)
        for job in trace:
            for task in job.tasks:
                calc.rp_type(task)  # raises InfeasibleTaskError if none fits

    def test_workload_labels_match_gpu_class(self):
        from repro.workloads.workloads import CPU_WORKLOADS, workload

        trace = synthesize_alibaba_trace(500, seed=2)
        for job in trace:
            demand = job.tasks[0].max_demand
            if demand.gpus == 0:
                assert job.workload in CPU_WORKLOADS
            else:
                assert workload(job.workload).is_gpu_workload

    def test_deterministic(self):
        a = synthesize_alibaba_trace(100, seed=3)
        b = synthesize_alibaba_trace(100, seed=3)
        assert a.to_json() == b.to_json()

    def test_arrival_rate_parameter(self):
        fast = synthesize_alibaba_trace(1000, seed=4, arrival_rate_per_hour=3.0)
        slow = synthesize_alibaba_trace(1000, seed=4, arrival_rate_per_hour=0.5)
        assert slow.span_hours() > fast.span_hours() * 3


class TestRemixes:
    def test_multi_gpu_fraction(self):
        base = synthesize_alibaba_trace(800, seed=5)
        remixed = remix_multi_gpu(base, 0.4, seed=5)
        multi = sum(
            1 for j in remixed if j.tasks[0].max_demand.gpus >= 2
        ) / len(remixed)
        assert multi == pytest.approx(0.4, abs=0.05)
        assert len(remixed) == len(base)

    def test_multi_gpu_preserves_non_gpu_jobs(self):
        base = synthesize_alibaba_trace(500, seed=6)
        remixed = remix_multi_gpu(base, 0.5, seed=6)
        base_cpu = sum(1 for j in base if j.tasks[0].max_demand.gpus == 0)
        remix_cpu = sum(1 for j in remixed if j.tasks[0].max_demand.gpus == 0)
        assert base_cpu == remix_cpu

    def test_multi_gpu_ratio_5_4_1(self):
        base = synthesize_alibaba_trace(3000, seed=7)
        remixed = remix_multi_gpu(base, 0.6, seed=7)
        counts = {2: 0, 4: 0, 8: 0}
        for job in remixed:
            g = int(job.tasks[0].max_demand.gpus)
            if g in counts:
                counts[g] += 1
        total = sum(counts.values())
        assert counts[2] / total == pytest.approx(0.5, abs=0.05)
        assert counts[4] / total == pytest.approx(0.4, abs=0.05)
        assert counts[8] / total == pytest.approx(0.1, abs=0.05)

    def test_multi_task_fraction_and_arity(self):
        base = synthesize_alibaba_trace(600, seed=8)
        remixed = remix_multi_task(base, 0.5, seed=8)
        assert remixed.multi_task_fraction() == pytest.approx(0.5, abs=0.05)
        arities = {j.num_tasks for j in remixed}
        assert arities <= {1, 2, 4}

    def test_multi_task_preserves_demands(self):
        base = synthesize_alibaba_trace(300, seed=9)
        remixed = remix_multi_task(base, 1.0, seed=9)
        for before, after in zip(base, remixed):
            assert (
                after.tasks[0].max_demand == before.tasks[0].max_demand
            )
            assert after.duration_hours == before.duration_hours

    def test_fraction_bounds(self):
        base = synthesize_alibaba_trace(50, seed=10)
        with pytest.raises(ValueError):
            remix_multi_gpu(base, 1.5)
        with pytest.raises(ValueError):
            remix_multi_task(base, -0.1)


class TestGavel:
    def test_closed_form_mean(self):
        assert gavel_mean_hours() == pytest.approx(16.7, abs=0.3)

    def test_closed_form_quantiles(self):
        assert gavel_quantile_hours(0.5) == pytest.approx(4.56, rel=0.02)
        assert gavel_quantile_hours(0.8) == pytest.approx(16.7, rel=0.02)
        assert gavel_quantile_hours(0.95) == pytest.approx(93.7, rel=0.02)

    def test_samples_match_closed_form(self):
        samples = sample_gavel_durations_hours(np.random.default_rng(0), 40_000)
        assert samples.mean() == pytest.approx(gavel_mean_hours(), rel=0.1)
        assert np.median(samples) == pytest.approx(
            gavel_quantile_hours(0.5), rel=0.1
        )
