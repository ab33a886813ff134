"""Tests for the parallel scenario/batch execution subsystem.

Covers the ISSUE-1 guarantees: per-scenario metrics are byte-identical
between serial and parallel execution (and across two parallel runs),
results come back in input order regardless of completion order, every
registry scheduler survives a smoke run, and the ``EVA_BENCH_WORKERS`` /
``EVA_BENCH_SCALE`` knobs reject malformed values (including the
NaN/inf values that previously slipped past the positivity guard).
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cloud.delays import DelayModel
from repro.core import make_scheduler, scheduler_names
from repro.experiments.common import bench_scale, scaled
from repro.interference.model import InterferenceModel
from repro.sim import batch
from repro.sim.batch import (
    Scenario,
    TraceSpec,
    bench_workers,
    parallel_map,
    run_batch,
    run_scenario,
)
from repro.sim.simulator import SpotConfig
from repro.workloads.synthetic import synthetic_trace


def _mixed_scenarios() -> list[Scenario]:
    """A small grid exercising interference, delays, spot, and specs."""
    trace = synthetic_trace(6, seed=11)
    return [
        Scenario(scheduler="eva", trace=trace, name="eva-plain", seed=11),
        Scenario(
            scheduler="owl",
            trace=trace,
            name="owl-uniform",
            interference=InterferenceModel(uniform_value=0.9),
            seed=11,
        ),
        Scenario(
            scheduler="stratus",
            trace=trace,
            name="stratus-stochastic-delays",
            delay_model=DelayModel(stochastic=True),
            seed=11,
        ),
        Scenario(
            scheduler="no-packing",
            trace=trace,
            name="no-packing-spot",
            spot=SpotConfig(enabled=True, preemption_rate_per_hour=0.2),
            seed=11,
        ),
        Scenario(
            scheduler="synergy",
            trace=TraceSpec.make("synthetic", num_jobs=5),
            name="synergy-spec",
            seed=7,
        ),
    ]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_serial_vs_parallel_byte_identical(self):
        scenarios = _mixed_scenarios()
        serial = run_batch(scenarios, workers=1)
        parallel = run_batch(scenarios, workers=4)
        assert len(serial) == len(parallel) == len(scenarios)
        for s_out, p_out in zip(serial, parallel):
            assert s_out.scenario.name == p_out.scenario.name
            assert pickle.dumps(s_out.result) == pickle.dumps(p_out.result)

    def test_two_parallel_runs_byte_identical(self):
        scenarios = _mixed_scenarios()
        first = run_batch(scenarios, workers=2)
        second = run_batch(scenarios, workers=2)
        for a, b in zip(first, second):
            assert pickle.dumps(a.result) == pickle.dumps(b.result)

    def test_serial_runs_do_not_leak_state_between_scenarios(self):
        # A stochastic DelayModel carries an RNG; executing the same
        # scenario object twice must not consume shared RNG state.
        scenario = Scenario(
            scheduler="eva",
            trace=synthetic_trace(4, seed=2),
            delay_model=DelayModel(stochastic=True),
        )
        twice = run_batch([scenario, scenario], workers=1)
        assert pickle.dumps(twice[0].result) == pickle.dumps(twice[1].result)


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------


def _job_count(label_and_jobs: tuple[str, int]) -> tuple[str, int]:
    return label_and_jobs


class TestOrdering:
    def test_results_in_input_order_despite_uneven_runtimes(self):
        # The first scenario is much larger than the rest, so with two
        # workers it finishes *last*; outcomes must still lead with it.
        big = Scenario(
            scheduler="eva", trace=synthetic_trace(18, seed=0), name="s0"
        )
        small = [
            Scenario(
                scheduler="no-packing",
                trace=synthetic_trace(2, seed=i),
                name=f"s{i}",
            )
            for i in range(1, 5)
        ]
        scenarios = [big, *small]
        outcomes = run_batch(scenarios, workers=2)
        assert [o.scenario.name for o in outcomes] == [s.name for s in scenarios]
        assert [o.result.scheduler_name for o in outcomes] == [
            "Eva",
            "No-Packing",
            "No-Packing",
            "No-Packing",
            "No-Packing",
        ]

    def test_parallel_map_preserves_order(self):
        items = [("x", 3), ("y", 1), ("z", 2)]
        assert parallel_map(_job_count, items, workers=2) == items

    def test_outcomes_carry_timing(self):
        outcome = run_scenario(
            Scenario(scheduler="no-packing", trace=synthetic_trace(2, seed=0))
        )
        assert outcome.elapsed_s > 0


# ---------------------------------------------------------------------------
# Worker-death resilience
# ---------------------------------------------------------------------------


def _square_or_die(x: int) -> int:
    import multiprocessing
    import os

    # Only die inside a pool worker: the serial retry runs in the parent
    # process, where parent_process() is None, and must succeed.
    if x == 2 and multiprocessing.parent_process() is not None:
        os._exit(1)
    return x * x


class TestWorkerDeath:
    def test_broken_pool_retries_serially_with_warning(self):
        """A worker dying mid-batch (OOM-killer territory) must not lose
        the batch: the poisoned items rerun serially in the parent."""
        with pytest.warns(RuntimeWarning, match="retrying"):
            results = parallel_map(_square_or_die, list(range(5)), workers=2)
        assert results == [0, 1, 4, 9, 16]

    def test_broken_pool_warning_names_the_poisoned_items(self):
        """The retry warning must say *which* items it is retrying —
        'a worker died' without labels is useless in a large sweep."""
        with pytest.warns(RuntimeWarning, match=r"serially in the parent process: .*2"):
            parallel_map(_square_or_die, list(range(5)), workers=2)

    def test_pool_broken_during_submission_retries_serially(
        self, monkeypatch
    ):
        """A worker can die before every item is submitted; the items
        never submitted must join the serial retry, not escape as
        ``BrokenProcessPool``."""

        class BreaksAfterTwoSubmits(ProcessPoolExecutor):
            submitted = 0

            def submit(self, fn, /, *args, **kwargs):
                if self.submitted == 2:
                    raise BrokenProcessPool("a worker died")
                self.submitted += 1
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(batch, "ProcessPoolExecutor", BreaksAfterTwoSubmits)
        with pytest.warns(RuntimeWarning, match=r"retrying 3 item\(s\).*: 2, 3, 4$"):
            results = parallel_map(_square_or_die, list(range(5)), workers=2)
        assert results == [0, 1, 4, 9, 16]

    def test_serial_path_unaffected(self):
        # workers=1 never enters the pool, so nothing dies.
        assert parallel_map(_square_or_die, [2], workers=1) == [4]


# ---------------------------------------------------------------------------
# Exception labelling
# ---------------------------------------------------------------------------


def _square_or_raise(x: int) -> int:
    if x == 3:
        raise ValueError("poisoned cell")
    return x * x


class _Labelled:
    def __init__(self, label: str) -> None:
        self.label = label


class TestExceptionLabelling:
    """Per-item exceptions must carry the originating item's label, so a
    poisoned cell in a thousand-scenario sweep is identifiable from the
    traceback alone (pool and serial paths alike)."""

    def test_pool_exception_names_item_index_and_label(self):
        with pytest.raises(ValueError, match="poisoned cell") as excinfo:
            parallel_map(_square_or_raise, list(range(5)), workers=2)
        assert any(
            "parallel_map item 3 (3) raised in its worker process" in note
            for note in excinfo.value.__notes__
        )

    def test_serial_exception_names_the_item(self):
        with pytest.raises(ValueError, match="poisoned cell") as excinfo:
            parallel_map(_square_or_raise, [0, 3], workers=1)
        assert any(
            "while executing item 3" in note for note in excinfo.value.__notes__
        )

    def test_custom_label_callable_is_used(self):
        with pytest.raises(ValueError) as excinfo:
            parallel_map(
                _square_or_raise, [3], workers=1, label=lambda x: f"cell-{x}"
            )
        assert any("cell-3" in note for note in excinfo.value.__notes__)

    def test_default_label_prefers_item_label_attribute(self):
        from repro.sim.batch import _item_label

        assert _item_label(_Labelled("eva/seed=3")) == "eva/seed=3"
        # An empty label falls back to repr, like any label-less item.
        assert _item_label(_Labelled("")).startswith("<")
        assert _item_label(12) == "12"
        long = "x" * 200
        rendered = _item_label(long)
        assert len(rendered) == 80 and rendered.endswith("...")

    def test_scenario_exception_carries_its_label(self):
        scenario = Scenario(
            scheduler="nonesuch", trace=synthetic_trace(2, seed=0), name="Bad"
        )
        with pytest.raises(KeyError) as excinfo:
            run_batch([scenario], workers=1)
        assert any(scenario.label in note for note in excinfo.value.__notes__)


# ---------------------------------------------------------------------------
# Cross-scheduler smoke matrix
# ---------------------------------------------------------------------------


class TestSchedulerMatrix:
    def test_every_registry_scheduler_completes_tiny_trace(self):
        trace = synthetic_trace(4, seed=5)
        names = scheduler_names()
        assert {"eva", "no-packing", "owl", "stratus", "synergy"} <= set(names)
        scenarios = [
            Scenario(scheduler=name, trace=trace, name=name, validate=True)
            for name in names
        ]
        outcomes = run_batch(scenarios, workers=2)
        for outcome in outcomes:
            result = outcome.result
            assert result.num_jobs == len(trace), outcome.scenario.name
            assert result.total_cost > 0, outcome.scenario.name
            assert result.makespan_hours > 0, outcome.scenario.name

    def test_registry_rejects_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            run_scenario(
                Scenario(scheduler="nonesuch", trace=synthetic_trace(2, seed=0))
            )

    def test_registry_normalizes_aliases(self, catalog):
        assert make_scheduler("No_Packing", catalog).name == "No-Packing"
        assert make_scheduler(" EVA-TNRP ", catalog).name == "Eva-TNRP"

    def test_registry_builds_fresh_instances(self, catalog):
        assert make_scheduler("eva", catalog) is not make_scheduler("eva", catalog)

    def test_trace_spec_rejects_unknown_builder(self):
        with pytest.raises(KeyError, match="unknown trace builder"):
            TraceSpec.make("nonesuch").build()


# ---------------------------------------------------------------------------
# Environment knobs
# ---------------------------------------------------------------------------


class TestWorkersKnob:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("EVA_BENCH_WORKERS", raising=False)
        assert bench_workers() == 1

    def test_parses_valid_value(self, monkeypatch):
        monkeypatch.setenv("EVA_BENCH_WORKERS", "4")
        assert bench_workers() == 4

    @pytest.mark.parametrize("raw", ["zero", "2.5", "", "nan"])
    def test_rejects_non_integers(self, monkeypatch, raw):
        monkeypatch.setenv("EVA_BENCH_WORKERS", raw)
        with pytest.raises(ValueError, match="must be an integer"):
            bench_workers()

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_rejects_non_positive(self, monkeypatch, raw):
        monkeypatch.setenv("EVA_BENCH_WORKERS", raw)
        with pytest.raises(ValueError, match=">= 1"):
            bench_workers()

    def test_run_batch_rejects_bad_workers_argument(self):
        with pytest.raises(ValueError, match=">= 1"):
            run_batch(
                [Scenario(scheduler="eva", trace=synthetic_trace(2, seed=0))],
                workers=0,
            )


class TestScaleKnob:
    def test_parses_valid_value(self, monkeypatch):
        monkeypatch.setenv("EVA_BENCH_SCALE", "2.0")
        assert bench_scale() == 2.0
        assert scaled(10) == 20

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_rejects_non_finite(self, monkeypatch, raw):
        monkeypatch.setenv("EVA_BENCH_SCALE", raw)
        with pytest.raises(ValueError, match="finite"):
            bench_scale()

    @pytest.mark.parametrize("raw", ["0", "-1.5"])
    def test_rejects_non_positive(self, monkeypatch, raw):
        monkeypatch.setenv("EVA_BENCH_SCALE", raw)
        with pytest.raises(ValueError, match="positive"):
            bench_scale()

    def test_rejects_junk(self, monkeypatch):
        monkeypatch.setenv("EVA_BENCH_SCALE", "big")
        with pytest.raises(ValueError, match="must be a float"):
            bench_scale()


class TestInfeasibleScenario:
    """A task no catalog type can host fails at the scenario boundary,
    before the scheduler is built or ``run()`` entered, and the error
    names the scenario."""

    @staticmethod
    def _scenario(scheduler, **kwargs):
        from repro.cluster.resources import ResourceVector
        from repro.cluster.task import make_job
        from repro.workloads.trace import Trace

        job = make_job("big", {"*": ResourceVector(64, 8, 32)}, 1.0, job_id="big-1")
        return Scenario(
            scheduler, Trace(name="big", jobs=(job,)), name="too-big", **kwargs
        )

    @pytest.fixture()
    def no_run(self, monkeypatch):
        from repro.sim.simulator import ClusterSimulator

        entered = []
        monkeypatch.setattr(
            ClusterSimulator, "run", lambda self: entered.append(self)
        )
        yield
        assert not entered

    @pytest.mark.parametrize("scheduler", ["eva", "eva-rp", "no-packing"])
    def test_names_scenario_fingerprint_and_task(self, scheduler, no_run):
        scenario = self._scenario(scheduler)
        with pytest.raises(batch.InfeasibleScenarioError) as info:
            run_scenario(scenario)
        assert isinstance(info.value, ValueError)
        message = str(info.value)
        assert message.startswith(
            f"scenario too-big (fingerprint {scenario.fingerprint()[:12]}): "
        )
        assert "task big-1/t0 (big) fits no instance type" in message

    def test_says_when_the_scenario_has_no_fingerprint(self, no_run):
        scenario = self._scenario("eva", delay_model=DelayModel(stochastic=True))
        with pytest.raises(batch.InfeasibleScenarioError, match=r"\(no fingerprint\)"):
            run_scenario(scenario)

    def test_parallel_batch_raises_it_too(self):
        scenarios = [self._scenario("no-packing")] * 2
        with pytest.raises(batch.InfeasibleScenarioError, match="scenario too-big"):
            run_batch(scenarios, workers=2)
