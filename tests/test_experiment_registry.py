"""ExperimentSpec registry tests: coverage, equivalence with directly
composed simulations, multi-seed presentation, and cache integration."""

from pathlib import Path

import pytest

import repro.experiments
from repro.analysis.comparison import STANDARD_SCHEDULERS, comparison_from_results
from repro.cloud.catalog import ec2_catalog
from repro.core import make_scheduler
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentSpec,
    ScenarioGrid,
    all_specs,
    experiment_ids,
    get_experiment,
    grid_cells,
    register,
    run_experiment,
)
from repro.interference.model import InterferenceModel
from repro.sim.batch import Scenario, run_batch
from repro.sim.results import ResultStore
from repro.sim.simulator import run_simulation
from repro.workloads.alibaba import (
    alibaba_gavel_trace,
    alibaba_multi_gpu_trace,
    alibaba_multi_task_trace,
    remix_multi_gpu,
    remix_multi_task,
    synthesize_alibaba_trace,
)
from repro.workloads.synthetic import small_physical_trace, synthetic_trace

ALL_IDS = {
    "deadline-slo",
    "reliability",
    "fig01", "fig04", "fig05", "fig06", "fig07", "fig08",
    "spot-eviction",
    "spot-market",
    "table01", "table04", "table05", "table06", "table07",
    "table08", "table09", "table10", "table11", "table12",
    "table13", "table14",
}

GRID_IDS = {
    "deadline-slo",
    "reliability",
    "fig04", "fig05", "fig06", "fig07", "fig08",
    "spot-eviction",
    "spot-market",
    "table06", "table10", "table11", "table13", "table14",
}


class TestRegistryCoverage:
    def test_every_experiment_registered(self):
        assert set(experiment_ids()) == ALL_IDS

    def test_every_spec_module_is_listed(self):
        """The registry loads the modules it lists; a spec module missing
        from the list would never register."""
        from repro.experiments.registry import _SPEC_MODULES

        package = Path(repro.experiments.__file__).parent
        modules = {p.stem for p in package.glob("*.py")}
        helpers = {"__init__", "__main__", "common", "registry"}
        assert set(_SPEC_MODULES) == modules - helpers

    def test_one_spec_module_imports_alone(self):
        """Importing a preset from one spec module loads no other (the
        spot-market benchmark workload does this at set-up)."""
        import os
        import subprocess
        import sys

        from repro.experiments.registry import _SPEC_MODULES

        src = str(Path(repro.experiments.__file__).parents[2])
        script = (
            "import sys\n"
            "from repro.experiments.spot_market import market_config\n"
            "print(*(m.rpartition('.')[2] for m in sys.modules"
            " if m.startswith('repro.experiments.')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        loaded = set(proc.stdout.split())
        assert loaded & set(_SPEC_MODULES) == {"spot_market"}

    def test_kinds(self):
        for spec in all_specs():
            expected = "grid" if spec.id in GRID_IDS else "direct"
            assert spec.kind == expected, spec.id

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            get_experiment("tableXX")

    def test_conflicting_registration_rejected(self):
        spec = get_experiment("table11")
        clone = ExperimentSpec(
            id="table11", title="imposter", build=spec.build, aggregate=spec.aggregate
        )
        with pytest.raises(ValueError):
            register(clone)

    def test_spec_shape_validated(self):
        with pytest.raises(ValueError):
            ExperimentSpec(id="bad", title="neither grid nor direct")


class TestEquivalence:
    """Single-seed registry runs == directly composed simulations."""

    def test_table11_byte_identical_to_manual_composition(self):
        run = run_experiment("table11", ExperimentContext(seed=0))

        catalog = ec2_catalog()
        trace = small_physical_trace(seed=0)
        manual = {}
        for display, registry_name in STANDARD_SCHEDULERS.items():
            manual[display] = run_simulation(
                trace, make_scheduler(registry_name, catalog)
            )
        expected = comparison_from_results(trace, manual).allocation_table(
            "Table 11: end-to-end experiment with 32 jobs"
        )
        assert run.value.table == expected
        assert run.presentation.text == expected.render()

    def test_run_shim_matches_registry(self):
        from repro.experiments import table11_e2e_small

        assert (
            table11_e2e_small.run().table
            == run_experiment("table11", ExperimentContext()).value.table
        )

    def test_named_remix_builders_match_inline_remixes(self):
        base = synthesize_alibaba_trace(40, seed=5)
        assert (
            alibaba_multi_gpu_trace(40, 0.4, seed=5).to_json()
            == remix_multi_gpu(base, 0.4, seed=5).to_json()
        )
        assert (
            alibaba_multi_task_trace(40, 0.4, seed=5).to_json()
            == remix_multi_task(base, 0.4, seed=5).to_json()
        )
        assert alibaba_gavel_trace(30, seed=2).name == "alibaba-gavel-30"


class TestGridExecution:
    def test_every_grid_spec_builds_a_consistent_grid(self):
        ctx = ExperimentContext(
            seed=0, params={"num_jobs": 20, "trials": 2, "jobs_per_trial": 6}
        )
        for spec_id in sorted(GRID_IDS):
            grid = get_experiment(spec_id).build(ctx)
            assert grid.cells, spec_id
            labels = {(c.point, c.display) for c in grid.cells}
            assert len(labels) == len(grid.cells), f"{spec_id}: duplicate cells"
            for cell in grid.cells:
                assert cell.scenario.name is not None

    def test_grid_cells_key_results_structurally(self):
        trace = synthetic_trace(3, seed=1)
        schedulers = {"No-Packing": "no-packing", "Eva": "eva"}
        grid = ScenarioGrid(
            cells=grid_cells(
                (0.9, 1.0),
                schedulers,
                lambda point, registry_name: Scenario(
                    scheduler=registry_name,
                    trace=trace,
                    interference=InterferenceModel(uniform_value=point),
                ),
            )
        )
        assert [s.name for s in grid.scenarios] == [
            "No-Packing@0.9", "Eva@0.9", "No-Packing@1.0", "Eva@1.0"
        ]
        outcomes = run_batch(grid.scenarios, workers=2)
        by_point = grid.results_by_point([o.result for o in outcomes])
        assert set(by_point) == {0.9, 1.0}
        for results in by_point.values():
            assert set(results) == set(schedulers)
            assert results["No-Packing"].scheduler_name == "No-Packing"
            assert results["Eva"].scheduler_name == "Eva"
            assert results["Eva"].num_jobs == len(trace)

    def test_cache_makes_second_run_simulation_free(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_experiment("table11", ExperimentContext(store=store))
        assert first.cache.misses == len(STANDARD_SCHEDULERS)
        second = run_experiment("table11", ExperimentContext(store=store))
        assert second.cache.misses == 0
        assert second.cache.hits == len(STANDARD_SCHEDULERS)
        assert second.presentation.text == first.presentation.text

    def test_multi_seed_emits_mean_std_columns(self, tmp_path):
        store = ResultStore(tmp_path)
        run = run_experiment(
            "table11", ExperimentContext(seeds=(0, 1), store=store)
        )
        assert run.seeds == (0, 1)
        [table] = run.presentation.tables
        assert "Norm. Cost" in table.headers
        assert all("±" in row[1] for row in table.rows)
        eva_row = next(row for row in table.rows if row[0] == "Eva")
        assert "±" in eva_row[2]
        # trial values come from the same scenarios a single-seed run uses
        aggregate = next(a for a in run.value if a.label == "Eva")
        single = run_experiment(
            "table11", ExperimentContext(seed=1, store=store)
        )
        assert aggregate.total_cost.values[1] == pytest.approx(
            single.value.comparison.results["Eva"].total_cost
        )

    def test_direct_specs_ignore_seeds(self):
        run = run_experiment(
            "table08", ExperimentContext(seeds=(0, 1), params={"num_jobs": 1000})
        )
        assert run.seeds is None
        assert len(run.value.rows) == 5

    def test_table06_opts_out_of_generic_reseeding(self):
        # Its grid axis already is a seed sweep; generic reseeding would
        # collapse every trial onto one seed, so seeds are ignored.
        assert get_experiment("table06").multi_seed is False
        run = run_experiment(
            "table06",
            ExperimentContext(
                seeds=(0, 1), params={"trials": 2, "jobs_per_trial": 6}
            ),
        )
        assert run.seeds is None
        assert set(run.value.norm_costs) == {"No-Packing", "Eva-Single", "Eva-Multi"}


class TestJsonPayload:
    def test_run_payload_shape(self, tmp_path):
        store = ResultStore(tmp_path)
        run = run_experiment("table11", ExperimentContext(store=store))
        payload = run.to_jsonable()
        assert payload["id"] == "table11"
        assert payload["kind"] == "grid"
        assert payload["cache"]["misses"] == 5
        assert payload["tables"][0]["headers"][0] == "Scheduler"
        assert payload["text"] == run.presentation.text
