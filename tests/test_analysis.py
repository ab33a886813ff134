"""Unit tests for reporting and the comparison harness."""

import numpy as np
import pytest

from repro.analysis.comparison import compare_schedulers, standard_scheduler_names
from repro.analysis.reporting import (
    ExperimentTable,
    percent,
    render_cdf,
    render_table,
)
from repro.workloads.synthetic import synthetic_trace


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(
            "Title", ("a", "bee"), [(1, 2.5), ("long-value", 0.001)]
        )
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[2] and "bee" in lines[2]
        assert "long-value" in text

    def test_experiment_table_column(self):
        table = ExperimentTable(
            title="t", headers=("x", "y"), rows=((1, 2), (3, 4))
        )
        assert table.column("y") == [2, 4]
        assert "t" in table.render()

    def test_notes_rendered(self):
        table = ExperimentTable(
            title="t", headers=("x",), rows=((1,),), notes=("hello",)
        )
        assert "note: hello" in table.render()

    def test_percent(self):
        assert percent(0.754) == "75.4%"

    def test_render_cdf(self):
        xs = np.array([1.0, 2.0, 3.0])
        ys = np.array([0.33, 0.66, 1.0])
        text = render_cdf("cdf", {"Eva": (xs, ys)}, points=5)
        assert "Eva" in text
        empty = render_cdf("cdf", {"none": (np.array([]), np.array([]))})
        assert "-" in empty


class TestComparison:
    def test_standard_names_cover_the_five_schedulers(self):
        assert sorted(standard_scheduler_names()) == [
            "Eva",
            "No-Packing",
            "Owl",
            "Stratus",
            "Synergy",
        ]

    def test_compare_and_tables(self):
        trace = synthetic_trace(8, seed=0)
        comparison = compare_schedulers(
            trace, {"No-Packing": "no-packing", "Eva": "eva"}
        )
        assert comparison.normalized_cost("No-Packing") == pytest.approx(1.0)
        e2e = comparison.end_to_end_table("x")
        assert len(e2e.rows) == 2
        alloc = comparison.allocation_table("y")
        assert "GPU Alloc" in alloc.headers
