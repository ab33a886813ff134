"""Reporting, comparison, and static-analysis utilities.

Two families live here:

* Experiment-output tooling: charts, scheduler comparisons, tables.
* The determinism & invariant linter (``python -m repro.analysis``) —
  see :mod:`repro.analysis.runner` and ``docs/static-analysis.md``.
"""

from repro.analysis.charts import line_chart, sweep_chart
from repro.analysis.comparison import (
    STANDARD_SCHEDULERS,
    ComparisonResult,
    compare_schedulers,
    standard_scheduler_names,
)
from repro.analysis.findings import Finding
from repro.analysis.reporting import (
    ExperimentTable,
    percent,
    render_cdf,
    render_table,
)
from repro.analysis.runner import AnalysisReport, run_analysis

__all__ = [
    "AnalysisReport",
    "Finding",
    "run_analysis",
    "line_chart",
    "sweep_chart",
    "STANDARD_SCHEDULERS",
    "ComparisonResult",
    "compare_schedulers",
    "standard_scheduler_names",
    "ExperimentTable",
    "percent",
    "render_cdf",
    "render_table",
]
