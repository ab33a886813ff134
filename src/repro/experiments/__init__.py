"""Experiment drivers — one module per paper table/figure.

Every experiment is declared as an
:class:`~repro.experiments.registry.ExperimentSpec` (scenario grid
builder + aggregation + presentation) registered under its CLI id; the
registry imports the spec modules on its first lookup.  Drive them with
``python -m repro.experiments {list,run,report}`` or
:func:`~repro.experiments.registry.run_experiment`; each module also
keeps a thin ``run(...)`` shim returning its result object.
``EVA_BENCH_SCALE`` scales sizes (see :mod:`repro.experiments.common`).
"""

from repro.experiments.registry import (
    ExperimentContext,
    ExperimentRun,
    ExperimentSpec,
    all_specs,
    experiment_ids,
    get_experiment,
    run_experiment,
)

__all__ = [
    "ExperimentContext",
    "ExperimentRun",
    "ExperimentSpec",
    "all_specs",
    "experiment_ids",
    "get_experiment",
    "run_experiment",
]
