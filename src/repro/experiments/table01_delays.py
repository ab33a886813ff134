"""Table 1 — reconfiguration delays.

Samples the stochastic delay model (the "measured" mode used by the
fidelity experiment) and reports the observed range and average per delay
component next to the published numbers.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import ExperimentTable
from repro.cloud import delays as d
from repro.cloud.delays import DelayModel
from repro.experiments.common import scaled
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentSpec,
    register,
    run_experiment,
)


def _run(ctx: ExperimentContext) -> ExperimentTable:
    n = ctx.param("samples", scaled(500, minimum=100))
    model = DelayModel(stochastic=True, rng=np.random.default_rng(ctx.seed))
    columns = {
        "Instance Acquisition": (
            [model.acquisition_s() for _ in range(n)],
            d.ACQUISITION_RANGE_S,
            d.ACQUISITION_MEAN_S,
        ),
        "Instance Setup": (
            [model.setup_s() for _ in range(n)],
            d.SETUP_RANGE_S,
            d.SETUP_MEAN_S,
        ),
        "Job Checkpointing": (
            [model.checkpoint_s() for _ in range(n)],
            d.CHECKPOINT_RANGE_S,
            d.CHECKPOINT_MEAN_S,
        ),
        "Job Launching": (
            [model.launch_s() for _ in range(n)],
            d.LAUNCH_RANGE_S,
            d.LAUNCH_MEAN_S,
        ),
    }
    rows = []
    for name, (values, published_range, published_mean) in columns.items():
        arr = np.array(values)
        rows.append(
            (
                name,
                f"{arr.min():.0f} - {arr.max():.0f}",
                round(float(arr.mean()), 1),
                f"{published_range[0]:.0f} - {published_range[1]:.0f}",
                published_mean,
            )
        )
    return ExperimentTable(
        title="Table 1: reconfiguration delays (sampled vs published)",
        headers=(
            "Delay Type",
            "Sampled Range (s)",
            "Sampled Avg (s)",
            "Published Range (s)",
            "Published Avg (s)",
        ),
        rows=tuple(rows),
        notes=(f"{n} samples per component",),
    )


SPEC = register(
    ExperimentSpec(
        id="table01",
        title="Reconfiguration delays: sampled vs published Table 1",
        params={"samples": int},
        direct=_run,
    )
)


def run(samples: int | None = None, seed: int = 0) -> ExperimentTable:
    return run_experiment(
        SPEC, ExperimentContext(seed=seed, params={"samples": samples})
    ).value
