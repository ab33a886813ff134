"""Tables 7, 8 and 9 — workload and trace statistics renders.

These are data tables rather than experiments; rendering them validates
the transcription (Table 7) and the trace generators' distributional
match (Tables 8 and 9).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import ExperimentTable
from repro.experiments.common import scaled
from repro.experiments.registry import (
    ExperimentSpec,
    register,
)
from repro.workloads.alibaba import (
    TABLE8_GPU_COMPOSITION,
    synthesize_alibaba_trace,
)
from repro.workloads.gavel import sample_gavel_durations_hours
from repro.workloads.workloads import TABLE7_WORKLOADS


def run_table7() -> ExperimentTable:
    rows = tuple(
        (
            w.name,
            w.description,
            int(w.gpus),
            f"{w.cpus_p3:g}" + (f" ({w.cpus_other:g})" if w.cpus_other != w.cpus_p3 else ""),
            int(w.ram_gb),
            int(w.checkpoint_s),
            int(w.launch_s),
            w.tasks_per_job,
        )
        for w in TABLE7_WORKLOADS
    )
    return ExperimentTable(
        title="Table 7: evaluated workloads and per-task resource demands",
        headers=(
            "Workload",
            "Description",
            "GPU",
            "CPU (C7i/R7i)",
            "RAM (GB)",
            "Ckpt (s)",
            "Launch (s)",
            "Tasks/Job",
        ),
        rows=rows,
    )


def run_table8(num_jobs: int | None = None, seed: int = 0) -> ExperimentTable:
    num_jobs = num_jobs if num_jobs is not None else scaled(4000, minimum=1000)
    trace = synthesize_alibaba_trace(num_jobs, seed=seed)
    generated = trace.gpu_demand_composition()
    rows = tuple(
        (
            gpus,
            f"{target * 100:.2f}%",
            f"{generated.get(gpus, 0.0) * 100:.2f}%",
        )
        for gpus, target in TABLE8_GPU_COMPOSITION
    )
    return ExperimentTable(
        title=f"Table 8: job composition by GPU demand ({num_jobs} generated jobs)",
        headers=("GPU Demand", "Published", "Generated"),
        rows=rows,
    )


def run_table9(num_jobs: int | None = None, seed: int = 0) -> ExperimentTable:
    num_jobs = num_jobs if num_jobs is not None else scaled(4000, minimum=1000)
    trace = synthesize_alibaba_trace(num_jobs, seed=seed)
    ali = np.array([j.duration_hours for j in trace.jobs])
    gavel = sample_gavel_durations_hours(np.random.default_rng(seed), num_jobs)
    rows = (
        (
            "Alibaba",
            round(float(ali.mean()), 1),
            round(float(np.median(ali)), 1),
            round(float(np.quantile(ali, 0.8)), 1),
            round(float(np.quantile(ali, 0.95)), 1),
            "9.1 / 0.2 / 1.0 / 5.2",
        ),
        (
            "Gavel",
            round(float(gavel.mean()), 1),
            round(float(np.median(gavel)), 1),
            round(float(np.quantile(gavel, 0.8)), 1),
            round(float(np.quantile(gavel, 0.95)), 1),
            "16.7 / 4.5 / 16.4 / 96.6",
        ),
    )
    return ExperimentTable(
        title=f"Table 9: job duration statistics ({num_jobs} samples)",
        headers=(
            "Model",
            "Mean (hr)",
            "Median (hr)",
            "P80 (hr)",
            "P95 (hr)",
            "Published (mean/med/P80/P95)",
        ),
        rows=rows,
    )


SPEC_TABLE7 = register(
    ExperimentSpec(
        id="table07",
        title="Data table: evaluated workloads and per-task demands",
        direct=lambda ctx: run_table7(),
    )
)

SPEC_TABLE8 = register(
    ExperimentSpec(
        id="table08",
        title="Data table: generated GPU-demand composition vs published",
        params={"num_jobs": int},
        direct=lambda ctx: run_table8(
            num_jobs=ctx.param("num_jobs"), seed=ctx.seed
        ),
    )
)

SPEC_TABLE9 = register(
    ExperimentSpec(
        id="table09",
        title="Data table: generated duration statistics vs published",
        params={"num_jobs": int},
        direct=lambda ctx: run_table9(
            num_jobs=ctx.param("num_jobs"), seed=ctx.seed
        ),
    )
)
