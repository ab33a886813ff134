"""Workload suite (Table 7) and trace generators (synthetic, Alibaba, Gavel)."""

from repro.workloads.alibaba import (
    AlibabaDurationModel,
    FULL_TRACE_JOBS,
    TABLE8_GPU_COMPOSITION,
    alibaba_replay_trace,
    gavel_replay_trace,
    remix_multi_gpu,
    remix_multi_task,
    synthesize_alibaba_trace,
)
from repro.workloads.gavel import (
    gavel_mean_hours,
    gavel_quantile_hours,
    sample_gavel_durations_hours,
)
from repro.workloads.synthetic import (
    DEFAULT_INTERARRIVAL_S,
    microbench_task_pool,
    multitask_microbench_trace,
    small_physical_trace,
    synthetic_trace,
)
from repro.workloads.trace import Trace, poisson_arrival_times, sort_jobs_by_arrival
from repro.workloads.workloads import (
    TABLE7_WORKLOADS,
    WorkloadSpec,
    workload,
    workload_names,
)

__all__ = [
    "AlibabaDurationModel",
    "FULL_TRACE_JOBS",
    "TABLE8_GPU_COMPOSITION",
    "alibaba_replay_trace",
    "gavel_replay_trace",
    "remix_multi_gpu",
    "remix_multi_task",
    "synthesize_alibaba_trace",
    "gavel_mean_hours",
    "gavel_quantile_hours",
    "sample_gavel_durations_hours",
    "DEFAULT_INTERARRIVAL_S",
    "microbench_task_pool",
    "multitask_microbench_trace",
    "small_physical_trace",
    "synthetic_trace",
    "Trace",
    "poisson_arrival_times",
    "sort_jobs_by_arrival",
    "TABLE7_WORKLOADS",
    "WorkloadSpec",
    "workload",
    "workload_names",
]
