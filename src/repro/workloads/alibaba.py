"""Alibaba-like production trace synthesis (§6.1, Tables 8 and 9).

The paper's simulations consume the public Alibaba ``cluster-trace-gpu-v2023``
(6,274 jobs after filtering).  That trace is not redistributable here, so we
synthesize one matching the statistics the paper publishes:

* **GPU-demand composition** matches Table 8 exactly in expectation
  (0 GPU: 13.41 %, 1: 86.17 %, 2: 0.20 %, 4: 0.18 %, 8: 0.04 %).
* **Durations** match Table 9's Alibaba row: the quantile anchors
  (median 0.2 h, P80 1.0 h, P95 5.2 h) are hit by a piecewise log-linear
  inverse CDF, and the heavy tail above P95 is a truncated Pareto whose
  shape is solved numerically so the overall mean is 9.1 h.
* Jobs are **labelled with a Table-7 workload** compatible with their GPU
  demand (§6.1: "We assign each job a workload from Table 7 to simulate
  the job's migration overhead and co-location throughput"), while keeping
  their own trace-derived resource demands.

The generator also provides the Figure 6 (multi-GPU composition) and
Figure 7 (multi-task duplication) remixes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.cluster.task import DEFAULT_FAMILY, Job, Task
from repro.workloads.trace import (
    Trace,
    poisson_arrival_times,
    sample_deadlines,
    sort_jobs_by_arrival,
)
from repro.workloads.workloads import (
    CPU_WORKLOADS,
    GPU_WORKLOADS_BY_COUNT,
    workload,
)

#: Table 8 — job composition by per-task GPU demand.
TABLE8_GPU_COMPOSITION: tuple[tuple[int, float], ...] = (
    (0, 0.1341),
    (1, 0.8617),
    (2, 0.0020),
    (4, 0.0018),
    (8, 0.0004),
)

#: Table 9 Alibaba duration statistics (hours).
ALIBABA_MEAN_H = 9.1
ALIBABA_QUANTILE_ANCHORS: tuple[tuple[float, float], ...] = (
    (0.00, 0.008),  # shortest filtered jobs: ~30 s
    (0.50, 0.2),  # median 0.2 h
    (0.80, 1.0),  # P80 1.0 h
    (0.95, 5.2),  # P95 5.2 h
)
#: Cap on the Pareto tail; keeps simulations finite while preserving the mean.
ALIBABA_MAX_DURATION_H = 1000.0

#: Number of jobs in the filtered trace the paper simulates.
FULL_TRACE_JOBS = 6274


def _segment_mean(x_lo: float, x_hi: float) -> float:
    """Mean of a log-linear inverse-CDF segment over a unit of probability."""
    if math.isclose(x_lo, x_hi):
        return x_lo
    ratio = x_hi / x_lo
    return x_lo * (ratio - 1.0) / math.log(ratio)


def _below_tail_mean(anchors: tuple[tuple[float, float], ...]) -> float:
    """Expected duration contributed by the quantile-interpolated body."""
    total = 0.0
    for (q_lo, x_lo), (q_hi, x_hi) in zip(anchors, anchors[1:]):
        total += (q_hi - q_lo) * _segment_mean(x_lo, x_hi)
    return total


def _truncated_pareto_mean(alpha: float, x_min: float, x_max: float) -> float:
    """Mean of a Pareto(alpha, x_min) truncated at x_max."""
    if math.isclose(alpha, 1.0, abs_tol=1e-12):
        return x_min * math.log(x_max / x_min) / (1.0 - (x_min / x_max))
    norm = 1.0 - (x_min / x_max) ** alpha
    return (
        alpha
        * x_min**alpha
        / (alpha - 1.0)
        * (x_min ** (1.0 - alpha) - x_max ** (1.0 - alpha))
        / norm
    )


#: Pareto shapes the tail solve searches between.
_TAIL_ALPHA_RANGE = (1e-6, 20.0)

#: ``scipy.optimize.brentq``'s default tolerances and iteration cap.
_BRENTQ_XTOL = 2e-12
_BRENTQ_RTOL = 4 * sys.float_info.epsilon
_BRENTQ_MAXITER = 100


def _brentq(f: Callable[[float], float], xa: float, xb: float) -> float:
    """Root of ``f`` between ``xa`` and ``xb`` by Brent's method.

    A step-for-step port of scipy's C ``brentq`` at its default
    tolerances, so the result equals ``scipy.optimize.brentq(f, xa, xb)``
    bit for bit while the trace builders stay free of scipy, whose import
    costs more than a small simulation.  Raises ``ValueError`` when
    ``f(xa)`` and ``f(xb)`` share a sign or ``f`` returns NaN, and
    ``RuntimeError`` when the iteration cap is reached, as scipy does.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENTQ_XTOL + _BRENTQ_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(
        f"failed to converge after {_BRENTQ_MAXITER} iterations, value is {xcur}"
    )


def solve_tail_alpha(
    target_mean_h: float = ALIBABA_MEAN_H,
    anchors: tuple[tuple[float, float], ...] = ALIBABA_QUANTILE_ANCHORS,
    x_max: float = ALIBABA_MAX_DURATION_H,
) -> float:
    """Pareto shape making the overall duration mean hit ``target_mean_h``.

    Raises ``ValueError`` when no shape in ``_TAIL_ALPHA_RANGE`` reaches
    the target.
    """
    tail_q, x_min = anchors[-1]
    tail_weight = 1.0 - tail_q
    body = _below_tail_mean(anchors)
    target_tail_mean = (target_mean_h - body) / tail_weight
    alpha_lo, alpha_hi = _TAIL_ALPHA_RANGE
    # The tail mean falls as the shape grows.
    lowest = _truncated_pareto_mean(alpha_hi, x_min, x_max)
    highest = _truncated_pareto_mean(alpha_lo, x_min, x_max)
    if not lowest <= target_tail_mean <= highest:
        raise ValueError(
            f"target mean {target_mean_h}h unreachable: with cap {x_max}h the "
            f"duration mean lies in [{body + tail_weight * lowest:.3f}h, "
            f"{body + tail_weight * highest:.3f}h]"
        )

    def gap(alpha: float) -> float:
        return _truncated_pareto_mean(alpha, x_min, x_max) - target_tail_mean

    return _brentq(gap, alpha_lo, alpha_hi)


@dataclass(frozen=True)
class AlibabaDurationModel:
    """Inverse-CDF duration sampler matching Table 9's Alibaba row."""

    anchors: tuple[tuple[float, float], ...] = ALIBABA_QUANTILE_ANCHORS
    x_max: float = ALIBABA_MAX_DURATION_H
    target_mean_h: float = ALIBABA_MEAN_H

    def __post_init__(self) -> None:
        object.__setattr__(self, "_alpha", solve_tail_alpha(
            self.target_mean_h, self.anchors, self.x_max
        ))

    @property
    def alpha(self) -> float:
        return self._alpha  # type: ignore[attr-defined]

    def inverse_cdf(self, u: float) -> float:
        """Duration (hours) at probability level ``u`` in [0, 1)."""
        if not 0.0 <= u < 1.0:
            raise ValueError(f"u must be in [0, 1), got {u}")
        tail_q, x_min = self.anchors[-1]
        if u >= tail_q:
            # Truncated Pareto tail.
            residual = (u - tail_q) / (1.0 - tail_q)
            norm = 1.0 - (x_min / self.x_max) ** self.alpha
            return x_min * (1.0 - residual * norm) ** (-1.0 / self.alpha)
        for (q_lo, x_lo), (q_hi, x_hi) in zip(self.anchors, self.anchors[1:]):
            if u <= q_hi:
                frac = (u - q_lo) / (q_hi - q_lo)
                return x_lo * (x_hi / x_lo) ** frac
        raise AssertionError("unreachable")  # pragma: no cover

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        us = rng.random(size)
        return np.array([self.inverse_cdf(float(u)) for u in us])


#: CPU-core options for trace-derived demands, weighted toward small
#: requests as in production GPU-sharing traces.
_CPU_CHOICES = np.array([1, 2, 4, 6, 8, 12, 16])
_CPU_WEIGHTS = np.array([0.10, 0.24, 0.30, 0.14, 0.12, 0.06, 0.04])
_RAM_CHOICES = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
_RAM_WEIGHTS = np.array([0.18, 0.30, 0.28, 0.16, 0.08])


def _sample_gpu_demand(rng: np.random.Generator) -> int:
    u = float(rng.random())
    acc = 0.0
    for gpus, prob in TABLE8_GPU_COMPOSITION:
        acc += prob
        if u < acc:
            return gpus
    return TABLE8_GPU_COMPOSITION[-1][0]


def _label_workload(gpus: int, rng: np.random.Generator) -> str:
    if gpus == 0:
        return CPU_WORKLOADS[int(rng.integers(len(CPU_WORKLOADS)))]
    options = GPU_WORKLOADS_BY_COUNT.get(gpus, GPU_WORKLOADS_BY_COUNT[4])
    return options[int(rng.integers(len(options)))]


def _alibaba_job(
    index: int,
    gpus: int,
    duration_hours: float,
    arrival_s: float,
    rng: np.random.Generator,
) -> Job:
    """Build one trace job: trace-derived demands + Table-7 workload label."""
    cpus = float(rng.choice(_CPU_CHOICES, p=_CPU_WEIGHTS))
    ram = float(rng.choice(_RAM_CHOICES, p=_RAM_WEIGHTS))
    # Multi-GPU jobs come with proportionally larger host demands.
    if gpus >= 2:
        cpus = min(32.0, cpus * gpus / 2)
        ram = min(244.0, ram * gpus / 2)
    label = _label_workload(gpus, rng)
    spec = workload(label)
    demand = ResourceVector(float(gpus), cpus, ram)
    job_id = f"ali-{index:05d}"
    task = Task(
        task_id=f"{job_id}/t0",
        job_id=job_id,
        workload=label,
        demands={DEFAULT_FAMILY: demand},
        migration=spec.migration(),
    )
    return Job(
        job_id=job_id,
        tasks=(task,),
        arrival_time_s=arrival_s,
        duration_hours=duration_hours,
        workload=label,
    )


def synthesize_alibaba_trace(
    num_jobs: int = FULL_TRACE_JOBS,
    seed: int = 0,
    arrival_rate_per_hour: float = 3.0,
    duration_model: AlibabaDurationModel | None = None,
    durations_hours: np.ndarray | None = None,
    name: str | None = None,
    deadline_fraction: float = 0.0,
    deadline_slack_range: tuple[float, float] = (1.5, 3.0),
) -> Trace:
    """Synthesize an Alibaba-like trace (documented substitution, DESIGN.md §2).

    Args:
        num_jobs: Trace length (paper: 6,274 after filtering).
        seed: RNG seed — traces are fully reproducible.
        arrival_rate_per_hour: Poisson arrival rate (§6.8 sweeps 0.5–3).
        duration_model: Duration sampler; defaults to the Table 9
            Alibaba model.  Pass a Gavel model's samples via
            ``durations_hours`` instead for Table 14.
        durations_hours: Optional explicit per-job durations, overriding
            ``duration_model`` (used for the Gavel variant).
        deadline_fraction: Expected fraction of jobs carrying a
            ``deadline_hours`` SLO (duration × a slack factor drawn
            uniformly from ``deadline_slack_range``; see
            :func:`~repro.workloads.trace.sample_deadlines`).  ``0.0``
            (the default) consumes nothing from the RNG stream, keeping
            legacy traces byte-identical.
        deadline_slack_range: Slack-factor range for the sampled
            deadlines (the tightness axis of the ``deadline-slo``
            experiment).
    """
    if num_jobs <= 0:
        raise ValueError("num_jobs must be positive")
    rng = np.random.default_rng(seed)
    if durations_hours is None:
        model = duration_model or AlibabaDurationModel()
        durations_hours = model.sample(rng, num_jobs)
    elif len(durations_hours) != num_jobs:
        raise ValueError("durations_hours length must equal num_jobs")

    mean_interarrival_s = 3600.0 / arrival_rate_per_hour
    arrivals = poisson_arrival_times(num_jobs, mean_interarrival_s, rng)
    jobs = []
    for idx in range(num_jobs):
        gpus = _sample_gpu_demand(rng)
        jobs.append(
            _alibaba_job(idx, gpus, float(durations_hours[idx]), arrivals[idx], rng)
        )
    jobs = sample_deadlines(jobs, rng, deadline_fraction, deadline_slack_range)
    return Trace(
        name=name or f"alibaba-like-{num_jobs}", jobs=sort_jobs_by_arrival(jobs)
    )


# ----------------------------------------------------------------------
# Figure 6 remix: multi-GPU composition
# ----------------------------------------------------------------------

#: Figure 6 keeps 2-GPU : 4-GPU : 8-GPU at 5 : 4 : 1.
MULTI_GPU_MIX: tuple[tuple[int, float], ...] = ((2, 0.5), (4, 0.4), (8, 0.1))


def remix_multi_gpu(
    trace: Trace, multi_gpu_fraction: float, seed: int = 0
) -> Trace:
    """Rewrite GPU jobs so ``multi_gpu_fraction`` of all jobs are multi-GPU.

    Non-GPU jobs are left untouched ("the proportion of non-GPU jobs
    remains the same"); single-GPU jobs are upgraded to 2/4/8 GPUs in the
    5:4:1 ratio until the target fraction is met.
    """
    if not 0.0 <= multi_gpu_fraction <= 1.0:
        raise ValueError("multi_gpu_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    gpu_job_indices = [
        i for i, j in enumerate(trace.jobs) if j.tasks[0].max_demand.gpus > 0
    ]
    target_multi = int(round(multi_gpu_fraction * len(trace.jobs)))
    chosen = list(
        rng.choice(
            gpu_job_indices, size=min(target_multi, len(gpu_job_indices)), replace=False
        )
    )

    mix_gpus = [g for g, _ in MULTI_GPU_MIX]
    mix_probs = [p for _, p in MULTI_GPU_MIX]
    new_jobs = list(trace.jobs)
    for i in chosen:
        job = trace.jobs[i]
        gpus = int(rng.choice(mix_gpus, p=mix_probs))
        old_task = job.tasks[0]
        old_demand = old_task.demand_for(DEFAULT_FAMILY)
        scale = max(1.0, gpus / max(1.0, old_demand.gpus))
        demand = ResourceVector(
            float(gpus),
            min(64.0, old_demand.cpus * scale),
            min(488.0, old_demand.ram_gb * scale),
        )
        label = _label_workload(gpus, rng)
        spec = workload(label)
        task = Task(
            task_id=old_task.task_id,
            job_id=job.job_id,
            workload=label,
            demands={DEFAULT_FAMILY: demand},
            migration=spec.migration(),
        )
        new_jobs[i] = Job(
            job_id=job.job_id,
            tasks=(task,),
            arrival_time_s=job.arrival_time_s,
            duration_hours=job.duration_hours,
            workload=label,
        )
    return Trace(
        name=f"{trace.name}+multigpu{multi_gpu_fraction:.0%}",
        jobs=sort_jobs_by_arrival(new_jobs),
    )


# ----------------------------------------------------------------------
# Figure 7 remix: multi-task duplication
# ----------------------------------------------------------------------


def remix_multi_task(
    trace: Trace, multi_task_fraction: float, seed: int = 0
) -> Trace:
    """Duplicate tasks of randomly chosen jobs into 2- or 4-task jobs (1:1).

    Each duplicated task keeps the resource demands of the original (§6.7).
    """
    if not 0.0 <= multi_task_fraction <= 1.0:
        raise ValueError("multi_task_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n_multi = int(round(multi_task_fraction * len(trace.jobs)))
    chosen = set(
        rng.choice(len(trace.jobs), size=n_multi, replace=False).tolist()
        if n_multi
        else []
    )
    new_jobs = []
    for i, job in enumerate(trace.jobs):
        if i not in chosen or job.is_multi_task:
            new_jobs.append(job)
            continue
        arity = 2 if rng.random() < 0.5 else 4
        template = job.tasks[0]
        tasks = tuple(
            Task(
                task_id=f"{job.job_id}/t{k}",
                job_id=job.job_id,
                workload=template.workload,
                demands=dict(template.demands),
                migration=template.migration,
            )
            for k in range(arity)
        )
        new_jobs.append(
            Job(
                job_id=job.job_id,
                tasks=tasks,
                arrival_time_s=job.arrival_time_s,
                duration_hours=job.duration_hours,
                workload=job.workload,
            )
        )
    return Trace(
        name=f"{trace.name}+multitask{multi_task_fraction:.0%}",
        jobs=sort_jobs_by_arrival(new_jobs),
    )


# ---------------------------------------------------------------------------
# Named builders for the batch layer (picklable, reseedable TraceSpecs)
# ---------------------------------------------------------------------------


def alibaba_multi_gpu_trace(
    num_jobs: int, multi_gpu_fraction: float, seed: int = 0
) -> Trace:
    """Figure 6's remixed trace as a single named builder.

    Synthesizes the Alibaba-like trace and applies
    :func:`remix_multi_gpu`, both from ``seed`` — byte-identical to
    remixing :func:`synthesize_alibaba_trace` inline, but expressible as
    a :class:`~repro.sim.batch.TraceSpec` so sweeps pickle small, cache
    by content, and re-seed across trials.
    """
    base = synthesize_alibaba_trace(num_jobs, seed=seed)
    return remix_multi_gpu(base, multi_gpu_fraction, seed=seed)


def alibaba_multi_task_trace(
    num_jobs: int, multi_task_fraction: float, seed: int = 0
) -> Trace:
    """Figure 7's remixed trace as a single named builder (see above)."""
    base = synthesize_alibaba_trace(num_jobs, seed=seed)
    return remix_multi_task(base, multi_task_fraction, seed=seed)


def alibaba_replay_trace(
    num_jobs: int = 10_000,
    seed: int = 0,
    arrival_rate_per_hour: float = 40.0,
    clip_hours: float | None = 24.0,
) -> Trace:
    """Replay-scale Alibaba trace (default 10k jobs) for throughput work.

    The Table 13 evaluation traces arrive at 3 jobs/hour, which at
    10k jobs would stretch the simulated horizon past 3000 hours while
    keeping the cluster nearly idle.  The replay variant compresses the
    same job population into a dense schedule: an elevated arrival rate
    sustains a wide concurrent task pool for Algorithm 1 to pack, and
    the Pareto duration tail is clipped so the simulated horizon is set
    by the arrival span, not by one thousand-hour straggler.  Durations
    come from an isolated RNG draw so the arrival/demand stream matches
    ``synthesize_alibaba_trace``'s for the same seed.
    """
    rng = np.random.default_rng(seed)
    durations = AlibabaDurationModel().sample(rng, num_jobs)
    if clip_hours is not None:
        durations = np.minimum(durations, clip_hours)
    return synthesize_alibaba_trace(
        num_jobs,
        seed=seed,
        arrival_rate_per_hour=arrival_rate_per_hour,
        durations_hours=durations,
        name=f"alibaba-replay-{num_jobs}",
    )


def gavel_replay_trace(
    num_jobs: int = 10_000,
    seed: int = 0,
    arrival_rate_per_hour: float = 40.0,
    clip_hours: float | None = 24.0,
) -> Trace:
    """Replay-scale Gavel-duration trace (see :func:`alibaba_replay_trace`).

    Alibaba arrivals/demands with Gavel durations from the offset RNG
    stream (``seed + 7``), exactly like :func:`alibaba_gavel_trace`,
    clipped and densified the same way as the Alibaba replay variant.
    """
    from repro.workloads.gavel import sample_gavel_durations_hours

    rng = np.random.default_rng(seed + 7)
    durations = sample_gavel_durations_hours(rng, num_jobs)
    if clip_hours is not None:
        durations = np.minimum(durations, clip_hours)
    return synthesize_alibaba_trace(
        num_jobs,
        seed=seed,
        arrival_rate_per_hour=arrival_rate_per_hour,
        durations_hours=durations,
        name=f"gavel-replay-{num_jobs}",
    )


def alibaba_gavel_trace(num_jobs: int, seed: int = 0) -> Trace:
    """Table 14's trace: Alibaba arrivals/demands, Gavel durations.

    Durations are drawn with an offset RNG stream (``seed + 7``) so they
    are independent of the arrival/demand stream, exactly as the Table 14
    driver always constructed it.
    """
    from repro.workloads.gavel import sample_gavel_durations_hours

    rng = np.random.default_rng(seed + 7)
    durations = sample_gavel_durations_hours(rng, num_jobs)
    return synthesize_alibaba_trace(
        num_jobs,
        seed=seed,
        durations_hours=durations,
        name=f"alibaba-gavel-{num_jobs}",
    )
