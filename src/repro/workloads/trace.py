"""Trace container: an ordered collection of jobs plus summary statistics.

A trace is the unit of input to the simulator and the experiment drivers.
Traces can be sliced (the artifact's E2 uses "the first 200 jobs of the
Alibaba trace"), remixed (Figures 6 and 7), and serialized to JSON for
inspection and caching.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.cluster.task import Job, MigrationDelays, Task


@dataclass(frozen=True)
class Trace:
    """An arrival-ordered job sequence."""

    name: str
    jobs: tuple[Job, ...] = field(default=())

    def __post_init__(self) -> None:
        arrivals = [j.arrival_time_s for j in self.jobs]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError(f"trace {self.name!r} is not sorted by arrival time")

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def head(self, n: int) -> "Trace":
        """The first ``n`` jobs (artifact experiment E2 style)."""
        return Trace(name=f"{self.name}[:{n}]", jobs=self.jobs[:n])

    def filter(self, predicate: Callable[[Job], bool]) -> "Trace":
        return Trace(
            name=f"{self.name}[filtered]",
            jobs=tuple(j for j in self.jobs if predicate(j)),
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def num_tasks(self) -> int:
        return sum(j.num_tasks for j in self.jobs)

    def gpu_demand_composition(self) -> dict[int, float]:
        """Fraction of jobs by per-task GPU demand (Table 8 shape)."""
        counts: dict[int, int] = {}
        for job in self.jobs:
            gpus = int(round(job.tasks[0].max_demand.gpus))
            counts[gpus] = counts.get(gpus, 0) + 1
        total = max(1, len(self.jobs))
        return {g: c / total for g, c in sorted(counts.items())}

    def multi_task_fraction(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(1 for j in self.jobs if j.is_multi_task) / len(self.jobs)

    def span_hours(self) -> float:
        """Time between first arrival and last arrival, in hours."""
        if not self.jobs:
            return 0.0
        return (self.jobs[-1].arrival_time_s - self.jobs[0].arrival_time_s) / 3600.0

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "jobs": [
                {
                    "job_id": j.job_id,
                    "workload": j.workload,
                    "arrival_time_s": j.arrival_time_s,
                    "duration_hours": j.duration_hours,
                    "tasks": [
                        {
                            "task_id": t.task_id,
                            "workload": t.workload,
                            "demands": {
                                fam: list(vec.as_tuple())
                                for fam, vec in t.demands.items()
                            },
                            "checkpoint_s": t.migration.checkpoint_s,
                            "launch_s": t.migration.launch_s,
                        }
                        for t in j.tasks
                    ],
                }
                for j in self.jobs
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        payload = json.loads(text)
        jobs = []
        for jd in payload["jobs"]:
            tasks = tuple(
                Task(
                    task_id=td["task_id"],
                    job_id=jd["job_id"],
                    workload=td["workload"],
                    demands={
                        fam: ResourceVector(*vals)
                        for fam, vals in td["demands"].items()
                    },
                    migration=MigrationDelays(td["checkpoint_s"], td["launch_s"]),
                )
                for td in jd["tasks"]
            )
            jobs.append(
                Job(
                    job_id=jd["job_id"],
                    tasks=tasks,
                    arrival_time_s=jd["arrival_time_s"],
                    duration_hours=jd["duration_hours"],
                    workload=jd["workload"],
                )
            )
        return cls(name=payload["name"], jobs=tuple(jobs))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        return cls.from_json(Path(path).read_text())


def poisson_arrival_times(
    n: int, mean_interarrival_s: float, rng: np.random.Generator
) -> list[float]:
    """Arrival times of a Poisson process (exponential inter-arrivals, §6.1)."""
    if n <= 0:
        return []
    gaps = rng.exponential(mean_interarrival_s, size=n)
    return list(np.cumsum(gaps))


def sort_jobs_by_arrival(jobs: Iterable[Job]) -> tuple[Job, ...]:
    return tuple(sorted(jobs, key=lambda j: (j.arrival_time_s, j.job_id)))


def _validate_deadline_knobs(
    deadline_fraction: float, deadline_slack_range: tuple[float, float]
) -> None:
    if not 0.0 <= deadline_fraction <= 1.0:
        raise ValueError(
            f"deadline_fraction must be in [0, 1], got {deadline_fraction}"
        )
    lo, hi = deadline_slack_range
    if not 0.0 < lo <= hi:
        raise ValueError(f"invalid deadline slack range {deadline_slack_range}")


def sample_deadlines(
    jobs: Sequence[Job],
    rng: np.random.Generator,
    deadline_fraction: float,
    deadline_slack_range: tuple[float, float],
) -> list[Job]:
    """Attach sampled ``deadline_hours`` to ``deadline_fraction`` of jobs.

    Shared tail of the deadline-bearing trace builders: each job draws an
    inclusion uniform and a slack factor (``deadline_hours = duration ×
    slack``, clock starting at arrival).  Both uniforms are drawn for
    *every* job whenever the fraction is positive, so sweeping the
    fraction or the slack range at a fixed seed keeps the draw stream —
    and therefore which jobs fall under the fraction threshold — aligned
    across sweep points.  A fraction of ``0.0`` consumes nothing from
    ``rng`` and returns the jobs untouched, keeping legacy traces
    byte-identical.
    """
    from dataclasses import replace

    _validate_deadline_knobs(deadline_fraction, deadline_slack_range)
    if deadline_fraction <= 0.0:
        return list(jobs)
    lo, hi = deadline_slack_range
    out = []
    for job in jobs:
        take = float(rng.random()) < deadline_fraction
        slack = float(rng.uniform(lo, hi))
        if take:
            job = replace(job, deadline_hours=job.duration_hours * slack)
        out.append(job)
    return out
