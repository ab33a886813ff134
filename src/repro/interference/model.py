"""Ground-truth interference model used by the simulator (§5).

The simulator needs to know the *actual* throughput of each task given its
co-location set; Eva's scheduler never reads this model directly — it
observes throughputs through the ThroughputMonitor, exactly as in a real
deployment.

Model: the normalized throughput of task τ co-located with tasks
T − {τ} is the product of pairwise entries
``Π_{τ' ∈ T−{τ}} pairwise(w(τ), w(τ'))`` — the same multiplicative
composition the paper's estimator uses (§4.3), here taken as ground truth.
Multi-task (data-parallel) jobs take the min over their tasks' throughputs
(straggler semantics, §4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.interference.matrix import pairwise_throughput, resolve_profile_name


@dataclass
class InterferenceModel:
    """Ground-truth co-location throughput oracle.

    Attributes:
        pairwise_override: Optional explicit matrix ``{w1: {w2: tput}}``.
            When None, the Figure 1 matrix (with aliases) is used.
        uniform_value: If set, every distinct-pair entry is this constant
            (the Figure 4 sweep).  Self-pairs also use the constant, as in
            the paper's description ("when two jobs are co-located, they
            both have normalized throughput" of the constant).
    """

    pairwise_override: Mapping[str, Mapping[str, float]] | None = None
    uniform_value: float | None = None
    _cache: dict[tuple[str, tuple[str, ...]], float] = field(
        default_factory=dict, repr=False
    )

    def pairwise(self, workload: str, other: str) -> float:
        """Normalized throughput of ``workload`` when paired with ``other``."""
        if self.uniform_value is not None:
            return self.uniform_value
        if self.pairwise_override is not None:
            row = self.pairwise_override.get(resolve_profile_name(workload))
            if row is not None:
                value = row.get(resolve_profile_name(other))
                if value is not None:
                    return value
            return 1.0
        return pairwise_throughput(workload, other)

    def task_throughput(self, workload: str, co_located: Iterable[str]) -> float:
        """Throughput of one task given the workloads sharing its instance."""
        return self.task_throughput_sorted(workload, tuple(sorted(co_located)))

    def task_throughput_sorted(
        self, workload: str, neighbours: tuple[str, ...]
    ) -> float:
        """Memoized lookup for an already-sorted neighbour multiset.

        Hot-path variant for callers (the simulator) that maintain sorted
        neighbour multisets incrementally and can skip the re-sort.
        """
        key = (workload, neighbours)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        tput = 1.0
        for other in neighbours:
            tput *= self.pairwise(workload, other)
        self._cache[key] = tput
        return tput


def no_interference_model() -> InterferenceModel:
    """A model where co-location never degrades throughput."""
    return InterferenceModel(uniform_value=1.0)
