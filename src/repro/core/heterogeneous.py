"""Heterogeneous-resource extension of reservation price (§4.2,
"Generalizability to Heterogeneous Resources").

Different instance families may carry different versions of the same
resource (A100 vs V100 GPUs; the Table-7 footnote's faster C7i/R7i CPUs),
so a task's throughput depends on *where* it runs.  The paper sketches the
extension: redefine reservation price as the minimum **cost per iteration**
over feasible types, and evaluate a tasks-to-instance assignment by each
task's cost-per-hour *scaled by its throughput on that family*, summed and
compared to the instance's hourly cost.

Concretely, with ``speed(τ, f)`` the task's relative iteration rate on
family ``f`` (1.0 on its reference family):

* ``RP_het(τ) = min over feasible k of  C_k / speed(τ, family(k))`` —
  the cheapest dollars-per-unit-of-work, attained at the task's
  *efficiency type*;
* a set ``T`` on an instance of type ``k`` is cost-efficient iff
  ``Σ_τ speed(τ, family(k)) · TNRP_het(τ) ≥ C_k``, where ``TNRP_het`` is
  the homogeneous TNRP over ``RP_het``: ``tput_τ · RP_het(τ)``, or
  ``RP_het(τ) − (1 − tput_τ) · RP_het(j)`` for a task of a multi-task
  job ``j`` (§4.4) — each task contributes what it would be worth at
  the rate it actually achieves there.  The §4.4 degradation is charged
  on co-location throughput only, so a task alone on its efficiency
  type is worth that type's cost (to rounding, within Algorithm 1's
  tolerance) and Algorithm 1 places every task.

:class:`HeterogeneousEvaluator` plugs into Algorithm 1 unchanged:
:func:`~repro.core.full_reconfig.full_reconfiguration` packs each type
with :meth:`HeterogeneousEvaluator.for_type`, the evaluator bound to that
type's family.  With all speeds equal to 1.0 it packs exactly as the
homogeneous TNRP evaluator (tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cluster.instance import InstanceType
from repro.cluster.task import Job, Task
from repro.core.evaluation import AssignmentEvaluator, PackState, _TNRPPackState
from repro.core.reservation_price import InfeasibleTaskError, _demand_signature
from repro.core.throughput_table import CoLocationThroughputTable

#: Speed of a (workload, family) pair the profile does not list.
DEFAULT_SPEED = 1.0


@dataclass(frozen=True)
class FamilySpeedProfile:
    """Relative iteration rates per instance family.

    ``speeds[workload][family]`` is the task's standalone rate on that
    family relative to its reference family; missing entries default to
    :data:`DEFAULT_SPEED` (family makes no difference).  A speed must be
    finite and >= 0 (0 rules the family out).
    """

    speeds: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for workload, row in self.speeds.items():
            for family, speed in row.items():
                if not 0.0 <= speed < math.inf:
                    raise ValueError(
                        f"speed of workload {workload!r} on family {family!r} "
                        f"must be finite and >= 0, got {speed!r}"
                    )

    def speed(self, workload: str, family: str) -> float:
        row = self.speeds.get(workload)
        if row is None:
            return DEFAULT_SPEED
        return row.get(family, DEFAULT_SPEED)


@dataclass
class HeterogeneousRPCalculator:
    """Cost-per-iteration reservation prices (§4.2 extension).

    Attributes:
        catalog: Available instance types.
        profile: Per-(workload, family) speed factors.
    """

    catalog: Sequence[InstanceType]
    profile: FamilySpeedProfile = field(default_factory=FamilySpeedProfile)

    def __post_init__(self) -> None:
        self._types = [it for it in self.catalog if not it.is_ghost]
        if not self._types:
            raise ValueError("catalog has no (non-ghost) instance types")
        self._cache: dict[tuple, tuple[InstanceType, float]] = {}

    def _key(self, task: Task) -> tuple:
        return (task.workload, _demand_signature(task))

    def rp(self, task: Task) -> float:
        """min over feasible k of C_k / speed(τ, family(k))."""
        return self._lookup(task)[1]

    def rp_type(self, task: Task) -> InstanceType:
        """The efficiency type attaining the heterogeneous RP."""
        return self._lookup(task)[0]

    def _lookup(self, task: Task) -> tuple[InstanceType, float]:
        key = self._key(task)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        best: tuple[InstanceType, float] | None = None
        for itype in self._types:
            if not task.demand_for(itype.family).fits_within(itype.capacity):
                continue
            speed = self.profile.speed(task.workload, itype.family)
            if speed <= 0:
                continue
            cost_per_work = itype.hourly_cost / speed
            if best is None or cost_per_work < best[1]:
                best = (itype, cost_per_work)
        if best is None:
            raise InfeasibleTaskError(
                f"task {task.task_id} fits no instance type in the catalog"
            )
        self._cache[key] = best
        return best

    def rp_of_set(self, tasks: Sequence[Task]) -> float:
        return sum(self.rp(t) for t in tasks)


@dataclass
class HeterogeneousEvaluator(AssignmentEvaluator):
    """TNRP with family-dependent speeds, for a fixed instance family.

    Algorithm 1 evaluates candidate sets per instance type; this evaluator
    is *bound to one family* (the type currently being packed), so the
    family-speed factor is known.  :meth:`for_type` (which Algorithm 1
    calls per type) and :meth:`for_family` derive bound evaluators from a
    family-agnostic template.  It reports no ``cache_token``, so
    ``PackMemo`` never memoizes its packings.
    """

    calculator: HeterogeneousRPCalculator
    table: CoLocationThroughputTable
    family: str = "*"
    jobs: Mapping[str, Job] = field(default_factory=dict)
    multi_task_aware: bool = True

    def for_family(self, family: str) -> "HeterogeneousEvaluator":
        return HeterogeneousEvaluator(
            calculator=self.calculator,
            table=self.table,
            family=family,
            jobs=self.jobs,
            multi_task_aware=self.multi_task_aware,
        )

    def for_type(self, itype: InstanceType) -> "HeterogeneousEvaluator":
        return self.for_family(itype.family)

    def task_rp(self, task: Task) -> float:
        return self.calculator.rp(task)

    def _speed(self, task: Task) -> float:
        return self.calculator.profile.speed(task.workload, self.family)

    def tnrp_from_tput(self, task: Task, tput: float) -> float:
        """The task's value at co-location throughput ``tput`` on this
        family (the TNRP term :class:`_TNRPPackState` sums): its TNRP
        over ``RP_het`` scaled by the family speed."""
        speed = self._speed(task)
        rp = self.calculator.rp(task)
        if self.multi_task_aware:
            job = self.jobs.get(task.job_id)
            if job is not None and job.is_multi_task:
                job_rp = self.calculator.rp_of_set(list(job.tasks))
                return speed * (rp - (1.0 - tput) * job_rp)
        return tput * speed * rp

    def value_cap(self, task: Task) -> float:
        """The task's value at throughput 1 on this family,
        ``speed · RP_het``, which a speed above 1 lifts over ``RP_het``."""
        return self.tnrp_from_tput(task, 1.0)

    def set_value(self, tasks: Sequence[Task]) -> float:
        if not tasks:
            return 0.0
        workloads = [t.workload for t in tasks]
        total = 0.0
        for idx, task in enumerate(tasks):
            neighbours = workloads[:idx] + workloads[idx + 1 :]
            tput = self.table.tput(task.workload, neighbours)
            total += self.tnrp_from_tput(task, tput)
        return total

    def make_state(self, tasks: Sequence[Task] = ()) -> PackState:
        return _TNRPPackState(self, tasks)

    def group_key(self, task: Task) -> tuple:
        job = self.jobs.get(task.job_id) if self.multi_task_aware else None
        arity = job.num_tasks if job is not None else 1
        return (task.workload, _demand_signature(task), arity)
