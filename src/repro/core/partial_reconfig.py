"""Partial Reconfiguration (§4.5).

Full Reconfiguration ignores the current cluster configuration, which can
imply wholesale task migration.  Partial Reconfiguration instead keeps the
majority of the configuration fixed and re-packs only a subset of tasks:

* tasks of recently submitted jobs that have not been assigned yet, and
* tasks on instances that are *no longer cost-efficient* — their
  (throughput-normalized) reservation price dropped below the instance's
  hourly cost, due to job completions or observed interference.

The subset is first offered to surviving (still cost-efficient) instances
with spare capacity — additions must pass the same line 9–11 guard, so a
survivor's value never decreases — and the remainder is packed with
Algorithm 1.  Instances fully drained by subset extraction are reusable in
place (matched back by type), avoiding spurious relaunches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.instance import Instance
from repro.cluster.task import Task
from repro.core.evaluation import AssignmentEvaluator
from repro.core.full_reconfig import (
    PackedInstance,
    PackMemo,
    _ArgmaxScan,
    _TaskPool,
    full_reconfiguration,
    match_existing_instances,
)

_EPS = 1e-9


@dataclass(frozen=True)
class PartialReconfigResult:
    """Outcome of Partial Reconfiguration.

    Attributes:
        configuration: The full target configuration (survivors with any
            additions, plus re-packed instances).
        repacked_task_ids: Tasks that were (re)assigned this round.
        drained_instance_ids: Previously live instances whose tasks were
            all extracted; those not reused are terminated.
    """

    configuration: tuple[PackedInstance, ...]
    repacked_task_ids: frozenset[str]
    drained_instance_ids: frozenset[str]


def _fill_survivor(
    survivor: PackedInstance,
    pool: _TaskPool,
    evaluator: AssignmentEvaluator,
) -> PackedInstance:
    """Offer subset tasks to a surviving instance's spare capacity."""
    itype = survivor.instance_type
    tasks = list(survivor.tasks)
    state = evaluator.make_state(tasks)
    scan = _ArgmaxScan(pool, evaluator, itype.capacity, itype.family)
    for t in tasks:
        scan.charge(t)
    while True:
        best_task, best_value = scan.best(state)
        if best_task is None or best_value < state.value - _EPS:
            break
        pool.pop(best_task)
        state.add(best_task)
        tasks.append(best_task)
        scan.charge(best_task)
    if len(tasks) == len(survivor.tasks):
        return survivor
    return PackedInstance(instance=survivor.instance, tasks=tuple(tasks))


def partial_reconfiguration(
    current: Sequence[tuple[Instance, Sequence[Task]]],
    unassigned: Sequence[Task],
    instance_types: Sequence,
    evaluator: AssignmentEvaluator,
    group_identical: bool = True,
    cost_margin: float = 0.0,
    memo: PackMemo | None = None,
) -> PartialReconfigResult:
    """Compute the Partial Reconfiguration target (§4.5).

    Args:
        current: The live configuration: (instance, its tasks) pairs.
        unassigned: Tasks of newly submitted jobs awaiting placement.
        instance_types: The provisioning catalog.
        evaluator: RP or TNRP assignment evaluator.
        group_identical: See :func:`full_reconfiguration`.
        cost_margin: JCT-aware packing margin, applied to new packings
            only (the keep-or-drain test for existing instances uses the
            plain cost so the margin does not force churn).
        memo: Optional :class:`PackMemo` forwarded to the stage-2
            Algorithm 1 call.
    """
    survivors: list[PackedInstance] = []
    subset: list[Task] = list(unassigned)
    drained: list[tuple[Instance, frozenset[str]]] = []

    for instance, tasks in current:
        tasks = list(tasks)
        if not tasks:
            drained.append((instance, frozenset()))
            continue
        value = evaluator.set_value(tasks)
        if value >= instance.hourly_cost - _EPS:
            survivors.append(
                PackedInstance(instance=instance, tasks=tuple(tasks))
            )
        else:
            subset.extend(tasks)
            drained.append((instance, frozenset(t.task_id for t in tasks)))

    repacked_ids = frozenset(t.task_id for t in subset)

    # Stage 1 — fill surviving instances' spare capacity, most expensive
    # survivors first (mirrors Algorithm 1's type ordering).
    pool = _TaskPool(subset, evaluator, group_identical)
    filled: list[PackedInstance] = []
    for survivor in sorted(
        survivors, key=lambda p: (-p.hourly_cost, p.instance.instance_id)
    ):
        if pool.is_empty():
            filled.append(survivor)
        else:
            filled.append(_fill_survivor(survivor, pool, evaluator))

    # Stage 2 — pack the remainder with Algorithm 1 and reuse drained
    # instances of matching types where possible.
    leftovers = pool.drain()
    fresh = full_reconfiguration(
        leftovers,
        instance_types,
        evaluator,
        group_identical=group_identical,
        cost_margin=cost_margin,
        memo=memo,
    )
    fresh = match_existing_instances(fresh, drained)

    return PartialReconfigResult(
        configuration=tuple(filled) + tuple(fresh),
        repacked_task_ids=repacked_ids,
        drained_instance_ids=frozenset(inst.instance_id for inst, _ in drained),
    )
