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
    _pack_one_instance,
    _Rows,
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
    rows: _Rows,
) -> PackedInstance:
    """Offer subset tasks to a surviving instance's spare capacity.

    ``evaluator`` is bound to the survivor's type (``for_type``), and
    ``rows`` are the pool's group rows for that type.  A survivor whose
    spare room fits no pool task comes back as it is, without a pack
    state built for its residents.
    """
    added, _ = _pack_one_instance(
        survivor.instance_type, pool, evaluator, rows, resident=survivor.tasks
    )
    if not added:
        return survivor
    return PackedInstance(
        instance=survivor.instance, tasks=survivor.tasks + tuple(added)
    )


def partial_reconfiguration(
    current: Sequence[tuple[Instance, Sequence[Task]]],
    unassigned: Sequence[Task],
    instance_types: Sequence,
    evaluator: AssignmentEvaluator,
    cost_margin: float = 0.0,
    memo: PackMemo | None = None,
) -> PartialReconfigResult:
    """Compute the Partial Reconfiguration target (§4.5).

    Args:
        current: The live configuration: (instance, its tasks) pairs.
        unassigned: Tasks of newly submitted jobs awaiting placement.
        instance_types: The provisioning catalog.
        evaluator: RP or TNRP assignment evaluator.
        cost_margin: JCT-aware packing margin, applied to new packings
            only (the keep-or-drain test for existing instances uses the
            plain cost so the margin does not force churn).
        memo: Optional :class:`PackMemo` forwarded to the stage-2
            Algorithm 1 call.

    Like Algorithm 1, the keep-or-drain test and the survivor fill value
    each instance with ``evaluator.for_type`` of its type.
    """
    survivors: list[PackedInstance] = []
    subset: list[Task] = list(unassigned)
    drained: list[tuple[Instance, frozenset[str]]] = []
    # Bound once per instance type, not per instance: this runs every round.
    bound: dict[str, AssignmentEvaluator] = {}

    for instance, tasks in current:
        tasks = list(tasks)
        if not tasks:
            drained.append((instance, frozenset()))
            continue
        itype = instance.instance_type
        if itype.name not in bound:
            bound[itype.name] = evaluator.for_type(itype)
        value = bound[itype.name].set_value(tasks)
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
    pool = _TaskPool(subset, evaluator, group_identical=True)
    filled: list[PackedInstance] = []
    # Group rows per survivor type: the pool only loses tasks here.
    rows: dict[str, _Rows] = {}
    for survivor in sorted(
        survivors, key=lambda p: (-p.hourly_cost, p.instance.instance_id)
    ):
        if pool.is_empty():
            filled.append(survivor)
        else:
            itype = survivor.instance_type
            if itype.name not in rows:
                rows[itype.name] = pool.group_rows(itype, bound[itype.name])
            filled.append(
                _fill_survivor(survivor, pool, bound[itype.name], rows[itype.name])
            )

    # Stage 2 — pack the remainder with Algorithm 1 and reuse drained
    # instances of matching types where possible.
    leftovers = pool.drain()
    fresh = full_reconfiguration(
        leftovers,
        instance_types,
        evaluator,
        cost_margin=cost_margin,
        memo=memo,
    )
    fresh = match_existing_instances(fresh, drained)

    return PartialReconfigResult(
        configuration=tuple(filled) + tuple(fresh),
        repacked_task_ids=repacked_ids,
        drained_instance_ids=frozenset(inst.instance_id for inst, _ in drained),
    )
