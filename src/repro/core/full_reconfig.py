"""Full Reconfiguration — Algorithm 1 (§4.2).

The algorithm generalizes the classic variable-sized-bin-packing heuristic
(largest bins, largest balls first) to multi-dimensional resources by
ranking instance types by hourly cost and tasks by (throughput-normalized)
reservation price:

1. Iterate instance types in descending cost.
2. For each type, repeatedly open a new instance and greedily add the
   unassigned task maximizing the set's value ``RP(T ∪ {τ})`` while it
   fits; stop early if adding the best candidate *decreases* the value
   (possible under TNRP with severe interference — lines 9–11).
3. Accept the instance iff the final set's value covers the instance's
   hourly cost (the cost-efficiency criterion, line 14); otherwise return
   the tasks and move to the next cheaper type.

Every accepted assignment is therefore cost-efficient by construction, and
(under plain RP) the resulting configuration never costs more per hour
than No-Packing.

``group_identical=True`` evaluates the argmax over one representative per
group of interchangeable tasks (same workload, demand signature, and — for
the multi-task-aware evaluator — job arity), reducing the paper's
O(|T|²) scan to roughly O(|T|·|groups|) without changing results;
``group_identical=False`` restores the faithful per-task scan (both are
measured in the Table 5 bench).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cluster.instance import Instance, InstanceType, fresh_instance
from repro.cluster.task import Task
from repro.core.evaluation import AssignmentEvaluator

_EPS = 1e-9

#: Group index -> ``(gpus, cpus, ram, RP, value_cap)`` for one instance
#: type (:meth:`_TaskPool.group_rows`).
_Rows = dict[int, tuple[float, float, float, float, float]]


@dataclass(frozen=True)
class PackedInstance:
    """One instance of the output configuration with its task set."""

    instance: Instance
    tasks: tuple[Task, ...]

    @property
    def instance_type(self) -> InstanceType:
        return self.instance.instance_type

    @property
    def hourly_cost(self) -> float:
        return self.instance.hourly_cost

    def task_ids(self) -> frozenset[str]:
        return frozenset(t.task_id for t in self.tasks)


class _TaskPool:
    """Unassigned tasks, bucketed into interchangeable groups.

    Groups are ordered deterministically (ascending group key, maintained
    incrementally with bisect instead of re-sorting on every mutation);
    tasks inside a group are stacks sorted by task id, so runs are
    reproducible.  Each group is known by its index in the sorted list
    of the keys the pool starts with, so the scans hash a small int per
    group rather than a nested key tuple, and ascending indices are
    ascending keys.  ``pop`` and ``push_back`` take tasks from the
    starting set and resolve their bucket in O(1).
    """

    def __init__(self, tasks: Iterable[Task], evaluator: AssignmentEvaluator,
                 group_identical: bool):
        key_by_id: dict[str, tuple] = {}
        buckets: dict[tuple, list[Task]] = {}
        size = 0
        for task in sorted(tasks, key=lambda t: t.task_id, reverse=True):
            key = key_by_id.get(task.task_id)
            if key is None:
                key = key_by_id[task.task_id] = (
                    evaluator.group_key(task) if group_identical else (task.task_id,)
                )
            buckets.setdefault(key, []).append(task)
            size += 1
        #: Group index -> group key.
        self._keys = sorted(buckets)
        index = {key: i for i, key in enumerate(self._keys)}
        self._group_by_id = {
            task_id: index[key] for task_id, key in key_by_id.items()
        }
        self._buckets = {index[key]: bucket for key, bucket in buckets.items()}
        #: Indices of the non-empty groups, ascending.
        self._groups = list(range(len(self._keys)))
        self._size = size

    def __len__(self) -> int:
        return self._size

    def is_empty(self) -> bool:
        return self._size == 0

    def representatives(self) -> list[Task]:
        """One candidate task per non-empty group."""
        buckets = self._buckets
        return [buckets[group][-1] for group in self._groups]

    def pop(self, task: Task) -> Task:
        group = self._group_by_id.get(task.task_id)
        bucket = self._buckets.get(group)
        if bucket is None or bucket[-1] is not task:
            raise KeyError(
                f"task {task.task_id} is not a current representative"
            )
        popped = bucket.pop()
        self._size -= 1
        if not bucket:
            del self._buckets[group]
            del self._groups[bisect_left(self._groups, group)]
        return popped

    def push_back(self, tasks: Sequence[Task]) -> None:
        for task in tasks:
            group = self._group_by_id[task.task_id]
            bucket = self._buckets.get(group)
            if bucket is None:
                self._buckets[group] = [task]
                insort(self._groups, group)
            else:
                bucket.append(task)
            self._size += 1

    def fingerprint(self) -> tuple:
        """Hashable snapshot of the pool's full decision-relevant state.

        Captures group order AND per-bucket task-id stack order — the
        greedy argmax tie-breaks on task id, so two pools pack
        identically iff their fingerprints match (given the same
        evaluator state).
        """
        buckets, keys = self._buckets, self._keys
        return tuple(
            (keys[group], tuple(t.task_id for t in buckets[group]))
            for group in self._groups
        )

    def group_rows(
        self, itype: InstanceType, evaluator: AssignmentEvaluator
    ) -> _Rows:
        """Per-group constants of packing ``itype`` from this pool.

        Maps the index of each group whose tasks fit an empty ``itype`` to
        ``(gpus, cpus, ram, RP, value_cap)``: the demand on the type's
        family, then ``evaluator``'s reservation price and
        :meth:`~AssignmentEvaluator.value_cap`.  A group that misses an
        empty instance misses a partly filled one too, so it has no row.
        All tasks in a group share a demand and a value, so the
        representative decides for the whole bucket; the rows stay valid
        while the pool only loses and regains tasks, as it does for one
        type visit of Algorithm 1 and one survivor fill.
        """
        cap = itype.capacity
        family = itype.family
        max_gpus = cap.gpus + _EPS
        max_cpus = cap.cpus + _EPS
        max_ram = cap.ram_gb + _EPS
        buckets = self._buckets
        rows: _Rows = {}
        for group in self._groups:
            task = buckets[group][-1]
            demand = task.demand_for(family)
            g, c, r = demand.gpus, demand.cpus, demand.ram_gb
            if g > max_gpus or c > max_cpus or r > max_ram:
                continue
            rows[group] = (g, c, r, evaluator.task_rp(task), evaluator.value_cap(task))
        return rows

    def value_ceiling(
        self,
        itype: InstanceType,
        rows: _Rows,
    ) -> float:
        """Upper bound on the value of any instance of ``itype`` packed
        from this pool, or ``math.inf`` where no bound is safe to use.

        Only tasks that fit the empty type can join (``rows``, from
        :meth:`group_rows`), and each adds at most its
        :meth:`~AssignmentEvaluator.value_cap`, which is never negative,
        so a subset never sums above the whole.  Algorithm 1 skips the
        attempts this rules out, which gives the same packing only if a
        rejected attempt leaves the pool as it found it.  ``push_back``
        re-appends the popped tasks, so an attempt that picked one group
        twice swaps that group's top tasks: on a type where some group of
        two or more tasks fits twice (``_ArgmaxScan``'s clamped
        arithmetic and ``_EPS``), the ceiling is ``inf``.
        """
        cap = itype.capacity
        gpus, cpus, ram = cap.gpus, cap.cpus, cap.ram_gb
        buckets = self._buckets
        ceiling = 0.0
        for group in self._groups:
            row = rows.get(group)
            if row is None:
                continue
            g, c, r, _, value = row
            count = len(buckets[group])
            if (
                count > 1
                and g <= max(0.0, gpus - g) + _EPS
                and c <= max(0.0, cpus - c) + _EPS
                and r <= max(0.0, ram - r) + _EPS
            ):
                return math.inf
            ceiling += count * value
        return ceiling

    def drain(self) -> list[Task]:
        """Remove and return every task, in pop order (ascending group
        key, LIFO within each bucket) — what repeated
        ``pop(representatives()[0])`` would produce, without the per-pop
        representative rebuild."""
        drained: list[Task] = []
        for group in self._groups:
            drained.extend(reversed(self._buckets[group]))
        self._buckets = {}
        self._groups = []
        self._size = 0
        return drained


class _ArgmaxScan:
    """Inner argmax of Algorithm 1 (line 8) for one instance.

    Reused across the iterations of one greedy packing.  Demands, RPs
    and value caps come from the type visit's :meth:`_TaskPool.group_rows`,
    and for delta-stable evaluators (plain RP) each group's
    ``value_with`` increment is computed once and reused for the rest of
    the scan instead of re-evaluated against the grown set every
    iteration.  Until the first :meth:`charge` the instance is empty, and
    ``value_with`` on an empty state is ``0.0 + value_cap``: that first
    scan ranks the rows alone.  Remaining capacity is tracked as three
    scalars with the same clamped arithmetic as
    ``ResourceVector.__sub__``/``fits_within`` (identical feasibility
    decisions, no per-check vector allocation).  Ranking is unchanged:
    ``(value, RP(τ), task_id)``, descending.
    """

    def __init__(
        self,
        pool: _TaskPool,
        rows: _Rows,
        capacity,
        family: str,
    ):
        self._pool = pool
        self._rows = rows
        self._family = family
        self._delta: dict[int, float] = {}
        self._gpus = capacity.gpus
        self._cpus = capacity.cpus
        self._ram = capacity.ram_gb
        self._empty = True

    def charge(self, task: Task) -> None:
        """Deduct ``task``'s demand from the tracked remaining capacity."""
        demand = task.demand_for(self._family)
        # Clamped like ResourceVector.__sub__ so feasibility decisions
        # match the vector arithmetic bit for bit.
        self._gpus = max(0.0, self._gpus - demand.gpus)
        self._cpus = max(0.0, self._cpus - demand.cpus)
        self._ram = max(0.0, self._ram - demand.ram_gb)
        self._empty = False

    def fits_any(self) -> bool:
        """True if some pool task fits the remaining capacity, by the
        test :meth:`best` applies: ``False`` means ``best`` finds none."""
        rows = self._rows
        max_gpus = self._gpus + _EPS
        max_cpus = self._cpus + _EPS
        max_ram = self._ram + _EPS
        for group in self._pool._groups:
            row = rows.get(group)
            if (
                row is not None
                and row[0] <= max_gpus
                and row[1] <= max_cpus
                and row[2] <= max_ram
            ):
                return True
        return False

    def best(self, state) -> tuple[Task | None, float]:
        """The feasible candidate maximizing ``value_with``, and its value."""
        pool = self._pool
        buckets = pool._buckets
        rows = self._rows
        best_task: Task | None = None
        best_value = best_rp = 0.0
        best_id = ""
        if self._empty:
            # Every row fits, and ``value_with`` is ``0.0 + value_cap``
            # (a -0.0 cap compares equal to that sum's 0.0).
            for group in pool._groups:
                row = rows.get(group)
                if row is None:
                    continue
                value, rp = row[4], row[3]
                candidate = buckets[group][-1]
                if best_task is None or value > best_value or (
                    value == best_value
                    and (rp, candidate.task_id) > (best_rp, best_id)
                ):
                    best_task = candidate
                    best_value, best_rp, best_id = value, rp, candidate.task_id
        else:
            delta_stable = state.delta_stable
            deltas = self._delta
            base = state.value
            max_gpus = self._gpus + _EPS
            max_cpus = self._cpus + _EPS
            max_ram = self._ram + _EPS
            for group in pool._groups:
                row = rows.get(group)
                if row is None:
                    continue
                gpus, cpus, ram, rp, _ = row
                if gpus > max_gpus or cpus > max_cpus or ram > max_ram:
                    continue
                candidate = buckets[group][-1]
                if delta_stable:
                    delta = deltas.get(group)
                    if delta is None:
                        delta = deltas[group] = state.delta(candidate)
                    value = base + delta
                else:
                    value = state.value_with(candidate)
                # Rank (value, RP, task_id), descending.
                if best_task is None or value > best_value or (
                    value == best_value
                    and (rp, candidate.task_id) > (best_rp, best_id)
                ):
                    best_task = candidate
                    best_value, best_rp, best_id = value, rp, candidate.task_id
        if best_task is None:
            return None, -float("inf")
        return best_task, best_value


def _pack_one_instance(
    itype: InstanceType,
    pool: _TaskPool,
    evaluator: AssignmentEvaluator,
    rows: _Rows,
    resident: Sequence[Task] = (),
) -> tuple[list[Task], float | None]:
    """Greedy inner loop of Algorithm 1 (lines 6–13) for one instance.

    Returns the tasks popped from ``pool`` and the value of the whole
    set.  ``rows`` are ``pool.group_rows(itype, evaluator)``, built once
    per type visit.  ``resident`` tasks (not in the pool) already occupy
    the instance: they seed the value and use capacity, as when Partial
    Reconfiguration offers a surviving instance's spare room (§4.5).
    Where they leave room for no pool task, the result is ``([], None)``
    and no pack state is built; Algorithm 1's own attempts have no
    residents, so their value is always a number.
    """
    scan = _ArgmaxScan(pool, rows, itype.capacity, itype.family)
    for task in resident:
        scan.charge(task)
    if resident and not scan.fits_any():
        return [], None
    chosen: list[Task] = []
    state = evaluator.make_state(resident)
    while True:
        best_task, best_value = scan.best(state)
        if best_task is None:
            break  # nothing fits (line 7 exit)
        if best_value < state.value - _EPS:
            break  # lines 9–11: adding would reduce the set's value
        pool.pop(best_task)
        state.add(best_task)
        chosen.append(best_task)
        scan.charge(best_task)
    return chosen, state.value


class PackMemo:
    """Memoized Algorithm 1 outcomes across scheduling rounds.

    In steady state (no arrivals, completions, or throughput-table
    changes between rounds) Full Reconfiguration re-derives the *same*
    packing every period from bit-identical inputs.  The memo keys on the
    pool fingerprint plus the evaluator's :meth:`cache_token` and returns
    the abstract packing (instance type + task tuple per instance); the
    caller mints fresh instances with :func:`fresh_instance` in packing
    order, so the new ids sort as a real run's would and results stay
    byte-identical.  Entries are dropped wholesale when the
    memo exceeds its cap (steady-state reuse is between consecutive
    rounds, so a small cap suffices).
    """

    __slots__ = ("_entries",)

    MAX_ENTRIES = 64

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple] = {}

    def get(self, key: tuple) -> tuple | None:
        return self._entries.get(key)

    def put(self, key: tuple, value: tuple) -> None:
        if len(self._entries) >= self.MAX_ENTRIES:
            self._entries.clear()
        self._entries[key] = value

    def get_pack(self, key: tuple) -> None:
        """Always ``None``; nothing calls it.  It stays only because
        ``benchmarks/eva_bench/tracer.py`` patches it, so traced runs
        read ``full_reconfig.pack_attempts`` as 0."""
        return None


def full_reconfiguration(
    tasks: Sequence[Task],
    instance_types: Sequence[InstanceType],
    evaluator: AssignmentEvaluator,
    group_identical: bool = True,
    cost_margin: float = 0.0,
    memo: PackMemo | None = None,
) -> list[PackedInstance]:
    """Run Algorithm 1 over ``tasks`` and return the packed configuration.

    Every task appears in exactly one returned instance (each task is
    cost-efficient standalone on its reservation-price type, so the
    algorithm always terminates with a complete assignment).

    ``cost_margin`` is the JCT-aware extension the paper leaves as future
    work (§6.3): multi-task co-locations must beat the instance cost by
    the margin (value ≥ cost · (1 + margin)), trading some packing — and
    its throughput loss — for shorter JCTs.  Standalone placements are
    exempt so every task remains placeable at its reservation-price type.

    ``memo`` optionally reuses identical packings across calls (see
    :class:`PackMemo`); it only engages when the evaluator reports a
    valid :meth:`~AssignmentEvaluator.cache_token`.

    Each instance type is packed with ``evaluator.for_type(itype)``
    (``evaluator`` itself unless its values depend on the type, as under
    the §4.2 heterogeneous extension).  A task no type can host raises
    :class:`~repro.core.reservation_price.InfeasibleTaskError`.
    """
    if not 0.0 <= cost_margin < math.inf:
        raise ValueError(f"cost_margin must be finite and >= 0, got {cost_margin!r}")
    pool = _TaskPool(tasks, evaluator, group_identical)
    memo_key: tuple | None = None
    if memo is not None:
        token = evaluator.cache_token()
        if token is not None:
            memo_key = (
                token,
                cost_margin,
                group_identical,
                tuple(it.name for it in instance_types),
                pool.fingerprint(),
            )
            cached = memo.get(memo_key)
            if cached is not None:
                return [
                    PackedInstance(
                        instance=fresh_instance(itype), tasks=packed_tasks
                    )
                    for itype, packed_tasks in cached
                ]
    types_desc = sorted(
        (it for it in instance_types if not it.is_ghost),
        key=lambda it: (-it.hourly_cost, it.name),
    )
    packed: list[PackedInstance] = []
    for itype in types_desc:
        bound = evaluator.for_type(itype)
        cost = itype.hourly_cost
        # Both accept paths need a value of at least ``cost - _EPS``; an
        # attempt the ceiling rules out would be rejected (line 17), and
        # skipping it leaves the pool as the rejection would.
        rows = pool.group_rows(itype, bound)
        ceiling = pool.value_ceiling(itype, rows)
        while not pool.is_empty() and ceiling >= cost - 2 * _EPS:
            chosen, value = _pack_one_instance(itype, pool, bound, rows)
            threshold = cost * (1.0 + (cost_margin if len(chosen) > 1 else 0.0))
            if chosen and value >= threshold - _EPS:
                placed = chosen
            elif (
                len(chosen) > 1
                and cost_margin > 0
                and value >= cost - _EPS
                and bound.set_value([chosen[0]]) >= cost - _EPS
            ):
                # The margin (not cost-efficiency) blocked this
                # co-location; place the anchor standalone so tasks whose
                # only feasible type is this one are never stranded.
                placed = chosen[:1]
                pool.push_back(chosen[1:])
            else:
                # Line 17: not cost-efficient on this type; put the tasks
                # back and move to the next cheaper type.
                pool.push_back(chosen)
                break
            packed.append(
                PackedInstance(instance=fresh_instance(itype), tasks=tuple(placed))
            )
            if ceiling < math.inf:
                for task in placed:
                    ceiling -= bound.value_cap(task)
        if pool.is_empty():
            break
    if not pool.is_empty():
        leftover = pool.representatives()
        for task in leftover:
            evaluator.task_rp(task)  # InfeasibleTaskError if no type fits it
        examples = [t.task_id for t in leftover[:3]]
        raise RuntimeError(
            f"{len(pool)} task(s) could not be packed (e.g. {examples}); "
            "is some task infeasible on every instance type?"
        )
    if memo_key is not None:
        memo.put(
            memo_key, tuple((p.instance_type, p.tasks) for p in packed)
        )
    return packed


def configuration_cost(packed: Sequence[PackedInstance]) -> float:
    """Hourly provisioning cost of a packed configuration."""
    return sum(p.hourly_cost for p in packed)


def match_existing_instances(
    packed: Sequence[PackedInstance],
    existing: Sequence[tuple[Instance, frozenset[str]]],
) -> list[PackedInstance]:
    """Relabel packed instances with existing instance ids where possible.

    Full Reconfiguration plans instances abstractly; when the plan calls
    for an instance type that is already provisioned, reusing the live
    instance avoids a spurious terminate+launch and reduces migrations.
    For each type, packed instances are matched to live instances of the
    same type by descending task-set overlap.
    """
    by_type: dict[str, list[tuple[Instance, frozenset[str]]]] = {}
    for inst, task_ids in existing:
        by_type.setdefault(inst.instance_type.name, []).append((inst, task_ids))

    relabelled: list[PackedInstance] = []
    for pi in sorted(
        packed, key=lambda p: (-p.hourly_cost, -len(p.tasks), p.instance.instance_id)
    ):
        candidates = by_type.get(pi.instance_type.name)
        if not candidates:
            relabelled.append(pi)
            continue
        want = pi.task_ids()
        best_idx = max(
            range(len(candidates)),
            key=lambda i: (len(candidates[i][1] & want), candidates[i][0].instance_id),
        )
        live_instance, _ = candidates.pop(best_idx)
        if not candidates:
            del by_type[pi.instance_type.name]
        relabelled.append(PackedInstance(instance=live_instance, tasks=pi.tasks))
    return relabelled
