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

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.cluster.instance import Instance, InstanceType, fresh_instance
from repro.cluster.resources import ResourceVector
from repro.cluster.task import Task
from repro.core.evaluation import AssignmentEvaluator

_EPS = 1e-9


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
    reproducible.  ``pop`` resolves the bucket by the task's group key in
    O(1) instead of scanning every bucket.
    """

    def __init__(self, tasks: Iterable[Task], evaluator: AssignmentEvaluator,
                 group_identical: bool):
        self._evaluator = evaluator
        self._group_identical = group_identical
        self._key_by_id: dict[str, tuple] = {}
        buckets: dict[tuple, list[Task]] = {}
        size = 0
        for task in sorted(tasks, key=lambda t: t.task_id, reverse=True):
            buckets.setdefault(self._key(task), []).append(task)
            size += 1
        self._buckets = buckets
        self._ordered_keys = sorted(buckets)
        self._size = size
        #: Mutation counter backing the fingerprint cache: Algorithm 1
        #: fingerprints the pool once per (type, state) pack attempt, and
        #: consecutive attempts over an unmutated pool reuse the tuple.
        self._rev = 0
        self._fp_rev = -1
        self._fp: tuple = ()
        #: Per-type restricted fingerprints (type name → (rev, fp)) and
        #: per-(group, family) demand triples backing them.
        self._fp_by_type: dict[str, tuple[int, tuple]] = {}
        self._demand_by_key: dict[tuple, tuple[float, float, float]] = {}

    def _key(self, task: Task) -> tuple:
        key = self._key_by_id.get(task.task_id)
        if key is None:
            key = (
                self._evaluator.group_key(task)
                if self._group_identical
                else (task.task_id,)
            )
            self._key_by_id[task.task_id] = key
        return key

    def __len__(self) -> int:
        return self._size

    def is_empty(self) -> bool:
        return self._size == 0

    def representatives(self) -> list[Task]:
        """One candidate task per non-empty group."""
        buckets = self._buckets
        return [buckets[key][-1] for key in self._ordered_keys]

    def pop(self, task: Task) -> Task:
        key = self._key(task)
        bucket = self._buckets.get(key)
        if bucket is None or bucket[-1] is not task:
            raise KeyError(
                f"task {task.task_id} is not a current representative"
            )
        popped = bucket.pop()
        self._size -= 1
        self._rev += 1
        if not bucket:
            del self._buckets[key]
            del self._ordered_keys[bisect_left(self._ordered_keys, key)]
        return popped

    def push_back(self, tasks: Sequence[Task]) -> None:
        self._rev += 1
        for task in tasks:
            key = self._key(task)
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [task]
                insort(self._ordered_keys, key)
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
        if self._fp_rev != self._rev:
            buckets = self._buckets
            self._fp = tuple(
                (key, tuple(t.task_id for t in buckets[key]))
                for key in self._ordered_keys
            )
            self._fp_rev = self._rev
        return self._fp

    def fingerprint_for(self, itype: InstanceType) -> tuple:
        """Fingerprint restricted to groups feasible on an empty ``itype``.

        A group whose demand exceeds the type's full capacity can never
        be chosen by the greedy scan (remaining capacity only shrinks),
        so it cannot influence the pack outcome or the pop sequence —
        two pools that agree on their feasible groups pack identically
        on this type.  Feasibility mirrors :class:`_ArgmaxScan`'s test
        (same ``_EPS`` slack) at full capacity.  All tasks in a group
        share a demand signature, so the representative's demand decides
        for the whole bucket.
        """
        cached = self._fp_by_type.get(itype.name)
        if cached is not None and cached[0] == self._rev:
            return cached[1]
        cap = itype.capacity
        family = itype.family
        max_g = cap.gpus + _EPS
        max_c = cap.cpus + _EPS
        max_r = cap.ram_gb + _EPS
        demands = self._demand_by_key
        buckets = self._buckets
        parts = []
        for key in self._ordered_keys:
            bucket = buckets[key]
            dkey = (key, family)
            d = demands.get(dkey)
            if d is None:
                vec = bucket[-1].demand_for(family)
                d = (vec.gpus, vec.cpus, vec.ram_gb)
                demands[dkey] = d
            if d[0] > max_g or d[1] > max_c or d[2] > max_r:
                continue
            parts.append((key, tuple(t.task_id for t in bucket)))
        fp = tuple(parts)
        self._fp_by_type[itype.name] = (self._rev, fp)
        return fp

    def drain(self) -> list[Task]:
        """Remove and return every task, in pop order (ascending group
        key, LIFO within each bucket) — what repeated
        ``pop(representatives()[0])`` would produce, without the per-pop
        representative rebuild."""
        drained: list[Task] = []
        for key in self._ordered_keys:
            drained.extend(reversed(self._buckets[key]))
        self._buckets = {}
        self._ordered_keys = []
        self._size = 0
        self._rev += 1
        return drained


class _ArgmaxScan:
    """Memoized inner argmax of Algorithm 1 (line 8) for one instance.

    Reused across the iterations of one greedy packing: single-task
    reservation prices and family demands are cached per representative,
    and for delta-stable evaluators (plain RP) each group's ``value_with``
    increment is computed once and reused for the rest of the scan
    instead of re-evaluated against the grown set every iteration.
    Remaining capacity is tracked as three scalars with the same clamped
    arithmetic as ``ResourceVector.__sub__``/``fits_within`` (identical
    feasibility decisions, no per-check vector allocation).  Ranking is
    unchanged: ``(value, RP(τ), task_id)``, descending.
    """

    def __init__(
        self, pool: _TaskPool, evaluator: AssignmentEvaluator, capacity, family: str
    ):
        self._pool = pool
        self._evaluator = evaluator
        self._family = family
        self._rp: dict[str, float] = {}
        self._delta: dict[str, float] = {}
        self._demand: dict[str, tuple[float, float, float]] = {}
        self._gpus = capacity.gpus
        self._cpus = capacity.cpus
        self._ram = capacity.ram_gb

    def charge(self, task: Task) -> None:
        """Deduct ``task``'s demand from the tracked remaining capacity."""
        gpus, cpus, ram = self._demand_of(task)
        # Clamped like ResourceVector.__sub__ so feasibility decisions
        # match the vector arithmetic bit for bit.
        self._gpus = max(0.0, self._gpus - gpus)
        self._cpus = max(0.0, self._cpus - cpus)
        self._ram = max(0.0, self._ram - ram)

    def _demand_of(self, task: Task) -> tuple[float, float, float]:
        demand = self._demand.get(task.task_id)
        if demand is None:
            vec = task.demand_for(self._family)
            demand = (vec.gpus, vec.cpus, vec.ram_gb)
            self._demand[task.task_id] = demand
        return demand

    def best(self, state) -> tuple[Task | None, float]:
        """The feasible candidate maximizing ``value_with``, and its value."""
        evaluator = self._evaluator
        rp_cache = self._rp
        delta_stable = state.delta_stable
        deltas = self._delta
        base = state.value
        max_gpus = self._gpus + _EPS
        max_cpus = self._cpus + _EPS
        max_ram = self._ram + _EPS
        best_task: Task | None = None
        best_rank: tuple[float, float, str] | None = None
        pool = self._pool
        buckets = pool._buckets
        for key in pool._ordered_keys:
            candidate = buckets[key][-1]
            gpus, cpus, ram = self._demand_of(candidate)
            if gpus > max_gpus or cpus > max_cpus or ram > max_ram:
                continue
            task_id = candidate.task_id
            if delta_stable:
                delta = deltas.get(task_id)
                if delta is None:
                    delta = state.delta(candidate)
                    deltas[task_id] = delta
                value = base + delta
            else:
                value = state.value_with(candidate)
            rp = rp_cache.get(task_id)
            if rp is None:
                rp = evaluator.task_rp(candidate)
                rp_cache[task_id] = rp
            rank = (value, rp, task_id)
            if best_rank is None or rank > best_rank:
                best_task, best_rank = candidate, rank
        if best_task is None:
            return None, -float("inf")
        assert best_rank is not None
        return best_task, best_rank[0]


def _pack_one_instance(
    itype: InstanceType,
    pool: _TaskPool,
    evaluator: AssignmentEvaluator,
    memo: "PackMemo | None" = None,
    token: tuple | None = None,
) -> tuple[list[Task], float]:
    """Greedy inner loop of Algorithm 1 (lines 6–13) for one instance.

    With a ``memo`` and a valid evaluator ``token``, the outcome is
    memoized per ``(token, type, pool fingerprint)``: the greedy scan is
    fully determined by the evaluator state (token), the type's capacity
    and family (its name, within one catalog — and the token embeds the
    catalog), and the pool's group/stack order (fingerprint).  A hit
    replays the recorded pop sequence against the live pool, so pool
    mutations — including the bucket rotation a later ``push_back``
    causes after a rejected pack — are byte-identical to a real scan.
    """
    pack_key: tuple | None = None
    if memo is not None and token is not None:
        pack_key = (token, itype.name, pool.fingerprint_for(itype))
        hit = memo.get_pack(pack_key)
        if hit is not None:
            pop_keys, value = hit
            buckets = pool._buckets
            return [pool.pop(buckets[key][-1]) for key in pop_keys], value
    chosen: list[Task] = []
    pop_keys: list[tuple] = []
    state = evaluator.make_state()
    scan = _ArgmaxScan(pool, evaluator, itype.capacity, itype.family)
    while True:
        best_task, best_value = scan.best(state)
        if best_task is None:
            break  # nothing fits (line 7 exit)
        if best_value < state.value - _EPS:
            break  # lines 9–11: adding would reduce the set's value
        if pack_key is not None:
            pop_keys.append(pool._key(best_task))
        pool.pop(best_task)
        state.add(best_task)
        chosen.append(best_task)
        scan.charge(best_task)
    if pack_key is not None:
        memo.put_pack(pack_key, (tuple(pop_keys), state.value))
    return chosen, state.value


class PackMemo:
    """Memoized Algorithm 1 outcomes across scheduling rounds.

    In steady state (no arrivals, completions, or throughput-table
    changes between rounds) Full Reconfiguration re-derives the *same*
    packing every period from bit-identical inputs.  The memo keys on the
    pool fingerprint plus the evaluator's :meth:`cache_token` and returns
    the abstract packing (instance type + task tuple per instance); the
    caller re-mints instance ids with :func:`fresh_instance` in packing
    order, so the global id counter advances exactly as a real run and
    results stay byte-identical.  Entries are dropped wholesale when the
    memo exceeds its cap (steady-state reuse is between consecutive
    rounds, so a small cap suffices).
    """

    __slots__ = ("_entries", "max_entries", "_packs", "max_pack_entries")

    def __init__(self, max_entries: int = 64, max_pack_entries: int = 8192):
        self._entries: dict[tuple, tuple] = {}
        self.max_entries = max_entries
        #: Inner-loop memo: one entry per (token, type, pool fingerprint)
        #: pack attempt — see :func:`_pack_one_instance`.  Entries are a
        #: (pop-key sequence, value) pair, a few machine words each, so
        #: the cap is generous.
        self._packs: dict[tuple, tuple] = {}
        self.max_pack_entries = max_pack_entries

    def get(self, key: tuple) -> tuple | None:
        return self._entries.get(key)

    def put(self, key: tuple, value: tuple) -> None:
        if len(self._entries) >= self.max_entries:
            self._entries.clear()
        self._entries[key] = value

    def get_pack(self, key: tuple) -> tuple | None:
        return self._packs.get(key)

    def put_pack(self, key: tuple, entry: tuple) -> None:
        if len(self._packs) >= self.max_pack_entries:
            self._packs.clear()
        self._packs[key] = entry


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
    """
    if cost_margin < 0:
        raise ValueError("cost_margin must be >= 0")
    pool = _TaskPool(tasks, evaluator, group_identical)
    memo_key: tuple | None = None
    token: tuple | None = None
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
        while not pool.is_empty():
            chosen, value = _pack_one_instance(
                itype, pool, evaluator, memo=memo, token=token
            )
            threshold = itype.hourly_cost * (
                1.0 + (cost_margin if len(chosen) > 1 else 0.0)
            )
            if chosen and value >= threshold - _EPS:
                packed.append(
                    PackedInstance(
                        instance=fresh_instance(itype), tasks=tuple(chosen)
                    )
                )
            elif (
                len(chosen) > 1
                and cost_margin > 0
                and value >= itype.hourly_cost - _EPS
                and evaluator.set_value([chosen[0]]) >= itype.hourly_cost - _EPS
            ):
                # The margin (not cost-efficiency) blocked this
                # co-location; place the anchor standalone so tasks whose
                # only feasible type is this one are never stranded.
                packed.append(
                    PackedInstance(
                        instance=fresh_instance(itype), tasks=(chosen[0],)
                    )
                )
                pool.push_back(chosen[1:])
            else:
                # Line 17: not cost-efficient on this type; put the tasks
                # back and move to the next cheaper type.
                pool.push_back(chosen)
                break
        if pool.is_empty():
            break
    if not pool.is_empty():
        leftover = [t.task_id for t in pool.representatives()]
        raise RuntimeError(
            f"{len(pool)} task(s) could not be packed (e.g. {leftover[:3]}); "
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


def instances_by_type(
    existing: Mapping[str, Sequence[Instance]] | None,
) -> dict[str, list[Instance]]:
    """Normalize an optional reusable-instance mapping (helper for callers)."""
    if existing is None:
        return {}
    return {k: list(v) for k, v in existing.items()}


def packing_summary(packed: Sequence[PackedInstance]) -> dict[str, float]:
    """Quick aggregate stats used by tests and reports."""
    num_tasks = sum(len(p.tasks) for p in packed)
    return {
        "instances": float(len(packed)),
        "tasks": float(num_tasks),
        "hourly_cost": configuration_cost(packed),
        "tasks_per_instance": num_tasks / len(packed) if packed else 0.0,
    }


def total_demand(tasks: Iterable[Task], family: str) -> ResourceVector:
    """Summed family-specific demand — handy for capacity sanity checks."""
    return ResourceVector.sum(t.demand_for(family) for t in tasks)
