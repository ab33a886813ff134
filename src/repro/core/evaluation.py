"""Assignment-value evaluators: RP (§4.2) and TNRP (§4.3–§4.4).

Algorithm 1 is written against an abstract *assignment evaluator*: given a
set of tasks destined for one instance, return the set's value in $/hr.
Comparing that value against the instance's hourly cost is the
cost-efficiency criterion.

* :class:`RPEvaluator` values a set at its total reservation price —
  interference-blind ("Eva-RP").
* :class:`TNRPEvaluator` values each task at its throughput-normalized
  reservation price using the co-location throughput table, optionally
  with the §4.4 multi-task job extension ("Eva-TNRP" / "Eva-Multi").

Evaluators also expose an incremental :class:`PackState` so Algorithm 1's
inner ``argmax RP(T ∪ {τ'})`` runs in O(|T|) per candidate instead of
O(|T|²); the TNRP state falls back to an exact recomputation whenever the
throughput table holds exact-set entries that a pure pairwise-product
increment would miss.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cluster.task import Job, Task
from repro.core.reservation_price import ReservationPriceCalculator, _demand_signature
from repro.core.throughput_table import CoLocationThroughputTable


class PackState(ABC):
    """Incremental evaluation of one instance's tentative task set ``T``."""

    #: True when ``value_with(τ) == value + delta(τ)`` with ``delta(τ)``
    #: independent of the current members.  Algorithm 1's argmax then
    #: computes each group's delta once per packing and reuses it across
    #: iterations of the scan instead of re-calling ``value_with``.
    delta_stable: bool = False

    @property
    @abstractmethod
    def value(self) -> float:
        """Current value of the set (0.0 when empty)."""

    @abstractmethod
    def value_with(self, task: Task) -> float:
        """Value of ``T ∪ {task}`` without mutating the state."""

    def delta(self, task: Task) -> float:
        """Member-independent increment (only when ``delta_stable``)."""
        raise NotImplementedError(f"{type(self).__name__} is not delta-stable")

    @abstractmethod
    def add(self, task: Task) -> None:
        """Commit ``task`` into the set."""


class AssignmentEvaluator(ABC):
    """Values a prospective tasks-to-instance assignment in $/hr."""

    @abstractmethod
    def task_rp(self, task: Task) -> float:
        """Reservation price of a single task."""

    @abstractmethod
    def set_value(self, tasks: Sequence[Task]) -> float:
        """Value of assigning ``tasks`` together to one instance."""

    @abstractmethod
    def make_state(self, tasks: Sequence[Task] = ()) -> PackState:
        """Incremental state seeded with ``tasks``."""

    def group_key(self, task: Task) -> tuple:
        """Tasks with equal keys are interchangeable under this evaluator.

        Used by Algorithm 1's ``group_identical`` optimization: the inner
        argmax evaluates one representative per group.
        """
        return (task.workload, _demand_signature(task))

    def cache_token(self) -> tuple | None:
        """Hashable token identifying this evaluator's mutable inputs.

        Two calls against equal task pools with equal tokens are
        guaranteed to value every assignment identically, enabling
        whole-packing memoization (:class:`~repro.core.full_reconfig.PackMemo`).
        ``None`` (the default) disables that memoization — evaluators
        must opt in after establishing the guarantee.
        """
        return None

    def is_cost_efficient(self, tasks: Sequence[Task], hourly_cost: float) -> bool:
        """§4.2/§4.3 criterion: set value must cover the instance's cost."""
        return self.set_value(tasks) >= hourly_cost - 1e-9


# ----------------------------------------------------------------------
# Plain reservation price
# ----------------------------------------------------------------------


class _RPPackState(PackState):
    delta_stable = True

    def __init__(self, evaluator: "RPEvaluator", tasks: Sequence[Task]):
        self._evaluator = evaluator
        self._value = sum(evaluator.task_rp(t) for t in tasks)

    @property
    def value(self) -> float:
        return self._value

    def delta(self, task: Task) -> float:
        return self._evaluator.task_rp(task)

    def value_with(self, task: Task) -> float:
        return self._value + self._evaluator.task_rp(task)

    def add(self, task: Task) -> None:
        self._value += self._evaluator.task_rp(task)


@dataclass
class RPEvaluator(AssignmentEvaluator):
    """Plain reservation price: ``RP(T) = Σ RP(τ)`` (interference-blind)."""

    calculator: ReservationPriceCalculator

    def task_rp(self, task: Task) -> float:
        return self.calculator.rp(task)

    def set_value(self, tasks: Sequence[Task]) -> float:
        return self.calculator.rp_of_set(tasks)

    def make_state(self, tasks: Sequence[Task] = ()) -> PackState:
        return _RPPackState(self, tasks)

    def group_key(self, task: Task) -> tuple:
        return (task.workload, self.calculator.demand_signature(task))

    def cache_token(self) -> tuple | None:
        # RP depends only on immutable task demands and the catalog; the
        # catalog token keeps memo entries from leaking between schedulers
        # priced against different catalogs.
        return ("rp", self.calculator.catalog_token)


# ----------------------------------------------------------------------
# Throughput-normalized reservation price
# ----------------------------------------------------------------------


class TNRPCaches:
    """Cross-round memo shared by successive TNRP evaluators.

    A scheduler builds a fresh :class:`TNRPEvaluator` per round (the jobs
    mapping changes), but the underlying quantities are stable for the
    scheduler's lifetime: ``TNRP(τ, tput)`` depends only on the task's RP
    and its job's RP, and ``set_value`` additionally on the throughput
    table's current entries.  Passing one ``TNRPCaches`` to every
    evaluator lets those results survive across rounds; the set-value
    memo is dropped whenever the table records a changed value (its
    ``version`` bumps), the TNRP memo never needs invalidation.
    """

    __slots__ = ("tnrp", "set_value", "job_rp", "table_version", "catalog_token")

    def __init__(self) -> None:
        self.tnrp: dict[tuple[str, float], float] = {}
        self.set_value: dict[tuple[str, ...], float] = {}
        #: job_id → RP(j).  Jobs are immutable, so the §4.4 whole-job RP
        #: is stable across rounds; evaluators still recheck the job's
        #: presence/arity in their per-round mapping before using it.
        self.job_rp: dict[str, float] = {}
        self.table_version = -1
        self.catalog_token: tuple | None = None

    def sync(self, table: CoLocationThroughputTable) -> None:
        version = table.version
        if version != self.table_version:
            self.set_value.clear()
            self.table_version = version

    def bind(self, catalog_token: tuple) -> None:
        """Tie the memos to one catalog.  Every cached value embeds RPs,
        so an evaluator priced against a different catalog must not reuse
        them: rebinding to a new token drops everything."""
        if catalog_token != self.catalog_token:
            if self.catalog_token is not None:
                self.tnrp.clear()
                self.set_value.clear()
                self.job_rp.clear()
            self.catalog_token = catalog_token


class _TNRPPackState(PackState):
    """Incremental TNRP of a tentative set.

    Maintains, per member, the current throughput estimate.  Adding a
    candidate multiplies each member's throughput by the pairwise entry
    against the candidate's workload — valid exactly when no exact-set
    table entries could apply, which the state checks per operation.
    """

    def __init__(self, evaluator: "TNRPEvaluator", tasks: Sequence[Task]):
        self._ev = evaluator
        self._members: list[Task] = []
        self._tputs: list[float] = []
        self._workloads: list[str] = []
        self._value = 0.0
        # The table cannot change during this state's lifetime (updates
        # only happen between rounds, via the monitor), so the fast-path
        # predicate is fixed at construction.
        self._fast = not evaluator.table.has_large_exact_entries()
        #: Exact-path scan memo, cleared on every ``add``: for a fixed
        #: member set, the member-sum and the candidate's throughput
        #: depend only on the candidate's *workload*, so one computation
        #: serves every same-workload candidate in Algorithm 1's scan.
        self._scan_cache: dict[str, tuple[float, float]] = {}
        for task in tasks:
            self.add(task)

    @property
    def value(self) -> float:
        return self._value

    def _member_tnrp(self, task: Task, tput: float) -> float:
        return self._ev.tnrp_from_tput(task, tput)

    def _fast_path(self) -> bool:
        """Pairwise increments are exact iff the table has no exact-set
        entries for sets larger than a pair (pairs are the pairwise store
        itself)."""
        return self._fast

    def value_with(self, task: Task) -> float:
        if not self._members:
            return self._member_tnrp(task, 1.0)
        if not self._fast_path():
            member_sum, tput_cand = self.scan_entry(task.workload)
            return member_sum + self._ev.tnrp_from_tput(task, tput_cand)
        total = 0.0
        w_new = task.workload
        tput_new = 1.0
        tnrp = self._ev.tnrp_from_tput
        pairwise = self._ev.table.pairwise
        for member, tput, w in zip(self._members, self._tputs, self._workloads):
            total += tnrp(member, tput * pairwise(w, w_new))
            tput_new *= pairwise(w_new, w)
        total += tnrp(task, tput_new)
        return total

    def scan_entry(self, workload: str) -> tuple[float, float]:
        """Exact-path scan terms for a candidate of ``workload``.

        Reproduces ``set_value(members + [candidate])`` term by term and
        in the same accumulation order: member i sees neighbours
        ``ws[:i] + ws[i+1:] + [w_cand]``, the candidate sees ``ws``.
        Both the member sum and the candidate's throughput depend on the
        candidate only through its workload, hence the per-workload memo
        consulted by every same-workload candidate of Algorithm 1's scan.
        """
        entry = self._scan_cache.get(workload)
        if entry is None:
            ev = self._ev
            tnrp = ev.tnrp_from_tput
            tput = ev.table.tput
            ws = self._workloads
            member_sum = 0.0
            for i, member in enumerate(self._members):
                member_sum += tnrp(
                    member, tput(ws[i], ws[:i] + ws[i + 1 :] + [workload])
                )
            entry = (member_sum, tput(workload, ws))
            self._scan_cache[workload] = entry
        return entry

    def add(self, task: Task) -> None:
        if self._scan_cache:
            self._scan_cache.clear()
        if self._fast_path() or not self._members:
            w_new = task.workload
            tput_new = 1.0
            pairwise = self._ev.table.pairwise
            for idx, w in enumerate(self._workloads):
                self._tputs[idx] *= pairwise(w, w_new)
                tput_new *= pairwise(w_new, w)
            self._members.append(task)
            self._workloads.append(w_new)
            self._tputs.append(tput_new)
        else:
            self._members.append(task)
            self._workloads.append(task.workload)
            self._tputs = [
                self._ev.table.tput(
                    t.workload, self._workloads[:i] + self._workloads[i + 1 :]
                )
                for i, t in enumerate(self._members)
            ]
        tnrp = self._ev.tnrp_from_tput
        self._value = sum(
            tnrp(m, tp) for m, tp in zip(self._members, self._tputs)
        )


@dataclass
class TNRPEvaluator(AssignmentEvaluator):
    """Throughput-normalized reservation price (§4.3, §4.4).

    For a task τ in set T with estimated throughput ``tput``:

    * single-task job (or ``multi_task_aware=False``):
      ``TNRP(τ, T) = tput · RP(τ)``;
    * multi-task job j (``multi_task_aware=True``):
      ``TNRP(τ, T) = RP(τ) − (1 − tput) · RP(j)`` — the degradation is
      charged against the whole job's reservation price, since a straggler
      slows every sibling (§4.4).  TNRP can go negative for severely
      interfered multi-task jobs, which is what trips Algorithm 1's
      line 9–11 guard.

    Attributes:
        calculator: RP source.
        table: Co-location throughput table (online-learned).
        jobs: job_id → Job, needed for the multi-task extension.
        multi_task_aware: Toggle for the §4.4 extension ("Eva-Multi" vs
            "Eva-Single").
    """

    calculator: ReservationPriceCalculator
    table: CoLocationThroughputTable
    jobs: Mapping[str, Job] = field(default_factory=dict)
    multi_task_aware: bool = True
    #: Cross-round memo, normally owned by the scheduler so it persists
    #: between the per-round evaluator instances.
    caches: TNRPCaches = field(default_factory=TNRPCaches, repr=False)
    #: Memoized RP(j) (or None when §4.4 does not apply) per job id; jobs
    #: and their RPs are fixed for this evaluator's lifetime (one round).
    _job_rp_cache: dict[str, float | None] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # The shared caches hold RP-derived values; make sure they were
        # not populated against a different catalog (satellite-1 bugfix).
        self.caches.bind(self.calculator.catalog_token)

    def task_rp(self, task: Task) -> float:
        return self.calculator.rp(task)

    def _job_rp(self, task: Task) -> float | None:
        """RP(j) when the §4.4 extension applies to this task, else None."""
        if not self.multi_task_aware:
            return None
        job_id = task.job_id
        if job_id in self._job_rp_cache:
            return self._job_rp_cache[job_id]
        job = self.jobs.get(job_id)
        if job is None or not job.is_multi_task:
            rp = None
        else:
            # RP(j) is stable for an immutable job; share it across
            # rounds (presence in this round's mapping checked above).
            rp = self.caches.job_rp.get(job_id)
            if rp is None:
                rp = self.calculator.rp_of_set(job.tasks)
                self.caches.job_rp[job_id] = rp
        self._job_rp_cache[job_id] = rp
        return rp

    def tnrp_from_tput(self, task: Task, tput: float) -> float:
        cache = self.caches.tnrp
        key = (task.task_id, tput)
        cached = cache.get(key)
        if cached is not None:
            return cached
        rp = self.calculator.rp(task)
        job_rp = self._job_rp(task)
        value = rp - (1.0 - tput) * job_rp if job_rp is not None else tput * rp
        cache[key] = value
        return value

    def task_tnrp(self, task: Task, neighbours: Sequence[str]) -> float:
        """TNRP of one task given the workloads co-located with it."""
        return self.tnrp_from_tput(task, self.table.tput(task.workload, neighbours))

    def set_value(self, tasks: Sequence[Task]) -> float:
        if not tasks:
            return 0.0
        caches = self.caches
        caches.sync(self.table)
        key = tuple(t.task_id for t in tasks)
        cached = caches.set_value.get(key)
        if cached is not None:
            return cached
        workloads = [t.workload for t in tasks]
        total = 0.0
        for idx, task in enumerate(tasks):
            neighbours = workloads[:idx] + workloads[idx + 1 :]
            total += self.task_tnrp(task, neighbours)
        caches.set_value[key] = total
        return total

    def make_state(self, tasks: Sequence[Task] = ()) -> PackState:
        return _TNRPPackState(self, tasks)

    def group_key(self, task: Task) -> tuple:
        """Group also by job arity: RP(j) differs across arities (§4.4)."""
        job = self.jobs.get(task.job_id) if self.multi_task_aware else None
        arity = job.num_tasks if job is not None else 1
        return (task.workload, self.calculator.demand_signature(task), arity)

    def cache_token(self) -> tuple | None:
        # TNRP additionally depends on the (mutable) throughput table;
        # its version counter epochs every value-changing update.  Job
        # RPs/arities are covered by the task ids in the pool
        # fingerprint (jobs are immutable).  The catalog token keeps memo
        # entries from leaking between schedulers priced against
        # different catalogs (satellite-1 bugfix).
        return (
            "tnrp",
            self.multi_task_aware,
            self.calculator.catalog_token,
            self.table.version,
        )
