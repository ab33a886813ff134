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

Evaluators also expose an incremental :class:`PackState` for Algorithm 1's
inner ``argmax RP(T ∪ {τ'})``.  The TNRP state values a candidate with the
same table lookups, in the same order, as ``set_value`` over the grown set,
memoized per candidate workload, so it agrees with ``set_value`` bit for
bit whatever entries the throughput table holds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cluster.instance import InstanceType
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

    def value_cap(self, task: Task) -> float:
        """The most ``task`` can add to any set's value: its value at
        throughput 1.  Throughputs lie in [0, 1], and TNRP's urgency only
        scales the degradation charge, so under RP and TNRP this is the
        reservation price.  It may be negative (a multi-task job on a
        slow family under the heterogeneous evaluator)."""
        return self.task_rp(task)

    @abstractmethod
    def make_state(self, tasks: Sequence[Task] = ()) -> PackState:
        """Incremental state seeded with ``tasks``."""

    def group_key(self, task: Task) -> tuple:
        """Tasks with equal keys are interchangeable under this evaluator.

        Used by Algorithm 1's ``group_identical`` optimization: the inner
        argmax evaluates one representative per group.
        """
        return (task.workload, _demand_signature(task))

    def for_type(self, itype: InstanceType) -> "AssignmentEvaluator":
        """The evaluator Algorithm 1 uses while packing ``itype``.

        ``self`` by default.  An evaluator whose values depend on the
        type being packed (the §4.2 heterogeneous extension binds family
        speeds) returns a bound copy; it must report no
        :meth:`cache_token`, so :class:`~repro.core.full_reconfig.PackMemo`
        never sees it.
        """
        return self

    def cache_token(self) -> tuple | None:
        """Hashable token identifying this evaluator's mutable inputs.

        Two calls against equal task pools with equal tokens are
        guaranteed to value every assignment identically, enabling
        whole-packing memoization (:class:`~repro.core.full_reconfig.PackMemo`).
        ``None`` (the default) disables that memoization — evaluators
        must opt in after establishing the guarantee.
        """
        return None


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

    __slots__ = ("tnrp", "set_value", "table_version", "catalog_token")

    def __init__(self) -> None:
        self.tnrp: dict[tuple[str, float], float] = {}
        self.set_value: dict[tuple[str, ...], float] = {}
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
            self.catalog_token = catalog_token


class _TNRPPackState(PackState):
    """Incremental TNRP of a tentative set.

    ``value_with(τ)`` is ``set_value(members + [τ])`` term by term (see
    :meth:`scan_entry`), and ``add(τ)`` commits exactly that value, so a
    pairwise-product estimate and an exact table entry take one path.
    Serves any evaluator whose ``set_value`` sums ``tnrp_from_tput``
    over the set's ``table`` throughputs: :class:`TNRPEvaluator` and
    the heterogeneous evaluator (:mod:`repro.core.heterogeneous`).
    """

    def __init__(self, evaluator: AssignmentEvaluator, tasks: Sequence[Task]):
        self._ev = evaluator
        self._members: list[Task] = []
        self._workloads: list[str] = []
        self._value = 0.0
        #: Scan memo, cleared on every ``add``: for a fixed member set,
        #: the member-sum and the candidate's throughput depend only on
        #: the candidate's *workload*, so one computation serves every
        #: same-workload candidate in Algorithm 1's scan (and the ``add``
        #: of the one it picks).
        self._scan_cache: dict[str, tuple[float, float]] = {}
        for task in tasks:
            self.add(task)

    @property
    def value(self) -> float:
        return self._value

    def value_with(self, task: Task) -> float:
        member_sum, tput_cand = self.scan_entry(task.workload)
        return member_sum + self._ev.tnrp_from_tput(task, tput_cand)

    def scan_entry(self, workload: str) -> tuple[float, float]:
        """Scan terms for a candidate of ``workload``.

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
        self._value = self.value_with(task)
        self._members.append(task)
        self._workloads.append(task.workload)
        self._scan_cache.clear()


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

    A job with urgency ``u != 1`` has its degradation charge scaled:
    ``TNRP_u(τ, T) = RP(τ) − (1 − tput) · RP(charge) · u``, where the
    charge is ``RP(j)`` under §4.4 and ``RP(τ)`` otherwise.  Standalone
    placements (``tput = 1``) keep their full reservation price.

    Attributes:
        calculator: RP source.
        table: Co-location throughput table (online-learned).
        jobs: job_id → Job, needed for the multi-task extension.
        multi_task_aware: Toggle for the §4.4 extension ("Eva-Multi" vs
            "Eva-Single").
        urgency: job_id → degradation-charge multiplier (``>= 1``); jobs
            absent from the map keep the stock formula bit for bit.  A
            non-empty map needs caches of its own, and it splits
            :meth:`group_key` and :meth:`cache_token` by urgency.
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
    urgency: Mapping[str, float] = field(default_factory=dict)

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
        rp = (
            self.calculator.rp_of_set(job.tasks)
            if job is not None and job.is_multi_task
            else None
        )
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
        u = self.urgency.get(task.job_id, 1.0)
        if u != 1.0:
            charge = job_rp if job_rp is not None else rp
            value = rp - (1.0 - tput) * charge * u
        else:
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
        key = (task.workload, self.calculator.demand_signature(task), arity)
        if self.urgency:
            # Equal tasks stop being interchangeable when their jobs
            # carry different urgency.
            return (*key, self.urgency.get(task.job_id, 1.0))
        return key

    def cache_token(self) -> tuple | None:
        # TNRP additionally depends on the (mutable) throughput table;
        # its version counter epochs every value-changing update.  Job
        # RPs/arities are covered by the task ids in the pool
        # fingerprint (jobs are immutable).  The catalog token keeps memo
        # entries from leaking between schedulers priced against
        # different catalogs (satellite-1 bugfix).
        token = (
            "tnrp",
            self.multi_task_aware,
            self.calculator.catalog_token,
            self.table.version,
        )
        if self.urgency:
            return (*token, tuple(sorted(self.urgency.items())))
        return token
