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
inner ``argmax RP(T ∪ {τ'})``.  The TNRP state keeps, per member, the
running pairwise product over its neighbours, multiplied in the order
``set_value`` multiplies them, and the exact table entries one workload
away from them; a candidate then costs O(1) per member, and the state
agrees with ``set_value`` bit for bit whatever entries the throughput
table holds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cluster.instance import InstanceType
from repro.cluster.task import Job, Task
from repro.core.reservation_price import ReservationPriceCalculator, _demand_signature
from repro.core.throughput_table import CoLocationThroughputTable


class PackState(ABC):
    """Incremental evaluation of one instance's tentative task set ``T``
    under :attr:`evaluator`, whose ``set_value`` it reproduces."""

    evaluator: "AssignmentEvaluator"

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
        reservation price.  It is never negative.

        It is also what ``task`` is worth alone: on an empty state,
        ``make_state().value_with(task) == 0.0 + value_cap(task)``, which
        lets Algorithm 1 pick each instance's first task without a state.
        """
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
        self.evaluator = evaluator
        self._value = sum(evaluator.task_rp(t) for t in tasks)

    @property
    def value(self) -> float:
        return self._value

    def delta(self, task: Task) -> float:
        return self.evaluator.task_rp(task)

    def value_with(self, task: Task) -> float:
        return self._value + self.evaluator.task_rp(task)

    def add(self, task: Task) -> None:
        self._value += self.evaluator.task_rp(task)


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

    A scheduler builds a fresh :class:`TNRPEvaluator` whenever the jobs
    mapping changes, but ``set_value`` depends only on the tasks' RPs,
    their jobs' RPs and the throughput table's current entries.  Passing
    one ``TNRPCaches`` to every evaluator lets its results survive across
    rounds; the memo is dropped whenever the table records a changed
    value (its ``version`` bumps).
    """

    __slots__ = ("set_value", "table_version", "catalog_token")

    def __init__(self) -> None:
        self.set_value: dict[tuple[str, ...], float] = {}
        self.table_version = -1
        self.catalog_token: str | None = None

    def sync(self, table: CoLocationThroughputTable) -> None:
        version = table.version
        if version != self.table_version:
            self.set_value.clear()
            self.table_version = version

    def bind(self, catalog_token: str) -> None:
        """Tie the memo to one catalog.  Every cached value embeds RPs,
        so an evaluator priced against a different catalog must not reuse
        them: rebinding to a new token drops everything."""
        if catalog_token != self.catalog_token:
            if self.catalog_token is not None:
                self.set_value.clear()
            self.catalog_token = catalog_token


class _TNRPPackState(PackState):
    """Incremental TNRP of a tentative set.

    ``value_with(τ)`` is ``set_value(members + [τ])`` term by term (see
    :meth:`_scan_entry`), and ``add(τ)`` commits exactly that value, so a
    pairwise-product estimate and an exact table entry take one path.
    Serves any evaluator whose ``set_value`` sums ``tnrp_from_tput``
    over the set's ``table`` throughputs: :class:`TNRPEvaluator` and
    the heterogeneous evaluator (:mod:`repro.core.heterogeneous`).

    ``table.tput(w, neighbours)`` multiplies ``pairwise(w, n)`` into 1.0
    in neighbour order, and member i's neighbours in ``set_value`` are
    the earlier members, then the later ones in add order.  So each
    member keeps that product over its current neighbours, ``add``
    multiplies in the newcomer's factor, and a candidate of workload x
    gives member i ``product_i · pairwise(w_i, x)``: the same factors in
    the same order, hence the same bits.  A candidate's own product over
    the members grows the same way, one factor per ``add``.  An exact
    entry wins on both paths; each member reads its
    :meth:`~CoLocationThroughputTable.exact_row`, the exact entries one
    workload beyond its current neighbours, once per member set, so a
    member term is O(1).
    """

    def __init__(self, evaluator: AssignmentEvaluator, tasks: Sequence[Task]):
        self.evaluator = evaluator
        self._table: CoLocationThroughputTable = evaluator.table  # type: ignore[attr-defined]
        self._default = self._table.default_tput
        self._members: list[Task] = []
        self._workloads: list[str] = []
        #: The member workloads, sorted: a candidate's exact-entry key.
        self._sorted: tuple[str, ...] = ()
        #: Per member: the pairwise product over its current neighbours,
        #: its pairwise row, and its exact-entry row (None when it has
        #: none; the rows list is None until the next scan reads it).
        self._products: list[float] = []
        self._pairs: list[Mapping[str, float]] = []
        self._rows: list[Mapping[str, float] | None] | None = []
        #: Per candidate workload: how many members its product covers,
        #: the product, and its pairwise row.
        self._candidates: dict[str, tuple[int, float, Mapping[str, float]]] = {}
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
        entry = self._scan_cache.get(task.workload)
        if entry is None:
            entry = self._scan_entry(task.workload)
        return entry[0] + self.evaluator.tnrp_from_tput(task, entry[1])

    def _scan_entry(self, workload: str) -> tuple[float, float]:
        """Scan terms for a candidate of ``workload``: the members' TNRP
        sum, accumulated in member order as ``set_value`` does, and the
        candidate's own throughput."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._exact_rows()
        tnrp = self.evaluator.tnrp_from_tput
        default = self._default
        member_sum = 0.0
        for member, product, pairs, row in zip(
            self._members, self._products, self._pairs, rows
        ):
            tput = row.get(workload) if row else None
            if tput is None:
                tput = product * pairs.get(workload, default)
            member_sum += tnrp(member, tput)
        tput = 1.0
        if self._sorted:
            tput = self._table.exact(workload, self._sorted)
            if tput is None:
                tput = self._product(workload)
        entry = self._scan_cache[workload] = (member_sum, tput)
        return entry

    def _product(self, workload: str) -> float:
        """``pairwise(workload, w)`` over the members, in add order."""
        workloads = self._workloads
        count = len(workloads)
        entry = self._candidates.get(workload)
        if entry is None:
            entry = (0, 1.0, self._table.pairwise_row(workload))
        done, product, pairs = entry
        if done < count:
            default = self._default
            for other in workloads[done:]:
                product *= pairs.get(other, default)
            self._candidates[workload] = (count, product, pairs)
        return product

    def _exact_rows(self) -> list[Mapping[str, float] | None]:
        """Each member's exact-entry row for the current member set."""
        members = self._sorted
        exact_row = self._table.exact_row
        by_workload: dict[str, Mapping[str, float] | None] = {}
        for at, workload in enumerate(members):
            if workload not in by_workload:
                by_workload[workload] = exact_row(
                    workload, members[:at] + members[at + 1 :]
                )
        return [by_workload[workload] for workload in self._workloads]

    def add(self, task: Task) -> None:
        self._value = self.value_with(task)
        workload = task.workload
        products, default = self._products, self._default
        for i, pairs in enumerate(self._pairs):
            products[i] *= pairs.get(workload, default)
        products.append(self._product(workload))
        self._pairs.append(self._table.pairwise_row(workload))
        self._members.append(task)
        self._workloads.append(workload)
        members = self._sorted
        at = bisect_left(members, workload)
        self._sorted = members[:at] + (workload,) + members[at:]
        self._rows = None
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
    #: between successive evaluator instances.
    caches: TNRPCaches = field(default_factory=TNRPCaches, repr=False)
    #: Memoized RP(j) (or None when §4.4 does not apply) per job id; jobs
    #: and their RPs are fixed for this evaluator's lifetime, which lasts
    #: while its jobs mapping, calculator and caches serve unchanged.
    _job_rp_cache: dict[str, float | None] = field(default_factory=dict, repr=False)
    urgency: Mapping[str, float] = field(default_factory=dict)
    #: Per task id: ``(RP(τ), charge, u)`` of :meth:`tnrp_from_tput`, fixed
    #: for this evaluator's lifetime like ``_job_rp_cache``.
    _coefficients: dict[str, tuple[float, float | None, float]] = field(
        default_factory=dict, repr=False
    )

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
        coefficients = self._coefficients.get(task.task_id)
        if coefficients is None:
            coefficients = self._coefficients_of(task)
        rp, charge, u = coefficients
        if charge is None:
            return tput * rp
        # With u == 1 this is rp - (1 - tput) * RP(j) exactly: x * 1.0 == x.
        return rp - (1.0 - tput) * charge * u

    def _coefficients_of(self, task: Task) -> tuple[float, float | None, float]:
        """The task's RP, the degradation charge (RP(j) under §4.4, RP(τ)
        for an urgent task outside it, else None) and its urgency."""
        rp = self.calculator.rp(task)
        charge = self._job_rp(task)
        u = self.urgency.get(task.job_id, 1.0)
        if charge is None and u != 1.0:
            charge = rp
        coefficients = self._coefficients[task.task_id] = (rp, charge, u)
        return coefficients

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
