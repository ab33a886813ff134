"""Reservation price (§4.2).

The reservation price ``RP(τ)`` of a task is the hourly cost of the
*cheapest* instance type capable of meeting the task's resource demands —
i.e. the minimum hourly cost of hosting τ standalone, without packing.
For a set of tasks, ``RP(T) = Σ_τ RP(τ)``.

A task-to-instance assignment is cost-efficient iff the reservation price
of the assigned set is at least the instance's hourly cost: provisioning
the shared instance is then no more expensive than giving every task its
own reservation-price instance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cluster.instance import InstanceType
from repro.cluster.task import Task


class InfeasibleTaskError(ValueError):
    """Raised when no instance type in the catalog can host a task."""


def _demand_signature(task: Task) -> tuple:
    """Hashable key identifying a task's demand structure.

    Tasks created from the same workload share demand content but not
    dict identity, so the signature hashes the demand values themselves.
    """
    return tuple(
        sorted((family, vec.as_tuple()) for family, vec in task.demands.items())
    )


@dataclass
class ReservationPriceCalculator:
    """Computes and caches reservation prices against an instance catalog.

    The catalog is snapshotted (as a tuple) at construction: every memo
    below — the signature cache, the per-task-id memo — is only valid
    against the catalog the calculator was built with, so later mutation
    of the caller's catalog list must not leak in.  :attr:`catalog_token`
    names that snapshot; caches shared *across* calculators (pack memos,
    evaluator set-value memos) must key on it, or two schedulers with
    different catalogs sharing a cache would serve each other's prices.

    Attributes:
        catalog: Available instance types (ghost types are ignored).
    """

    catalog: Sequence[InstanceType]
    _cache: dict[tuple, tuple[InstanceType, float]] = field(
        default_factory=dict, repr=False
    )
    #: Per-task-id memo in front of the signature cache: computing the
    #: demand signature itself (a sorted tuple over the demand map) is the
    #: hot part of repeated ``rp()`` calls in Algorithm 1's inner argmax.
    #: Task ids are immutable and unique within a scheduler's lifetime, so
    #: the id fully determines the signature.
    _by_task_id: dict[str, tuple[InstanceType, float]] = field(
        default_factory=dict, repr=False
    )
    _sig_by_task_id: dict[str, tuple] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # Snapshot: memos below assume the catalog never changes under
        # them, so sever the alias to the caller's (possibly mutable) list.
        self.catalog = tuple(self.catalog)
        real_types = [it for it in self.catalog if not it.is_ghost]
        if not real_types:
            raise ValueError("catalog has no (non-ghost) instance types")
        # Ascending cost: the first feasible type is the RP type.
        object.__setattr__(
            self,
            "_by_cost_asc",
            sorted(real_types, key=lambda it: (it.hourly_cost, it.name)),
        )
        content = tuple(
            (it.name, it.family, it.capacity.as_tuple(), it.hourly_cost)
            for it in self.catalog
        )
        # A float's repr round-trips exactly, so equal digests mean equal
        # content; a string caches its hash, a tuple rehashes per lookup.
        object.__setattr__(
            self,
            "_catalog_token",
            hashlib.sha256(repr(content).encode("utf-8")).hexdigest(),
        )

    @property
    def catalog_token(self) -> str:
        """Content digest of the catalog this calculator prices against:
        every type's name, family, capacity and hourly cost.  Two
        calculators agree on every RP iff their tokens are equal, so
        cross-calculator caches key their entries on it."""
        return self._catalog_token  # type: ignore[attr-defined]

    def rp_type(self, task: Task) -> InstanceType:
        """The reservation-price instance type: cheapest feasible for ``task``."""
        return self._lookup(task)[0]

    def demand_signature(self, task: Task) -> tuple:
        """Memoized :func:`_demand_signature` (hot in grouping/argmax paths)."""
        sig = self._sig_by_task_id.get(task.task_id)
        if sig is None:
            sig = _demand_signature(task)
            self._sig_by_task_id[task.task_id] = sig
        return sig

    def rp(self, task: Task) -> float:
        """The reservation price of ``task`` in $/hr."""
        return self._lookup(task)[1]

    def rp_of_set(self, tasks: Iterable[Task]) -> float:
        """``RP(T) = Σ RP(τ)`` (§4.2)."""
        return sum(self.rp(t) for t in tasks)

    def _lookup(self, task: Task) -> tuple[InstanceType, float]:
        hit = self._by_task_id.get(task.task_id)
        if hit is not None:
            return hit
        key = _demand_signature(task)
        hit = self._cache.get(key)
        if hit is not None:
            self._by_task_id[task.task_id] = hit
            return hit
        for itype in self._by_cost_asc:  # type: ignore[attr-defined]
            if task.demand_for(itype.family).fits_within(itype.capacity):
                result = (itype, itype.hourly_cost)
                self._cache[key] = result
                self._by_task_id[task.task_id] = result
                return result
        raise InfeasibleTaskError(
            f"task {task.task_id} ({task.workload}) fits no instance type; "
            f"max demand {task.max_demand}"
        )


def no_packing_cost(
    tasks: Iterable[Task], calculator: ReservationPriceCalculator
) -> float:
    """Hourly cost of hosting every task on its own reservation-price
    instance — the No-Packing baseline's instantaneous provisioning cost."""
    return calculator.rp_of_set(tasks)
