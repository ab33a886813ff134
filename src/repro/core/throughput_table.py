"""Co-location throughput table (§4.3) with interference attribution (§4.4).

The ThroughputMonitor maintains this table online instead of profiling all
co-location combinations up front (profiling cost grows exponentially with
the number of task types).  The table is keyed by *workload names*: all
tasks of the same workload share interference behaviour.

Lookups (``tput``):

* exact match — if the observed co-location set was recorded, return it;
* otherwise estimate as the product of pairwise throughputs
  ``Π_{τ'} tput(τ, τ')``, initializing unknown pairs with the tunable
  default ``t`` (0.95 in all the paper's experiments): smaller ``t`` makes
  packing more conservative.

Algorithm 1's TNRP pack state grows a set one task at a time, so it asks
the same question from the other side: given a task's current neighbours,
which one extra workload has an exact entry?  :meth:`exact_row` answers
from an index kept beside the exact entries.

Updates (``observe_single_task_job`` / ``observe_multi_task_job``): for a
single-task job any throughput drop is attributable to its own co-located
tasks.  For a multi-task job, a drop may come from local interference or
from a straggler task elsewhere; the §4.4 rules pick a single entry to
update so that the recorded value is always a *lower bound* of the true
co-location throughput, converging upward as observations accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

#: Default initial pairwise throughput — Eva's ``t`` parameter (§4.3).
DEFAULT_PAIRWISE_TPUT = 0.95

#: :meth:`CoLocationThroughputTable.pairwise_row` of a workload with no
#: recorded pair.
_NO_PAIRS: Mapping[str, float] = MappingProxyType({})


def _set_key(neighbours: Iterable[str]) -> tuple[str, ...]:
    """Canonical key for a co-location multiset of workload names."""
    return tuple(sorted(neighbours))


@dataclass(frozen=True, slots=True)
class TaskPlacementObservation:
    """One task's placement context at observation time.

    Attributes:
        workload: The observed task's workload name.
        neighbours: Workload names of tasks sharing its instance.
    """

    workload: str
    neighbours: tuple[str, ...]

    @property
    def key(self) -> tuple[str, tuple[str, ...]]:
        return (self.workload, _set_key(self.neighbours))

    @property
    def num_neighbours(self) -> int:
        return len(self.neighbours)


@dataclass
class CoLocationThroughputTable:
    """Online-learned co-location throughput estimates (§4.3–§4.4)."""

    default_tput: float = DEFAULT_PAIRWISE_TPUT
    #: ``workload -> {other: tput}``, mirroring the one-neighbour exacts.
    _pairwise: dict[str, dict[str, float]] = field(default_factory=dict, repr=False)
    _exact: dict[tuple[str, tuple[str, ...]], float] = field(
        default_factory=dict, repr=False
    )
    #: The exact entries again, keyed by the neighbour multiset less one
    #: occurrence of a neighbour ``x``: ``(workload, rest) -> {x: tput}``
    #: for every ``(workload, sorted(rest + (x,)))`` in :attr:`_exact`.
    #: Written only by :meth:`_record`, with :attr:`_exact`.
    _exact_by_rest: dict[tuple[str, tuple[str, ...]], dict[str, float]] = field(
        default_factory=dict, repr=False
    )
    #: Bumped whenever a recorded entry actually changes value; lets
    #: downstream caches (e.g. the TNRP evaluator's set-value memo)
    #: invalidate without subscribing to individual updates.
    _version: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.default_tput <= 1.0:
            raise ValueError(f"default_tput must be in (0, 1], got {self.default_tput}")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def pairwise(self, workload: str, other: str) -> float:
        """Recorded (or default) throughput of ``workload`` next to ``other``."""
        return self.pairwise_row(workload).get(other, self.default_tput)

    def pairwise_row(self, workload: str) -> Mapping[str, float]:
        """``{other: tput}`` of every pair recorded for ``workload``; an
        unlisted ``other`` pairs at :attr:`default_tput`.  The caller must
        not mutate it."""
        return self._pairwise.get(workload, _NO_PAIRS)

    def tput(self, workload: str, neighbours: Sequence[str]) -> float:
        """Estimated throughput of a task given its co-located workloads.

        Exact recorded sets win; otherwise the pairwise-product estimate
        (§4.3) is used.
        """
        if not neighbours:
            return 1.0
        exact = self._exact.get((workload, _set_key(neighbours)))
        if exact is not None:
            return exact
        estimate = 1.0
        for other in neighbours:
            estimate *= self.pairwise(workload, other)
        return estimate

    def exact(self, workload: str, neighbours: tuple[str, ...]) -> float | None:
        """The exact entry for ``workload`` next to ``neighbours`` (sorted,
        non-empty), or None."""
        return self._exact.get((workload, neighbours))

    def exact_row(
        self, workload: str, neighbours: tuple[str, ...]
    ) -> dict[str, float] | None:
        """``{x: tput}`` over every workload ``x`` whose placement of
        ``workload`` next to ``neighbours`` (sorted) plus ``x`` has an exact
        entry, or None when there is none.  The caller must not mutate it."""
        return self._exact_by_rest.get((workload, neighbours))

    def is_recorded(self, observation: TaskPlacementObservation) -> bool:
        """Whether this exact placement has an entry in the table."""
        return observation.key in self._exact

    def recorded_tput(self, observation: TaskPlacementObservation) -> float | None:
        return self._exact.get(observation.key)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _record(self, observation: TaskPlacementObservation, tput: float) -> None:
        tput = min(1.0, max(0.0, tput))
        key = observation.key
        if self._exact.get(key) == tput:
            return  # the monitor re-reports unchanged throughputs
        self._version += 1
        self._exact[key] = tput
        workload, neighbours = key
        for i, other in enumerate(neighbours):
            if i == 0 or neighbours[i - 1] != other:
                rest = (workload, neighbours[:i] + neighbours[i + 1 :])
                self._exact_by_rest.setdefault(rest, {})[other] = tput
        if len(neighbours) == 1:
            self._pairwise.setdefault(workload, {})[neighbours[0]] = tput

    def observe_single_task_job(
        self, observation: TaskPlacementObservation, tput: float
    ) -> None:
        """Record a single-task job's throughput.

        Any decrease is directly attributable to the task's co-located
        neighbours (§4.4), so the entry is simply overwritten.
        """
        if observation.num_neighbours == 0:
            return  # standalone: nothing to learn about co-location
        self._record(observation, tput)

    def observe_multi_task_job(
        self, observations: Sequence[TaskPlacementObservation], tput: float
    ) -> TaskPlacementObservation | None:
        """Attribute a multi-task job's observed throughput to one entry.

        Implements the three §4.4 rules; returns the observation whose
        entry was updated (None when no task is co-located with anyone,
        i.e. there is no interference to attribute).
        """
        co_located = [obs for obs in observations if obs.num_neighbours > 0]
        if not co_located:
            return None

        recorded = [obs for obs in co_located if self.is_recorded(obs)]
        unrecorded = [obs for obs in co_located if not self.is_recorded(obs)]

        if not recorded:
            # Rule 1 — no previous observations: blame the task co-located
            # with the most tasks (most likely straggler).
            target = max(co_located, key=lambda o: (o.num_neighbours, o.key))
            self._record(target, tput)
            return target

        lowest = min(recorded, key=lambda o: (self.recorded_tput(o), o.key))
        lowest_tput = self.recorded_tput(lowest)
        assert lowest_tput is not None

        if lowest_tput < tput:
            # Rule 2 — some recorded entry is lower than the observation:
            # that entry was too pessimistic; raise it to the observation.
            self._record(lowest, tput)
            return lowest

        if unrecorded:
            # Rule 3 — all recorded entries exceed the observation: the
            # straggler must be an unrecorded task; blame the unrecorded
            # one with the most co-located tasks.
            target = max(unrecorded, key=lambda o: (o.num_neighbours, o.key))
            self._record(target, tput)
            return target

        # All placements recorded and none is below the observation: the
        # observation is consistent with the table; refresh the lowest
        # entry (idempotent when equal).
        if tput < lowest_tput:
            self._record(lowest, tput)
            return lowest
        return None

    def sync(
        self,
        entries: Mapping[tuple[str, Sequence[str]], float]
        | "CoLocationThroughputTable",
    ) -> int:
        """Bulk-merge exact entries from a snapshot or another table.

        Every entry is routed through :meth:`_record`, so the pairwise
        store behind the product estimate, the exact-entry index behind
        :meth:`exact_row`, and the :attr:`version` epoch behave exactly as
        if each value had been observed online — a direct dict merge here
        would leave the index behind and skip the epoch bump, letting the
        pack state and the caches keyed on the epoch (the TNRP set-value
        memo, ``PackMemo``) serve stale throughputs.

        Returns the number of value-changing entries merged.
        """
        if isinstance(entries, CoLocationThroughputTable):
            items: Iterable[tuple[tuple[str, Sequence[str]], float]] = (
                entries._exact.items()
            )
        else:
            items = entries.items()
        before = self._version
        for (workload, neighbours), tput in sorted(items):
            self._record(
                TaskPlacementObservation(
                    workload=workload, neighbours=tuple(neighbours)
                ),
                tput,
            )
        return self._version - before

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter of value-changing updates (cache epoch)."""
        return self._version
