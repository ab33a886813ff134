"""Discrete-event engine.

A minimal, allocation-light event queue: events are (time, priority,
sequence, kind, payload) tuples ordered by time, then priority (lower
first), then insertion order.  Stale events are handled by the payload's
owner via version counters — the engine itself never cancels.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Iterable


class EventKind(IntEnum):
    """Event kinds, ordered by same-timestamp processing priority.

    Arrivals are seen before the round so the scheduler can place them;
    task readiness and job completion precede the round so it observes
    up-to-date state; terminations run after migrations have detached.
    """

    JOB_ARRIVAL = 0
    TASK_READY = 1
    JOB_FINISH = 2
    INSTANCE_PREEMPTION = 3
    INSTANCE_TERMINATE = 4
    #: Spot-market advance warning (payload: (instance_id, eviction
    #: time)); sorts before the round so a same-timestamp round already
    #: observes the notice.
    EVICTION_NOTICE = 5
    #: Abrupt instance crash (payload: ``("instance", instance_id)`` for
    #: independent crashes, ``("domain", domain_id)`` for correlated
    #: failure-domain shocks).  Unlike spot preemption there is no
    #: graceful checkpoint: progress rolls back to the last completed
    #: checkpoint.  Sorts before the round (EVICTION_NOTICE precedent)
    #: so a same-timestamp round already observes the failure; sorts
    #: after JOB_FINISH so completions beat same-timestamp crashes.
    INSTANCE_FAILURE = 6
    #: A straggler fault begins: the instance's effective throughput is
    #: multiplied by a slowdown factor (payload: (instance_id, factor)).
    SLOWDOWN_START = 7
    #: The straggler fault ends and the instance recovers full speed
    #: (payload: instance_id).
    SLOWDOWN_END = 8
    #: A market pool's price segment boundary (payload: pool index).
    #: Self-scheduling like the domain-shock stream; sorts before the
    #: round so a same-timestamp round already observes the new price,
    #: and after terminations so a closing instance is billed at the
    #: rate that was live while it ran.
    PRICE_CHANGE = 9
    #: A burstable instance exhausted its CPU credits and drops to its
    #: baseline throughput (payload: instance_id).  Deterministic from
    #: the launch timestamp (see :class:`repro.cloud.market.CreditModel`).
    CREDIT_EXHAUSTED = 10
    SCHEDULING_ROUND = 11


@dataclass(frozen=True, slots=True)
class Event:
    time_s: float
    kind: EventKind
    payload: Any = None


@dataclass
class EventQueue:
    """Priority queue of simulation events."""

    _heap: list[tuple[float, int, int, Event]] = field(default_factory=list)
    _counter: itertools.count = field(default_factory=itertools.count)

    def push(self, event: Event) -> None:
        if event.time_s < 0:
            raise ValueError(f"event time must be >= 0, got {event.time_s}")
        heapq.heappush(
            self._heap,
            (event.time_s, int(event.kind), next(self._counter), event),
        )

    def push_all(self, events: Iterable[Event]) -> None:
        """Bulk-push; heapifies once when the queue is empty (O(n) vs
        O(n log n) sequential pushes).  Pop order is unaffected: entries
        are totally ordered by (time, kind, insertion counter).
        """
        if self._heap:
            for event in events:
                self.push(event)
            return
        counter = self._counter
        entries = [
            (event.time_s, int(event.kind), next(counter), event)
            for event in events
        ]
        # Validate before mutating, preserving push()'s contract that a
        # rejected event leaves the queue untouched.
        for time_s, _, _, _ in entries:
            if time_s < 0:
                raise ValueError(f"event time must be >= 0, got {time_s}")
        heapq.heapify(entries)
        self._heap = entries

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)[3]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
