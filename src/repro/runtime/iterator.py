"""EvaIterator — the lightweight throughput-reporting API (§5).

Users wrap their training/data iterator in :class:`EvaIterator`; the
worker then queries the throughput achieved over a sliding window (e.g.
the last 10 minutes) at the start of every scheduling round, requiring
minimal code changes on the user side:

>>> it = EvaIterator(range(1000))
>>> for batch in it:                      # doctest: +SKIP
...     train_step(batch)

Timestamps come from an injectable clock so the simulator (and the tests)
can drive logical time.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

#: Default sliding window for throughput queries, seconds.
DEFAULT_WINDOW_S = 600.0

#: Bound on retained timestamps (ring buffer).
MAX_SAMPLES = 100_000


@dataclass
class EvaIterator(Iterable[T]):
    """Iterator wrapper that records per-iteration timestamps.

    Attributes:
        inner: The wrapped iterable.
        clock: Returns current time in seconds (defaults to wall clock;
            inject a logical clock in simulations/tests).
    """

    inner: Iterable[T]
    clock: Callable[[], float] = _time.monotonic
    _timestamps: deque = field(default_factory=deque, repr=False)
    _total_iterations: int = 0

    def __iter__(self) -> Iterator[T]:
        for item in self.inner:
            self.record_iteration()
            yield item

    def record_iteration(self, count: int = 1) -> None:
        """Record ``count`` completed iterations at the current time."""
        now = self.clock()
        for _ in range(count):
            self._timestamps.append(now)
            if len(self._timestamps) > MAX_SAMPLES:
                self._timestamps.popleft()
        self._total_iterations += count

    @property
    def total_iterations(self) -> int:
        return self._total_iterations

    def throughput(self, window_s: float = DEFAULT_WINDOW_S) -> float:
        """Iterations per second over the trailing ``window_s`` seconds."""
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        now = self.clock()
        cutoff = now - window_s
        while self._timestamps and self._timestamps[0] < cutoff:
            self._timestamps.popleft()
        return len(self._timestamps) / window_s
