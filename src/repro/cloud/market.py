"""Multi-provider spot-market economics (ROADMAP item 4).

Eva's §7 spot extension prices capacity with one static catalog and a
flat ``SPOT_DISCOUNT``.  This module adds the *market* underneath: named
provider/region pools, each covering a slice of the instance-type
catalog, with finite capacity and its own deterministic seeded price
process.  Prices are piecewise-constant multipliers on the catalog's
on-demand rates — either a mean-reverting random walk or a replayed
trace — evaluated **lazily** at event timestamps, so a simulation that
never attaches a market performs no price arithmetic at all and stays
byte-identical to stock Eva.

Determinism contract (mirrors :class:`~repro.sim.simulator.FailureConfig`):

* every knob lives on a frozen, fingerprint-covered dataclass
  (:class:`MarketConfig` is a :class:`~repro.sim.batch.Scenario` field);
* pool *i* draws its walk from ``np.random.default_rng([seed, i])`` — an
  independent stream per pool, advanced one normal per price segment in
  segment order, so the price at time *t* never depends on what the
  scheduler did;
* the walk is extended lazily and memoized per segment: serial and
  parallel :func:`~repro.sim.batch.run_batch` runs evaluate the
  identical sequence.

The price at time ``t`` in pool ``p`` is::

    mult(t) = clamp(quantize(base_multiplier * exp(x_k)), min, max)
    x_0 = 0,   x_{k+1} = (1 - reversion) * x_k + N(0, volatility)

with ``k = floor(t / step_s)`` (segment 0 is always the base price, so
every pool opens at its configured multiplier).  Quantization (nearest
``quantum``) keeps observed prices stable across float noise and bounds
the number of distinct price levels schedulers must reason about; the
clamp runs *after* quantization so ``min_multiplier`` is a hard floor
(the billing-floor invariant in the fuzz tests relies on it).

Replayed traces (inline ``trace`` points or a ``trace_csv`` file of
``time_s,multiplier`` rows) override the walk: the multiplier steps at
each point's timestamp and holds after the last one.

:class:`CreditModel` adds CASH-style burstable families: an instance of
a burstable family launches with a full credit balance, drains it at a
fixed net rate while billed, and drops to ``baseline_fraction`` of its
throughput when the balance hits zero — surfaced to schedulers through
the existing :class:`~repro.core.protocol.StragglerReport` degraded-
capacity observation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.cluster.instance import InstanceType

__all__ = [
    "CreditModel",
    "MarketConfig",
    "MarketPool",
    "MarketRuntime",
    "load_price_trace_csv",
]


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def load_price_trace_csv(path: str) -> tuple[tuple[float, float], ...]:
    """Load a replayed price trace from ``time_s,multiplier`` CSV rows.

    Blank lines and ``#`` comments are skipped; a header row starting
    with a non-numeric field is tolerated.  The returned points are
    validated by :class:`MarketPool`.
    """
    points: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            try:
                time_s, mult = float(fields[0]), float(fields[1])
            except (ValueError, IndexError):
                if not points:
                    continue  # header row
                raise ValueError(f"bad price-trace row in {path!r}: {line!r}")
            points.append((time_s, mult))
    return tuple(points)


@dataclass(frozen=True)
class CreditModel:
    """CASH-style CPU-credit dynamics for burstable instance families.

    An instance of a burstable family starts with ``initial_credit_s``
    seconds of full-speed budget and drains it at a net
    ``1 - accrual_fraction`` seconds per billed second (accrual offsets
    part of the burn).  When the budget is exhausted the instance's
    effective throughput drops to ``baseline_fraction`` for the rest of
    its life — the moment is deterministic from the launch timestamp,
    so the event costs one queue entry and no bookkeeping per tick.

    Attributes:
        families: Instance families subject to credit dynamics; empty
            disables the model entirely.
        initial_credit_s: Full-speed seconds banked at launch.
        accrual_fraction: Fraction of the burn re-earned while running
            (``1.0`` would never exhaust; must be < 1).
        baseline_fraction: Throughput multiplier after exhaustion.
    """

    families: tuple[str, ...] = ()
    initial_credit_s: float = 7200.0
    accrual_fraction: float = 0.25
    baseline_fraction: float = 0.4

    def __post_init__(self) -> None:
        _require_finite("initial_credit_s", self.initial_credit_s)
        _require_finite("accrual_fraction", self.accrual_fraction)
        _require_finite("baseline_fraction", self.baseline_fraction)
        if self.initial_credit_s <= 0:
            raise ValueError(
                f"initial_credit_s must be > 0, got {self.initial_credit_s}"
            )
        if not 0.0 <= self.accrual_fraction < 1.0:
            raise ValueError(
                f"accrual_fraction must be in [0, 1), got {self.accrual_fraction}"
            )
        if not 0.0 < self.baseline_fraction <= 1.0:
            raise ValueError(
                f"baseline_fraction must be in (0, 1], got {self.baseline_fraction}"
            )

    @property
    def exhaustion_horizon_s(self) -> float:
        """Seconds from launch until a busy instance exhausts its credits."""
        return self.initial_credit_s / (1.0 - self.accrual_fraction)


@dataclass(frozen=True)
class MarketPool:
    """One provider/region capacity pool with its own price process.

    Attributes:
        name: Pool label, e.g. ``"aws-use1-c7i"`` — keys observations.
        families: Catalog families priced/capped by this pool; the empty
            tuple makes the pool the catch-all for families no earlier
            pool claims (first match wins, declaration order).
        capacity: Maximum concurrent instances; 0 = unbounded.  Launches
            beyond capacity still succeed but pay ``backlog_delay_s``
            extra provisioning delay and surface a ``PoolExhausted``
            observation — modelling a provider waitlist rather than a
            hard stockout, so scheduler decisions stay executable.
        backlog_delay_s: Extra ready-time delay per over-capacity launch.
        base_multiplier: Price multiplier at t=0 (and forever, for a
            static pool).
        volatility: Per-segment std-dev of the log-price shock; 0 plus
            no replay trace makes the pool *static* (no price events at
            all — the byte-identity path).
        reversion: Mean-reversion strength per segment, in [0, 1].
        step_s: Price-segment duration (piecewise-constant width).
        min_multiplier / max_multiplier: Hard clamp on the multiplier,
            applied after quantization.
        quantum: Price quantization step (nearest multiple); 0 disables.
        trace: Inline replayed trace — ``(time_s, multiplier)`` points,
            strictly increasing in time; overrides the random walk.
        trace_csv: Path to a CSV replay trace (see
            :func:`load_price_trace_csv`); loaded lazily at simulation
            start, mutually exclusive with ``trace``.
    """

    name: str
    families: tuple[str, ...] = ()
    capacity: int = 0
    backlog_delay_s: float = 900.0
    base_multiplier: float = 1.0
    volatility: float = 0.0
    reversion: float = 0.15
    step_s: float = 900.0
    min_multiplier: float = 0.25
    max_multiplier: float = 4.0
    quantum: float = 0.05
    trace: tuple[tuple[float, float], ...] = ()
    trace_csv: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("pool name must be non-empty")
        for knob in (
            "backlog_delay_s",
            "base_multiplier",
            "volatility",
            "reversion",
            "step_s",
            "min_multiplier",
            "max_multiplier",
            "quantum",
        ):
            _require_finite(knob, getattr(self, knob))
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")
        if self.backlog_delay_s < 0:
            raise ValueError(
                f"backlog_delay_s must be >= 0, got {self.backlog_delay_s}"
            )
        if self.volatility < 0:
            raise ValueError(f"volatility must be >= 0, got {self.volatility}")
        if not 0.0 <= self.reversion <= 1.0:
            raise ValueError(f"reversion must be in [0, 1], got {self.reversion}")
        if self.step_s <= 0:
            raise ValueError(f"step_s must be > 0, got {self.step_s}")
        if not 0.0 < self.min_multiplier <= self.max_multiplier:
            raise ValueError(
                "need 0 < min_multiplier <= max_multiplier, got "
                f"({self.min_multiplier}, {self.max_multiplier})"
            )
        if not self.min_multiplier <= self.base_multiplier <= self.max_multiplier:
            raise ValueError(
                f"base_multiplier {self.base_multiplier} outside "
                f"[{self.min_multiplier}, {self.max_multiplier}]"
            )
        if self.quantum < 0:
            raise ValueError(f"quantum must be >= 0, got {self.quantum}")
        if self.trace and self.trace_csv is not None:
            raise ValueError("trace and trace_csv are mutually exclusive")
        last = -math.inf
        for time_s, mult in self.trace:
            _require_finite("trace time", time_s)
            _require_finite("trace multiplier", mult)
            if time_s <= last:
                raise ValueError("trace times must be strictly increasing")
            if mult <= 0:
                raise ValueError(f"trace multiplier must be > 0, got {mult}")
            last = time_s

    @property
    def is_static(self) -> bool:
        """True when the pool's price never moves (no events scheduled)."""
        return (
            self.volatility == 0.0 and not self.trace and self.trace_csv is None
        )


@dataclass(frozen=True)
class MarketConfig:
    """Spot-market injection knobs (off by default).

    A disabled config — or one with no pools — reproduces the
    market-free simulator byte-identically: no price events are armed,
    launches bill at the catalog constant, and the spot preemption draw
    is untouched.  Like :class:`~repro.sim.simulator.FailureConfig`,
    every field is a plain scalar/tuple on a frozen dataclass so the
    scenario fingerprint covers it automatically, and
    :func:`~repro.sim.batch.reseed` rewrites ``seed``.

    Attributes:
        enabled: Master switch.
        pools: Provider/region pools, first-match-wins by family.
        seed: Root seed of the per-pool price streams.
        credits: Optional burstable-family credit dynamics.
        eviction_coupling: Exponent coupling the spot eviction hazard to
            the pool price at launch time: the preemption rate becomes
            ``rate * mult ** eviction_coupling`` (0 — the default —
            leaves the legacy constant-rate draw byte-identical).
            Economically: when the market price runs hot, the provider
            reclaims discounted capacity more aggressively.
    """

    enabled: bool = False
    pools: tuple[MarketPool, ...] = ()
    seed: int = 0
    credits: CreditModel | None = None
    eviction_coupling: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("eviction_coupling", self.eviction_coupling)
        if self.eviction_coupling < 0:
            raise ValueError(
                f"eviction_coupling must be >= 0, got {self.eviction_coupling}"
            )
        names = [pool.name for pool in self.pools]
        if len(names) != len(set(names)):
            raise ValueError(f"pool names must be unique, got {names}")

    @property
    def active(self) -> bool:
        """True when the market actually prices anything."""
        return self.enabled and bool(self.pools)


class _PoolRT:
    """Runtime price state of one pool: lazy walk + capacity count."""

    __slots__ = ("pool", "index", "_rng", "_x", "_mults", "_replay", "count")

    def __init__(self, pool: MarketPool, index: int, seed: int):
        self.pool = pool
        self.index = index
        self._rng = np.random.default_rng([seed, index])
        #: Lazily extended log-price states; segment 0 is pinned at 0.
        self._x: list[float] = [0.0]
        #: Quantized/clamped multipliers, parallel to ``_x``.
        self._mults: list[float] = [self._finish(pool.base_multiplier)]
        self._replay: tuple[tuple[float, float], ...] | None = None
        if pool.trace:
            self._replay = pool.trace
        elif pool.trace_csv is not None:
            self._replay = load_price_trace_csv(pool.trace_csv)
        #: Live instances currently charged to this pool.
        self.count = 0

    def _finish(self, raw: float) -> float:
        pool = self.pool
        if pool.quantum > 0:
            raw = round(raw / pool.quantum) * pool.quantum
        return min(pool.max_multiplier, max(pool.min_multiplier, raw))

    def _extend_to(self, segment: int) -> None:
        # One normal draw per segment, in segment order: the stream is a
        # pure function of (seed, pool index, segment), never of load.
        pool = self.pool
        while len(self._x) <= segment:
            x = (1.0 - pool.reversion) * self._x[-1] + float(
                self._rng.normal(0.0, pool.volatility)
            )
            self._x.append(x)
            self._mults.append(self._finish(pool.base_multiplier * math.exp(x)))

    def multiplier_at(self, time_s: float) -> float:
        pool = self.pool
        if self._replay is not None:
            idx = bisect_right(self._replay, (time_s, math.inf)) - 1
            if idx < 0:
                return self._finish(pool.base_multiplier)
            return self._finish(self._replay[idx][1])
        if pool.is_static:
            return self._mults[0]
        segment = int(time_s // pool.step_s)
        self._extend_to(segment)
        return self._mults[segment]

    def next_boundary_after(self, time_s: float) -> float | None:
        """Next timestamp the price *may* change, or None (static/done)."""
        pool = self.pool
        if self._replay is not None:
            idx = bisect_right(self._replay, (time_s, math.inf))
            if idx >= len(self._replay):
                return None
            return self._replay[idx][0]
        if pool.is_static:
            return None
        return (int(time_s // pool.step_s) + 1) * pool.step_s


class MarketRuntime:
    """Per-simulation market state: prices, capacity counts, membership.

    Built once per :class:`~repro.sim.simulator.ClusterSimulator` from an
    *active* :class:`MarketConfig`; the no-market path never constructs
    one.  Holds nothing the scheduler can reach — policies learn about
    the market exclusively through ``PriceChanged`` / ``PoolExhausted``
    observations.
    """

    def __init__(self, config: MarketConfig):
        if not config.active:
            raise ValueError("MarketRuntime needs an enabled config with pools")
        self.config = config
        self._pools = [
            _PoolRT(pool, index, config.seed)
            for index, pool in enumerate(config.pools)
        ]
        #: family -> pool index (first match wins; None = unpooled).
        self._by_family: dict[str, int | None] = {}
        #: instance_id -> pool index, for re-rating and capacity release.
        self._members: dict[str, int] = {}
        #: Multiplier each pool currently bills at (updated by the
        #: simulator's PRICE_CHANGE handler, read by launches in between).
        self.current = [rt.multiplier_at(0.0) for rt in self._pools]

    # -- resolution ----------------------------------------------------
    def pool_index_for_family(self, family: str) -> int | None:
        cached = self._by_family.get(family, -1)
        if cached != -1:
            return cached
        chosen: int | None = None
        fallback: int | None = None
        for rt in self._pools:
            if family in rt.pool.families:
                chosen = rt.index
                break
            if fallback is None and not rt.pool.families:
                fallback = rt.index
        if chosen is None:
            chosen = fallback
        self._by_family[family] = chosen
        return chosen

    def pool(self, index: int) -> MarketPool:
        return self._pools[index].pool

    # -- pricing -------------------------------------------------------
    def multiplier_at(self, instance_type: InstanceType, time_s: float) -> float:
        """Lazy price lookup — used by launches and the eviction hazard."""
        index = self.pool_index_for_family(instance_type.family)
        if index is None:
            return 1.0
        return self._pools[index].multiplier_at(time_s)

    def refresh(self, index: int, time_s: float) -> tuple[float, float]:
        """Advance pool ``index`` to ``time_s``; returns (old, new)."""
        old = self.current[index]
        new = self._pools[index].multiplier_at(time_s)
        self.current[index] = new
        return old, new

    def next_boundary_after(self, index: int, time_s: float) -> float | None:
        return self._pools[index].next_boundary_after(time_s)

    def initial_boundaries(self) -> list[tuple[int, float]]:
        """(pool index, first price boundary) for every non-static pool."""
        out = []
        for rt in self._pools:
            boundary = rt.next_boundary_after(0.0)
            if boundary is not None:
                out.append((rt.index, boundary))
        return out

    # -- capacity ------------------------------------------------------
    def on_launch(
        self, instance_id: str, instance_type: InstanceType
    ) -> tuple[MarketPool | None, bool]:
        """Charge a launch to its pool; returns (pool, over-capacity?)."""
        index = self.pool_index_for_family(instance_type.family)
        if index is None:
            return None, False
        rt = self._pools[index]
        rt.count += 1
        self._members[instance_id] = index
        exhausted = 0 < rt.pool.capacity < rt.count
        return rt.pool, exhausted

    def on_terminate(self, instance_id: str) -> None:
        index = self._members.pop(instance_id, None)
        if index is not None:
            self._pools[index].count -= 1

    def members_of(self, index: int) -> list[str]:
        """Live instance ids charged to pool ``index`` (sorted)."""
        return sorted(
            iid for iid, idx in self._members.items() if idx == index
        )
