"""Market-aware scheduling: live pool prices folded into reservation prices.

Eva's reservation price *is* a price — the cheapest hourly rate that
could host a task (§4.2) — but the stock calculator reads the catalog's
static on-demand column.  When a spot market moves pool prices, a
cost-efficiency argmax against stale prices keeps packing jobs into a
pool whose discount has evaporated.  :class:`MarketPrices` is the
:class:`~repro.core.scheduler.Signal` that makes RP track the live
market while leaving the Algorithm-1 path untouched (registry preset
``eva-market``); it pulls the price-level lever:

* **Price tracking** — the signal consumes
  :class:`~repro.core.protocol.PriceChanged` observations (never market
  internals) into a per-family multiplier map.  Each round it publishes
  a *repriced catalog* — the stock catalog with each type's
  ``hourly_cost`` scaled by its family's current multiplier — with a
  :class:`~repro.core.reservation_price.ReservationPriceCalculator` and
  TNRP caches built per price level and cached.  Because every
  RP/TNRP/packing memo keys on the calculator's ``catalog_token`` (which
  embeds the hourly costs), the existing cache discipline partitions per
  price level for free; with all multipliers at 1 the signal publishes
  no price level and the scheduler runs the stock calculator, stock
  caches, stock everything — byte-identical to plain Eva.

* **Cross-pool migration** — emerges from the ordinary path: when pool
  A's multiplier rises, A's types price out of the full-reconfiguration
  argmax and the cost-efficiency criterion, so new and repacked tasks
  land in the cheaper pool and drained instances in the expensive one
  terminate.  No bespoke migration mechanism exists.

* **Bid ceiling** — a family whose multiplier exceeds ``BID_CEILING``
  is withheld from the packing catalog entirely (the scheduler refuses
  to bid at that price), *unless* dropping it would strand demand: a
  family is only droppable while some surviving family's per-dimension
  maximum capacity covers it (GPU types therefore never drop when they
  are the only GPU capacity).

* **On-demand fallback** — :class:`~repro.core.protocol.SpotEvictionNotice`
  observations within ``STORM_WINDOW_S`` of each other count toward an
  eviction storm; at ``STORM_THRESHOLD`` the signal clears its
  ``use_spot`` flag for ``STORM_COOLDOWN_S``, and the simulator bills
  subsequent launches at the full on-demand rate with no preemption
  draw — paying the premium to stop churning.

* **Capacity pressure** — a :class:`~repro.core.protocol.PoolExhausted`
  observation applies a one-round ``EXHAUST_PENALTY`` price floor to
  the pool's families; if launches keep tripping the pool's capacity
  the penalty keeps re-arming, steering load toward pools with room.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.instance import InstanceType
from repro.cluster.state import ClusterSnapshot
from repro.core.evaluation import TNRPCaches
from repro.core.protocol import (
    Observation,
    PoolExhausted,
    PriceChanged,
    SpotEvictionNotice,
)
from repro.core.reservation_price import ReservationPriceCalculator
from repro.core.scheduler import EvaScheduler, PriceLevel, Signal

__all__ = ["MarketPrices"]

#: Maximum price multiplier the signal bids at; families priced above it
#: are withheld from packing when a covering family survives.
BID_CEILING = 1.6
#: Eviction notices within ``STORM_WINDOW_S`` that declare an eviction
#: storm.  On-demand trades at ~3x the spot rate, so the fallback is an
#: emergency brake against pathological churn, not a routine response:
#: it only trips when evictions cluster far beyond the background rate.
STORM_THRESHOLD = 6
#: Sliding window (over notice eviction times) the threshold counts in.
STORM_WINDOW_S = 900.0
#: How long after a storm declaration launches stay on-demand.
STORM_COOLDOWN_S = 900.0
#: One-round price-multiplier floor applied to an exhausted pool's
#: families.
EXHAUST_PENALTY = 1.5

#: Cached price levels (bounded; quantized pool prices keep the level
#: count small in practice).
_MAX_PRICE_LEVELS = 64


class MarketPrices(Signal):
    """Eva bidding into a live spot market (see module docstring).

    Prices, capacity pressure, and eviction storms reach it only as typed
    observations.  With no market observations (or all multipliers back
    at 1) it publishes no price level and keeps ``use_spot`` set, so the
    scheduler runs the stock Eva path byte for byte — the market golden
    matrix pins the reaction, the legacy matrices pin the identity.
    """

    def __init__(self) -> None:
        #: family -> current market multiplier (absent == 1.0).
        self._multipliers: dict[str, float] = {}
        #: pool -> families, pending one-round exhaustion penalties.
        self._exhausted: dict[str, tuple[str, ...]] = {}
        #: Eviction times of recent spot notices (storm detector).
        self._notice_times: list[float] = []
        #: Simulation time until which launches stay on-demand.
        self._storm_until = float("-inf")
        self._stock_catalog: list[InstanceType] = []
        #: price level key -> cached price level.
        self._price_levels: dict[tuple, PriceLevel] = {}

    def bind(self, eva: EvaScheduler) -> None:
        self._stock_catalog = eva.catalog

    def observe(self, observations: tuple[Observation, ...]) -> None:
        for obs in observations:
            if isinstance(obs, PriceChanged):
                for family in obs.families:
                    if obs.multiplier == 1.0:
                        # Back at par: forget the family so an all-par
                        # market runs the stock byte-identical path.
                        self._multipliers.pop(family, None)
                    else:
                        self._multipliers[family] = obs.multiplier
            elif isinstance(obs, PoolExhausted):
                self._exhausted[obs.pool] = obs.families
            elif isinstance(obs, SpotEvictionNotice):
                self._notice_times.append(obs.eviction_time_s)

    def pre_round(self, snapshot: ClusterSnapshot) -> None:
        now = snapshot.time_s
        self._notice_times = [
            t for t in self._notice_times if t > now - STORM_WINDOW_S
        ]
        if len(self._notice_times) >= STORM_THRESHOLD:
            self._storm_until = now + STORM_COOLDOWN_S
            # Consume the notices that declared the storm: extending the
            # cooldown requires a fresh cluster of evictions, not the
            # same ones re-counted every round.
            self._notice_times.clear()
        self.use_spot = not now < self._storm_until
        effective = dict(self._multipliers)
        for families in self._exhausted.values():
            for family in families:
                effective[family] = max(
                    effective.get(family, 1.0), EXHAUST_PENALTY
                )
        # Penalties last one round; a still-hot pool re-emits on the
        # next over-capacity launch, re-arming them.
        self._exhausted.clear()
        self.price_level = self._price_level(
            {f: m for f, m in effective.items() if m != 1.0}
        )

    def _price_level(self, effective: dict[str, float]) -> PriceLevel | None:
        """The cached repriced catalog at ``effective``, or None at par."""
        if not effective:
            return None
        key = tuple(sorted(effective.items()))
        level = self._price_levels.get(key)
        if level is None:
            if len(self._price_levels) >= _MAX_PRICE_LEVELS:
                self._price_levels.clear()
            catalog = self._repriced_catalog(effective)
            level = (catalog, ReservationPriceCalculator(catalog), TNRPCaches())
            self._price_levels[key] = level
        return level

    def _repriced_catalog(self, effective: dict[str, float]) -> list[InstanceType]:
        """Stock catalog at live prices, minus families bid-ceilinged out."""
        overpriced = {
            family
            for family, mult in effective.items()
            if mult > BID_CEILING and self._family_droppable(family)
        }
        return [
            replace(
                itype,
                hourly_cost=itype.hourly_cost
                * effective.get(itype.family, 1.0),
            )
            for itype in self._stock_catalog
            if itype.family not in overpriced
        ]

    def _family_droppable(self, family: str) -> bool:
        """True when another family's biggest type covers this family's.

        The conservative feasibility guard behind the bid ceiling: a
        task that fit the dropped family's largest type also fits the
        covering family's (demands across interchangeable CPU families
        match; a sole GPU family has no cover and never drops).
        """
        mine = [it.capacity for it in self._stock_catalog if it.family == family]
        if not mine:
            return False
        need = (
            max(c.gpus for c in mine),
            max(c.cpus for c in mine),
            max(c.ram_gb for c in mine),
        )
        for other in sorted({it.family for it in self._stock_catalog} - {family}):
            caps = [
                it.capacity for it in self._stock_catalog if it.family == other
            ]
            have = (
                max(c.gpus for c in caps),
                max(c.cpus for c in caps),
                max(c.ram_gb for c in caps),
            )
            if all(h >= n for h, n in zip(have, need)):
                return True
        return False
