"""Simulated cloud provider (stands in for AWS EC2, §5).

The provider grants instance launch requests after an acquisition + setup
delay (Table 1) and bills per second from the launch request
(:mod:`repro.cloud.pricing`).  Capacity is always available: the paper's
Provisioner retries other availability zones on a stockout (§6.1), but
no evaluated run stocks out, so a launch costs one acquisition draw.

The provider is deliberately control-plane-only — it knows nothing about
tasks.  Task execution is the simulator's (or runtime's) job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cloud.delays import DelayModel
from repro.cloud.pricing import BillingLedger
from repro.cluster.instance import Instance, InstanceType, fresh_instance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.market import MarketRuntime

#: Price multiplier for spot launches (EC2 spot typically trades at
#: ~30% of on-demand).
SPOT_DISCOUNT = 0.3


@dataclass(frozen=True, slots=True)
class LaunchReceipt:
    """Outcome of a launch request.

    Attributes:
        instance: The instance that will come up.
        request_time_s: When the launch was requested (billing starts here).
        ready_time_s: When the instance can start running tasks.
        spot: Whether this is a preemptible spot launch.
        hourly_rate: Billed rate — the on-demand price, or the discounted
            spot price for spot launches, scaled by the market pool's
            current multiplier when a market is attached.
        pool: Market pool the launch was charged to (None without a
            market, or for a family no pool covers).
        pool_exhausted: True when the launch landed beyond its pool's
            capacity and paid the backlog delay.
    """

    instance: Instance
    request_time_s: float
    ready_time_s: float
    spot: bool = False
    hourly_rate: float = 0.0
    pool: str | None = None
    pool_exhausted: bool = False


@dataclass
class SimulatedCloud:
    """An EC2-like provider with launch delays.

    Attributes:
        delay_model: Source of acquisition/setup delays.
        ledger: Billing ledger (shared with the metrics collector).
        market: Optional :class:`~repro.cloud.market.MarketRuntime`.
            When attached, launches price through :meth:`price_at`
            (pool multiplier on top of the catalog rate), charge pool
            capacity, and over-capacity launches pay the pool's backlog
            delay.  ``None`` — the default — is the byte-identical
            legacy path.
    """

    delay_model: DelayModel = field(default_factory=DelayModel)
    ledger: BillingLedger = field(default_factory=BillingLedger)
    market: "MarketRuntime | None" = None

    # ------------------------------------------------------------------
    # Launch / terminate
    # ------------------------------------------------------------------
    def launch(
        self,
        instance_type: InstanceType,
        time_s: float,
        instance: Instance | None = None,
        spot: bool = False,
    ) -> LaunchReceipt:
        """Request one instance; returns when it will be ready.

        Billing starts at the request time.  ``instance`` lets callers
        that pre-allocated an instance identity (e.g. a scheduler's
        planned configuration) keep that identity.
        """
        if instance is None:
            instance = fresh_instance(instance_type)
        elif instance.instance_type is not instance_type:
            raise ValueError(
                f"instance {instance.instance_id} is of type "
                f"{instance.instance_type.name}, not {instance_type.name}"
            )
        ready_time_s = (
            time_s + self.delay_model.acquisition_s() + self.delay_model.setup_s()
        )
        rate = self.price_at(instance_type, time_s, spot=spot)
        pool_name: str | None = None
        pool_exhausted = False
        if self.market is not None:
            pool, pool_exhausted = self.market.on_launch(
                instance.instance_id, instance_type
            )
            if pool is not None:
                pool_name = pool.name
                if pool_exhausted:
                    # Waitlisted, not refused: the launch stays executable
                    # (scheduler decisions were validated against it) but
                    # provisioning drags while the pool runs hot.
                    ready_time_s += pool.backlog_delay_s
        self.ledger.on_launch(
            instance.instance_id, instance_type, time_s, hourly_rate=rate
        )
        return LaunchReceipt(
            instance=instance,
            request_time_s=time_s,
            ready_time_s=ready_time_s,
            spot=spot,
            hourly_rate=rate,
            pool=pool_name,
            pool_exhausted=pool_exhausted,
        )

    def price_at(
        self, instance_type: InstanceType, time_s: float, spot: bool = False
    ) -> float:
        """Hourly rate for ``instance_type`` at ``time_s``.

        The billing hook every launch prices through: catalog on-demand
        rate, spot discount, and — when a market is attached — the
        owning pool's current price multiplier.  Without a market the
        arithmetic is exactly the legacy launch-time constant.
        """
        rate = instance_type.hourly_cost * (SPOT_DISCOUNT if spot else 1.0)
        if self.market is not None:
            rate *= self.market.multiplier_at(instance_type, time_s)
        return rate

    def terminate(self, instance_id: str, time_s: float) -> None:
        """Terminate an instance; billing stops immediately."""
        self.ledger.on_terminate(instance_id, time_s)
        if self.market is not None:
            self.market.on_terminate(instance_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_cost(self, now_s: float) -> float:
        return self.ledger.total_cost(now_s)

    def active_instances(self) -> list[str]:
        return self.ledger.active_instance_ids()
