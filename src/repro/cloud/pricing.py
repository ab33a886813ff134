"""Billing and cost accounting.

Instances accrue cost from the moment the launch request is issued until
termination, at per-second granularity (AWS Linux on-demand billing).  This
makes acquisition/setup delays *paid but idle* time, which is exactly the
overhead §2.3 argues a scheduler must weigh against provisioning savings.

:class:`BillingLedger` tracks per-instance uptime and cost, and exposes the
aggregate statistics the evaluation reports: total cost, instances
launched, and the instance-uptime distribution (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.instance import InstanceType


@dataclass
class BillingRecord:
    """Lifetime and cost of one provisioned instance.

    ``hourly_rate`` defaults to the type's on-demand price; spot launches
    record a discounted rate instead.

    Mid-life price changes (an attached spot market re-rating live
    instances) split the record into closed rate segments *in place*:
    :meth:`change_rate` folds the finished segment into ``accrued_cost``
    and restarts the open segment at the new rate, so there is still
    exactly one record per instance (``instances_launched`` and the
    uptime distribution are untouched) and both :meth:`change_rate` and
    :meth:`cost` stay O(1).  ``segment_start_s is None`` means the
    record was never re-rated — that path's cost arithmetic is the
    pre-market expression, bit for bit.
    """

    instance_id: str
    instance_type: InstanceType
    launch_time_s: float
    termination_time_s: float | None = None
    hourly_rate: float | None = None
    #: Start of the open rate segment; None until the first re-rate.
    segment_start_s: float | None = None
    #: Dollar cost of all closed rate segments.
    accrued_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.hourly_rate is None:
            self.hourly_rate = self.instance_type.hourly_cost

    def uptime_s(self, now_s: float) -> float:
        end = self.termination_time_s if self.termination_time_s is not None else now_s
        return max(0.0, end - self.launch_time_s)

    def change_rate(self, time_s: float, hourly_rate: float) -> None:
        """Close the current rate segment at ``time_s``; bill the rest at
        ``hourly_rate``."""
        if self.termination_time_s is not None:
            raise ValueError(
                f"instance {self.instance_id} already terminated; cannot re-rate"
            )
        start = (
            self.segment_start_s
            if self.segment_start_s is not None
            else self.launch_time_s
        )
        if time_s < start:
            raise ValueError(
                f"re-rate time {time_s} precedes open segment start {start}"
            )
        self.accrued_cost += (time_s - start) * self.hourly_rate / 3600.0
        self.segment_start_s = time_s
        self.hourly_rate = hourly_rate

    def cost(self, now_s: float) -> float:
        if self.segment_start_s is None:
            return self.uptime_s(now_s) * self.hourly_rate / 3600.0
        end = self.termination_time_s if self.termination_time_s is not None else now_s
        open_s = max(0.0, end - self.segment_start_s)
        return self.accrued_cost + open_s * self.hourly_rate / 3600.0

    @property
    def is_active(self) -> bool:
        return self.termination_time_s is None


@dataclass
class BillingLedger:
    """Tracks launches, terminations, uptimes, and dollar cost."""

    records: dict[str, BillingRecord] = field(default_factory=dict)

    def on_launch(
        self,
        instance_id: str,
        instance_type: InstanceType,
        time_s: float,
        hourly_rate: float | None = None,
    ) -> None:
        if instance_id in self.records:
            raise ValueError(f"instance {instance_id} already launched")
        self.records[instance_id] = BillingRecord(
            instance_id=instance_id,
            instance_type=instance_type,
            launch_time_s=time_s,
            hourly_rate=hourly_rate,
        )

    def on_terminate(self, instance_id: str, time_s: float) -> None:
        record = self.records[instance_id]
        if record.termination_time_s is not None:
            raise ValueError(f"instance {instance_id} already terminated")
        if time_s < record.launch_time_s:
            raise ValueError(
                f"termination time {time_s} precedes launch {record.launch_time_s}"
            )
        record.termination_time_s = time_s

    def change_rate(self, instance_id: str, time_s: float, hourly_rate: float) -> None:
        """Re-rate a live instance from ``time_s`` on (O(1) per change)."""
        self.records[instance_id].change_rate(time_s, hourly_rate)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_cost(self, now_s: float) -> float:
        """Dollar cost accrued by all instances up to ``now_s``."""
        return sum(r.cost(now_s) for r in self.records.values())

    def instances_launched(self) -> int:
        return len(self.records)

    def active_instance_ids(self) -> list[str]:
        return [iid for iid, r in self.records.items() if r.is_active]

    def uptimes_hours(self, now_s: float) -> list[float]:
        """Per-instance uptimes in hours (the Figure 3 distribution)."""
        return [r.uptime_s(now_s) / 3600.0 for r in self.records.values()]
