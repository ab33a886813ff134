"""Stratus baseline (Chung et al., SoCC '18), adapted per §6.1.

Stratus minimizes migration overhead by co-locating tasks with *similar
finish times*, relying on job runtime estimates (the paper gives Stratus
exact durations — its best case).  Remaining runtimes are discretized into
exponentially growing bins, and Stratus packs within a bin:

* **packer** — a queued task first tries existing instances whose dominant
  remaining runtime falls in the same bin (best fit);
* **scale-out** — tasks that do not fit are grouped per bin, and Stratus
  launches the instance type with the best dollar-efficiency for the
  *group* (highest summed reservation price per dollar among greedy
  fills), so co-scheduled tasks retire together and instances drain
  cleanly.

Stratus never migrates: duration-aligned packing is its substitute for
reconfiguration, which is exactly the trade-off the paper probes in
Figure 5.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.cluster.instance import InstanceType, fresh_instance
from repro.cluster.state import ClusterSnapshot, TargetConfiguration
from repro.cluster.task import Task
from repro.core.interfaces import Scheduler
from repro.core.protocol import AssignTask, LaunchInstance
from repro.core.reservation_price import ReservationPriceCalculator
from repro.baselines.base import OpenInstance, open_instances_of

#: Smallest runtime bin edge, hours.  Bins are [base·2^k, base·2^{k+1}).
_BIN_BASE_HOURS = 0.25


def runtime_bin(remaining_hours: float) -> int:
    """Exponential runtime-bin index of a remaining runtime."""
    if remaining_hours <= _BIN_BASE_HOURS:
        return 0
    return int(math.floor(math.log2(remaining_hours / _BIN_BASE_HOURS))) + 1


class StratusScheduler(Scheduler):
    """Runtime-binned packing with group-aware scale-out, no migrations."""

    name = "Stratus"

    #: "Stratus never migrates" as a machine-checked contract: its
    #: decisions may only launch instances and place queued tasks.
    action_types = frozenset({LaunchInstance, AssignTask})

    #: Bins by the runtimes the snapshot's jobs declare and reads no
    #: observations.
    observation_types = frozenset()

    def __init__(self, catalog: Sequence[InstanceType]):
        self.catalog = [it for it in catalog if not it.is_ghost]
        self.rp_calculator = ReservationPriceCalculator(self.catalog)

    # ------------------------------------------------------------------
    # Runtime estimation
    # ------------------------------------------------------------------
    def _remaining_hours(self, task: Task, snapshot: ClusterSnapshot) -> float:
        """Estimated remaining runtime from the (exact) duration estimate.

        The scheduler knows arrival time and total duration; elapsed time
        bounds progress from above, so this is a lower-bound estimate of
        the remaining runtime — matching how Stratus consumes runtime
        estimates in practice.
        """
        job = snapshot.jobs[task.job_id]
        elapsed_h = max(0.0, (snapshot.time_s - job.arrival_time_s) / 3600.0)
        return max(1e-3, job.duration_hours - elapsed_h)

    def _instance_bin(
        self, open_instance: OpenInstance, snapshot: ClusterSnapshot
    ) -> int | None:
        if not open_instance.tasks:
            return None
        return max(
            runtime_bin(self._remaining_hours(t, snapshot))
            for t in open_instance.tasks
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, snapshot: ClusterSnapshot) -> TargetConfiguration:
        open_instances = open_instances_of(snapshot)
        queued = sorted(
            snapshot.unassigned_tasks(),
            key=lambda t: (-self.rp_calculator.rp(t), t.task_id),
        )

        # Bucket queued tasks by runtime bin.
        bins: dict[int, list[Task]] = {}
        for task in queued:
            bins.setdefault(
                runtime_bin(self._remaining_hours(task, snapshot)), []
            ).append(task)

        for bin_idx in sorted(bins, reverse=True):
            pending = bins[bin_idx]
            pending = self._pack_into_existing(
                pending, bin_idx, open_instances, snapshot
            )
            self._scale_out(pending, open_instances)

        return TargetConfiguration.from_bins(open_instances)

    def _pack_into_existing(
        self,
        pending: list[Task],
        bin_idx: int,
        open_instances: list[OpenInstance],
        snapshot: ClusterSnapshot,
    ) -> list[Task]:
        """The Stratus packer: best-fit into same-bin instances."""
        leftover = []
        for task in pending:
            candidates = [
                oi
                for oi in open_instances
                if oi.fits(task) and self._instance_bin(oi, snapshot) == bin_idx
            ]
            if not candidates:
                leftover.append(task)
                continue

            def leftover_key(oi: OpenInstance) -> tuple:
                rem = oi.remaining() - task.demand_for(oi.instance_type.family)
                return (rem.gpus, rem.cpus, rem.ram_gb, oi.instance.instance_id)

            min(candidates, key=leftover_key).add(task)
        return leftover

    def _scale_out(
        self, pending: list[Task], open_instances: list[OpenInstance]
    ) -> None:
        """Launch group-efficient instances for same-bin leftover tasks.

        For each candidate type, greedily fill it with pending tasks (RP
        descending) and score the fill by summed RP per dollar; launch the
        best-scoring type, assign its fill, and repeat until the bin
        drains.
        """
        pending = list(pending)
        while pending:
            best: tuple[float, InstanceType, list[Task]] | None = None
            for itype in self.catalog:
                fill: list[Task] = []
                remaining = itype.capacity
                for task in pending:
                    demand = task.demand_for(itype.family)
                    if demand.fits_within(remaining):
                        fill.append(task)
                        remaining = remaining - demand
                if not fill:
                    continue
                score = self.rp_calculator.rp_of_set(fill) / itype.hourly_cost
                if best is None or score > best[0] + 1e-12:
                    best = (score, itype, fill)
            if best is None:
                raise ValueError(
                    f"Stratus: no instance type fits task(s) "
                    f"{[t.task_id for t in pending[:3]]}"
                )
            _, itype, fill = best
            open_instances.append(
                OpenInstance(instance=fresh_instance(itype), tasks=list(fill))
            )
            chosen = {t.task_id for t in fill}
            pending = [t for t in pending if t.task_id not in chosen]
