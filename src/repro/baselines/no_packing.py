"""No-Packing baseline (§6.1).

Each task is hosted on its own cheapest feasible instance — no
co-location, hence no interference and no migrations.  This is the
strategy of most existing cloud-based cluster managers and the
normalization baseline for every cost comparison in the paper.

No-Packing decides from its queue alone: each round it launches one
fresh instance of every queued task's reservation-price type and
assigns the task to it.  Placed tasks never move, so a round's work
grows with the queue, not with the cluster, and the policy emits its
actions directly in the canonical order
:func:`~repro.core.protocol.diff_target` would plan for the same target.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.instance import InstanceType, fresh_instance
from repro.cluster.state import ClusterSnapshot, InstanceState, TargetConfiguration
from repro.core.interfaces import Scheduler
from repro.core.protocol import (
    Action,
    AssignTask,
    Decision,
    LaunchInstance,
    Observation,
)
from repro.core.reservation_price import ReservationPriceCalculator


class NoPackingScheduler(Scheduler):
    """One task per instance, on the task's reservation-price type."""

    name = "No-Packing"

    #: Strictly reactive: launches and first placements only.
    action_types = frozenset({LaunchInstance, AssignTask})

    #: Decides from the snapshot's queue alone.
    observation_types = frozenset()

    def __init__(self, catalog: Sequence[InstanceType]):
        self.catalog = [it for it in catalog if not it.is_ghost]
        self.rp_calculator = ReservationPriceCalculator(self.catalog)

    def schedule(self, snapshot: ClusterSnapshot) -> TargetConfiguration:
        """The §3 contract: the target of one :meth:`decide` round."""
        return self.decide(snapshot).target

    def decide(
        self,
        snapshot: ClusterSnapshot,
        observations: tuple[Observation, ...] = (),
    ) -> Decision:
        """Launch an instance for each queued task and assign it there.

        Instances are minted and launched in placement order, by
        descending reservation price with ties broken by task id; the
        assigns follow in ascending task id.  Nothing is terminated: the
        simulator retires an instance when its last task finishes.  The
        attached target is the snapshot's instances, as they are, plus
        the launched ones.  No-Packing reads no observations.
        """
        rp = self.rp_calculator
        queue = sorted(
            snapshot.unassigned_tasks(), key=lambda t: (-rp.rp(t), t.task_id)
        )
        launched = [
            InstanceState(
                instance=fresh_instance(rp.rp_type(task)),
                task_ids=frozenset((task.task_id,)),
            )
            for task in queue
        ]
        actions: list[Action] = [
            LaunchInstance(instance=state.instance) for state in launched
        ]
        actions.extend(
            AssignTask(task_id=task_id, instance_id=instance_id)
            for task_id, instance_id in sorted(
                (task.task_id, state.instance_id)
                for task, state in zip(queue, launched)
            )
        )
        return Decision(
            actions=tuple(actions),
            target=TargetConfiguration(instances=(*snapshot.instances, *launched)),
        )
