"""Instance types and provisioned instances.

An :class:`InstanceType` mirrors a cloud SKU: a resource capacity plus an
hourly on-demand price (§2.3).  A provisioned :class:`Instance` is a concrete
machine of some type with a stable identity, used as the bin in Eva's
packing algorithms and as the billing unit in the simulator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cluster.resources import ResourceVector

#: Family name reserved for the zero-cost, zero-capacity ghost type used by
#: the ILP formulation (§4.1) to model "instance not provisioned".
GHOST_FAMILY = "ghost"


@dataclass(frozen=True, slots=True)
class InstanceType:
    """A cloud instance SKU.

    Attributes:
        name: SKU name, e.g. ``"p3.2xlarge"``.
        family: Instance family, e.g. ``"p3"``; tasks may declare different
            resource demands per family (Table 7 footnote).
        capacity: Resource capacity of one instance of this type.
        hourly_cost: On-demand price in $/hr.
    """

    name: str
    family: str
    capacity: ResourceVector
    hourly_cost: float

    def __post_init__(self) -> None:
        if self.hourly_cost < 0:
            raise ValueError(f"hourly_cost must be >= 0, got {self.hourly_cost}")

    @property
    def is_ghost(self) -> bool:
        """True for the ILP's zero-cost placeholder type."""
        return self.family == GHOST_FAMILY

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InstanceType({self.name}, {self.capacity}, ${self.hourly_cost:g}/hr)"


def ghost_instance_type() -> InstanceType:
    """The zero-cost, zero-capacity type from the ILP formulation (§4.1)."""
    return InstanceType(
        name="ghost", family=GHOST_FAMILY, capacity=ResourceVector.zero(), hourly_cost=0.0
    )


#: Global id source for :func:`fresh_instance`.  Results depend only on
#: the order of ids (tie-breaks sort them), never on their values.
_instance_counter = itertools.count(1)


@dataclass(eq=False, slots=True)
class Instance:
    """A provisioned (or planned) instance of a given type.

    Identity semantics: two ``Instance`` objects are equal only if they are
    the same object; ``instance_id`` provides a stable, human-readable key.
    """

    instance_type: InstanceType
    instance_id: str = field(default="")

    def __post_init__(self) -> None:
        if not self.instance_id:
            # Twelve digits keep string order equal to mint order for
            # any number of ids a process can mint.
            self.instance_id = f"i-{next(_instance_counter):012d}"

    @property
    def capacity(self) -> ResourceVector:
        return self.instance_type.capacity

    @property
    def hourly_cost(self) -> float:
        return self.instance_type.hourly_cost

    def __hash__(self) -> int:
        return hash(self.instance_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Instance) and other.instance_id == self.instance_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Instance({self.instance_id}, {self.instance_type.name})"


def fresh_instance(instance_type: InstanceType) -> Instance:
    """Allocate a new instance object with a unique id."""
    return Instance(instance_type=instance_type)
