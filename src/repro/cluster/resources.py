"""Multi-dimensional resource vectors (GPU, CPU, RAM).

The paper schedules tasks with three resource dimensions (§3): GPU count,
CPU cores, and RAM in GB.  ``ResourceVector`` is the shared currency between
tasks (demands), instance types (capacities), and the packing algorithms.

Vectors are immutable value objects supporting element-wise arithmetic and
the partial order used for feasibility checks (``fits_within``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

#: Resource dimension names, in canonical order.
RESOURCE_NAMES = ("gpus", "cpus", "ram_gb")

#: Tolerance for floating-point capacity comparisons.  Demands and
#: capacities are typically small integers, but throughput-weighted
#: arithmetic can introduce representation error.
_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """An immutable (gpus, cpus, ram_gb) triple.

    Supports ``+``, ``-``, scalar ``*``, comparison helpers, and iteration
    in the canonical ``RESOURCE_NAMES`` order.
    """

    gpus: float = 0.0
    cpus: float = 0.0
    ram_gb: float = 0.0

    def __post_init__(self) -> None:
        for name in RESOURCE_NAMES:
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"resource {name!r} must be finite and >= 0, got {value}"
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "ResourceVector":
        """Return the all-zero vector (capacity of the ghost instance type)."""
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def of(cls, gpus: float = 0, cpus: float = 0, ram_gb: float = 0) -> "ResourceVector":
        """Readable keyword constructor: ``ResourceVector.of(gpus=1, cpus=4)``."""
        return cls(float(gpus), float(cpus), float(ram_gb))

    @classmethod
    def sum(cls, vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """Element-wise sum of an iterable of vectors (empty sum is zero)."""
        gpus = cpus = ram = 0.0
        for v in vectors:
            gpus += v.gpus
            cpus += v.cpus
            ram += v.ram_gb
        return cls(gpus, cpus, ram)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.gpus + other.gpus,
            self.cpus + other.cpus,
            self.ram_gb + other.ram_gb,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Element-wise difference, clamped at zero.

        Clamping keeps "remaining capacity" vectors valid in the presence
        of floating-point error; callers that need strict subtraction
        should check ``fits_within`` first.
        """
        return ResourceVector(
            max(0.0, self.gpus - other.gpus),
            max(0.0, self.cpus - other.cpus),
            max(0.0, self.ram_gb - other.ram_gb),
        )

    def __mul__(self, scalar: float) -> "ResourceVector":
        return ResourceVector(self.gpus * scalar, self.cpus * scalar, self.ram_gb * scalar)

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def fits_within(self, capacity: "ResourceVector") -> bool:
        """True if this demand fits inside ``capacity`` in every dimension."""
        return (
            self.gpus <= capacity.gpus + _EPS
            and self.cpus <= capacity.cpus + _EPS
            and self.ram_gb <= capacity.ram_gb + _EPS
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[float]:
        yield self.gpus
        yield self.cpus
        yield self.ram_gb

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.gpus, self.cpus, self.ram_gb)

    def get(self, name: str) -> float:
        """Dimension accessor by canonical name ('gpus' | 'cpus' | 'ram_gb')."""
        if name not in RESOURCE_NAMES:
            raise KeyError(f"unknown resource {name!r}; expected one of {RESOURCE_NAMES}")
        return getattr(self, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.gpus:g}g {self.cpus:g}c {self.ram_gb:g}G]"
