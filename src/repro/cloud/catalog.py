"""AWS EC2 instance catalog used in the paper's evaluation (§6.1).

The paper provisions from 21 instance types across 3 families:

* **P3** — GPU instances (NVIDIA V100),
* **C7i** — compute-optimized,
* **R7i** — memory-optimized.

Capacities are the published EC2 specs; prices are us-east-1 on-demand
$/hr.  The paper's worked example (Table 3) uses rounded versions of
``p3.8xlarge`` ($12/hr ≈ $12.24) and ``p3.2xlarge`` ($3/hr ≈ $3.06), so the
catalog reproduces the same relative price structure the algorithms rely on.
"""

from __future__ import annotations

from repro.cluster.instance import InstanceType
from repro.cluster.resources import ResourceVector

#: (name, family, gpus, vcpus, ram_gb, $/hr) — 3 P3 + 9 C7i + 9 R7i = 21.
_EC2_SPECS: tuple[tuple[str, str, float, float, float, float], ...] = (
    # P3 (V100 GPUs)
    ("p3.2xlarge", "p3", 1, 8, 61, 3.06),
    ("p3.8xlarge", "p3", 4, 32, 244, 12.24),
    ("p3.16xlarge", "p3", 8, 64, 488, 24.48),
    # C7i (compute optimized)
    ("c7i.large", "c7i", 0, 2, 4, 0.0893),
    ("c7i.xlarge", "c7i", 0, 4, 8, 0.1785),
    ("c7i.2xlarge", "c7i", 0, 8, 16, 0.357),
    ("c7i.4xlarge", "c7i", 0, 16, 32, 0.714),
    ("c7i.8xlarge", "c7i", 0, 32, 64, 1.428),
    ("c7i.12xlarge", "c7i", 0, 48, 96, 2.142),
    ("c7i.16xlarge", "c7i", 0, 64, 128, 2.856),
    ("c7i.24xlarge", "c7i", 0, 96, 192, 4.284),
    ("c7i.48xlarge", "c7i", 0, 192, 384, 8.568),
    # R7i (memory optimized)
    ("r7i.large", "r7i", 0, 2, 16, 0.1323),
    ("r7i.xlarge", "r7i", 0, 4, 32, 0.2646),
    ("r7i.2xlarge", "r7i", 0, 8, 64, 0.5292),
    ("r7i.4xlarge", "r7i", 0, 16, 128, 1.0584),
    ("r7i.8xlarge", "r7i", 0, 32, 256, 2.1168),
    ("r7i.12xlarge", "r7i", 0, 48, 384, 3.1752),
    ("r7i.16xlarge", "r7i", 0, 64, 512, 4.2336),
    ("r7i.24xlarge", "r7i", 0, 96, 768, 6.3504),
    ("r7i.48xlarge", "r7i", 0, 192, 1536, 12.7008),
)


def ec2_catalog() -> list[InstanceType]:
    """The 21 EC2 instance types used throughout the evaluation."""
    return [
        InstanceType(
            name=name,
            family=family,
            capacity=ResourceVector(float(g), float(c), float(m)),
            hourly_cost=price,
        )
        for name, family, g, c, m, price in _EC2_SPECS
    ]


def paper_example_catalog() -> list[InstanceType]:
    """The four instance types of the paper's worked example (Table 3a)."""
    return [
        InstanceType("it1", "gpu", ResourceVector(4, 16, 244), 12.0),
        InstanceType("it2", "gpu", ResourceVector(1, 4, 61), 3.0),
        InstanceType("it3", "cpu", ResourceVector(0, 8, 32), 0.8),
        InstanceType("it4", "cpu", ResourceVector(0, 4, 16), 0.4),
    ]
