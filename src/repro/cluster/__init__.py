"""Cluster substrate: resources, tasks, jobs, instances, snapshots."""

from repro.cluster.instance import (
    GHOST_FAMILY,
    Instance,
    InstanceType,
    fresh_instance,
    ghost_instance_type,
)
from repro.cluster.resources import RESOURCE_NAMES, ResourceVector
from repro.cluster.state import (
    ClusterSnapshot,
    InstanceState,
    TargetConfiguration,
    tasks_fit_on_type,
)
from repro.cluster.task import DEFAULT_FAMILY, Job, MigrationDelays, Task, make_job

__all__ = [
    "RESOURCE_NAMES",
    "ResourceVector",
    "GHOST_FAMILY",
    "Instance",
    "InstanceType",
    "fresh_instance",
    "ghost_instance_type",
    "ClusterSnapshot",
    "InstanceState",
    "TargetConfiguration",
    "tasks_fit_on_type",
    "DEFAULT_FAMILY",
    "Job",
    "MigrationDelays",
    "Task",
    "make_job",
]
