"""Simulated cloud platform: EC2 catalog, delays, billing, provider."""

from repro.cloud.catalog import ec2_catalog, paper_example_catalog
from repro.cloud.delays import DelayModel
from repro.cloud.pricing import BillingLedger, BillingRecord
from repro.cloud.provider import LaunchReceipt, SimulatedCloud

__all__ = [
    "ec2_catalog",
    "paper_example_catalog",
    "DelayModel",
    "BillingLedger",
    "BillingRecord",
    "LaunchReceipt",
    "SimulatedCloud",
]
