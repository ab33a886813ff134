"""Unit tests for the simulated cloud provider."""

import pytest

from repro.cloud.provider import SimulatedCloud
from repro.cluster.instance import InstanceType, fresh_instance
from repro.cluster.resources import ResourceVector

IT = InstanceType("t", "f", ResourceVector(0, 4, 8), 1.0)


class TestLaunch:
    def test_receipt_and_billing(self):
        cloud = SimulatedCloud()
        receipt = cloud.launch(IT, 100.0)
        assert receipt.request_time_s == 100.0
        # Deterministic delays: acquisition 19s + setup 190s.
        assert receipt.ready_time_s == pytest.approx(100.0 + 209.0)
        assert cloud.active_instances() == [receipt.instance.instance_id]

    def test_premade_instance_identity_kept(self):
        cloud = SimulatedCloud()
        inst = fresh_instance(IT)
        receipt = cloud.launch(IT, 0.0, instance=inst)
        assert receipt.instance.instance_id == inst.instance_id

    def test_mismatched_premade_type_rejected(self):
        cloud = SimulatedCloud()
        other = InstanceType("o", "f", ResourceVector(0, 1, 1), 2.0)
        with pytest.raises(ValueError):
            cloud.launch(IT, 0.0, instance=fresh_instance(other))

    def test_terminate_stops_billing(self):
        cloud = SimulatedCloud()
        receipt = cloud.launch(IT, 0.0)
        cloud.terminate(receipt.instance.instance_id, 3600.0)
        assert cloud.total_cost(7200.0) == pytest.approx(1.0)
