"""Unit tests for billing (per-second accrual from launch to terminate)."""

import pytest

from repro.cloud.pricing import BillingLedger
from repro.cluster.instance import InstanceType
from repro.cluster.resources import ResourceVector

IT = InstanceType("t", "f", ResourceVector(0, 4, 8), 3.6)  # $0.001/s


class TestLedger:
    def test_cost_accrual(self):
        ledger = BillingLedger()
        ledger.on_launch("i-1", IT, 0.0)
        assert ledger.total_cost(1000.0) == pytest.approx(1.0)

    def test_terminate_stops_billing(self):
        ledger = BillingLedger()
        ledger.on_launch("i-1", IT, 0.0)
        ledger.on_terminate("i-1", 500.0)
        assert ledger.total_cost(5000.0) == pytest.approx(0.5)

    def test_double_launch_rejected(self):
        ledger = BillingLedger()
        ledger.on_launch("i-1", IT, 0.0)
        with pytest.raises(ValueError):
            ledger.on_launch("i-1", IT, 10.0)

    def test_double_terminate_rejected(self):
        ledger = BillingLedger()
        ledger.on_launch("i-1", IT, 0.0)
        ledger.on_terminate("i-1", 10.0)
        with pytest.raises(ValueError):
            ledger.on_terminate("i-1", 20.0)

    def test_terminate_before_launch_rejected(self):
        ledger = BillingLedger()
        ledger.on_launch("i-1", IT, 100.0)
        with pytest.raises(ValueError):
            ledger.on_terminate("i-1", 50.0)

    def test_active_tracking(self):
        ledger = BillingLedger()
        ledger.on_launch("i-1", IT, 0.0)
        ledger.on_launch("i-2", IT, 0.0)
        ledger.on_terminate("i-1", 10.0)
        assert ledger.active_instance_ids() == ["i-2"]
        assert ledger.instances_launched() == 2

    def test_uptimes_hours(self):
        ledger = BillingLedger()
        ledger.on_launch("i-1", IT, 0.0)
        ledger.on_terminate("i-1", 3600.0)
        ledger.on_launch("i-2", IT, 0.0)
        uptimes = sorted(ledger.uptimes_hours(7200.0))
        assert uptimes == pytest.approx([1.0, 2.0])
