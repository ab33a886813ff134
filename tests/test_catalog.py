"""Unit tests for the EC2 catalog (§6.1)."""

import pytest

from repro.core.reservation_price import (
    InfeasibleTaskError,
    ReservationPriceCalculator,
)
from repro.workloads.workloads import TABLE7_WORKLOADS


class TestEc2Catalog:
    def test_twenty_one_types(self, catalog):
        assert len(catalog) == 21

    def test_family_split(self, catalog):
        families = {}
        for it in catalog:
            families[it.family] = families.get(it.family, 0) + 1
        assert families == {"p3": 3, "c7i": 9, "r7i": 9}

    def test_only_p3_has_gpus(self, catalog):
        for it in catalog:
            assert (it.capacity.gpus > 0) == (it.family == "p3")

    def test_prices_positive_and_monotone_within_family(self, catalog):
        for family in ("p3", "c7i", "r7i"):
            members = sorted(
                (it for it in catalog if it.family == family),
                key=lambda it: it.capacity.cpus,
            )
            costs = [it.hourly_cost for it in members]
            assert all(c > 0 for c in costs)
            assert costs == sorted(costs)

    def test_catalog_by_name(self, catalog):
        index = {it.name: it for it in catalog}
        assert len(index) == len(catalog)
        assert index["p3.2xlarge"].capacity.gpus == 1
        assert index["r7i.48xlarge"].capacity.ram_gb == 1536


class TestFeasibility:
    def test_every_workload_fits_somewhere(self, catalog):
        calc = ReservationPriceCalculator(catalog)
        for spec in TABLE7_WORKLOADS:
            task = spec.make_job(1.0).tasks[0]
            itype = calc.rp_type(task)
            assert task.demand_for(itype.family).fits_within(itype.capacity)

    def test_cheapest_feasible_types_match_expectations(self, catalog):
        expectations = {
            "ResNet18-2": "p3.2xlarge",
            "ViT": "p3.8xlarge",  # 2 GPUs exceed p3.2xlarge
            "GPT2": "p3.8xlarge",
            "A3C": "c7i.xlarge",  # 4 CPUs / 8 GB on c7i
            "Diamond": "c7i.2xlarge",
            "OpenFOAM": "c7i.2xlarge",
            "GCN": "r7i.2xlarge",  # 40 GB RAM forces the memory family
        }
        calc = ReservationPriceCalculator(catalog)
        for name, expected in expectations.items():
            spec = next(w for w in TABLE7_WORKLOADS if w.name == name)
            task = spec.make_job(1.0).tasks[0]
            assert calc.rp_type(task).name == expected

    def test_infeasible_task_raises(self, catalog):
        from repro.cluster.resources import ResourceVector
        from repro.cluster.task import make_job

        job = make_job("huge", {"*": ResourceVector(16, 1, 1)}, 1.0)
        with pytest.raises(InfeasibleTaskError):
            ReservationPriceCalculator(catalog).rp_type(job.tasks[0])


class TestPaperExample:
    def test_table3_catalog(self, example_catalog):
        costs = {it.name: it.hourly_cost for it in example_catalog}
        assert costs == {"it1": 12.0, "it2": 3.0, "it3": 0.8, "it4": 0.4}
