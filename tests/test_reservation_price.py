"""Unit and property tests for reservation price (§4.2)."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import ResourceVector
from repro.cluster.task import make_job
from repro.core.reservation_price import (
    InfeasibleTaskError,
    ReservationPriceCalculator,
    no_packing_cost,
)


class TestPaperExample:
    def test_table3_reservation_prices(self, example_catalog, example_tasks):
        calc = ReservationPriceCalculator(example_catalog)
        prices = [calc.rp(t) for t in example_tasks]
        assert prices == [12.0, 3.0, 0.8, 0.4]

    def test_table3_rp_types(self, example_catalog, example_tasks):
        calc = ReservationPriceCalculator(example_catalog)
        names = [calc.rp_type(t).name for t in example_tasks]
        assert names == ["it1", "it2", "it3", "it4"]

    def test_rp_of_set_additive(self, example_catalog, example_tasks):
        calc = ReservationPriceCalculator(example_catalog)
        assert calc.rp_of_set(example_tasks) == pytest.approx(16.2)
        assert no_packing_cost(example_tasks, calc) == pytest.approx(16.2)


class TestMechanics:
    def test_infeasible_raises(self, example_catalog):
        job = make_job("huge", {"*": ResourceVector(100, 1, 1)}, 1.0)
        calc = ReservationPriceCalculator(example_catalog)
        with pytest.raises(InfeasibleTaskError):
            calc.rp(job.tasks[0])

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            ReservationPriceCalculator([])

    def test_ghost_types_ignored(self, example_catalog):
        from repro.cluster.instance import ghost_instance_type

        calc = ReservationPriceCalculator(list(example_catalog) + [ghost_instance_type()])
        job = make_job("w", {"*": ResourceVector(0, 1, 1)}, 1.0)
        # The ghost's zero cost must never be the RP.
        assert calc.rp(job.tasks[0]) == 0.4

    def test_cache_shared_across_identical_tasks(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        job = make_job("w", {"*": ResourceVector(0, 4, 8)}, 1.0, num_tasks=50)
        for task in job.tasks:
            calc.rp(task)
        assert len(calc._cache) == 1

    def test_family_specific_demand(self, catalog):
        from repro.workloads.workloads import workload

        calc = ReservationPriceCalculator(catalog)
        gcn = workload("GCN").make_job(1.0).tasks[0]
        # GCN needs 12 CPUs on P3 but only 6 on C7i/R7i; 40 GB RAM steers
        # it to the memory family.
        assert calc.rp_type(gcn).name == "r7i.2xlarge"

    def test_is_cost_efficient(self, example_catalog, example_tasks):
        # Algorithm 1 always terminates because every task pays for its RP
        # type standalone (equality counts); tau2 alone does not pay for it1.
        calc = ReservationPriceCalculator(example_catalog)
        for task in example_tasks:
            assert calc.rp(task) >= calc.rp_type(task).hourly_cost
        it1 = example_catalog[0]
        assert calc.rp(example_tasks[0]) >= it1.hourly_cost  # 12 >= 12
        assert calc.rp(example_tasks[1]) < it1.hourly_cost  # 3 < 12


class TestProperties:
    demand = st.builds(
        ResourceVector,
        st.sampled_from([0.0, 1.0, 2.0, 4.0]),
        st.floats(min_value=1, max_value=16),
        st.floats(min_value=1, max_value=244),
    )

    @settings(max_examples=50, deadline=None)
    @given(demand)
    def test_rp_is_cheapest_feasible(self, demand):
        from repro.cloud.catalog import ec2_catalog

        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        job = make_job("w", {"*": demand}, 1.0)
        task = job.tasks[0]
        rp = calc.rp(task)
        feasible = [
            it.hourly_cost
            for it in catalog
            if task.demand_for(it.family).fits_within(it.capacity)
        ]
        assert rp == min(feasible)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1, max_value=8), st.floats(min_value=1, max_value=8))
    def test_rp_monotone_in_demand(self, small_cpu, extra):
        from repro.cloud.catalog import ec2_catalog

        calc = ReservationPriceCalculator(ec2_catalog())
        lo = make_job("w", {"*": ResourceVector(0, small_cpu, 4)}, 1.0).tasks[0]
        hi = make_job(
            "w", {"*": ResourceVector(0, small_cpu + extra, 4)}, 1.0
        ).tasks[0]
        assert calc.rp(hi) >= calc.rp(lo)


class TestCatalogTokenKeying:
    """Satellite-1 regression: RP-derived caches shared across schedulers
    must key on the catalog *content* snapshot, or two schedulers priced
    against different catalogs would serve each other's prices."""

    @staticmethod
    def _repriced(catalog, factor=2.0):
        from dataclasses import replace

        return [replace(it, hourly_cost=it.hourly_cost * factor) for it in catalog]

    def test_token_is_content_derived(self, example_catalog):
        a = ReservationPriceCalculator(example_catalog)
        b = ReservationPriceCalculator(list(example_catalog))
        assert a.catalog_token == b.catalog_token
        c = ReservationPriceCalculator(self._repriced(example_catalog))
        assert c.catalog_token != a.catalog_token

    def test_evaluator_cache_tokens_distinguish_catalogs(self, example_catalog):
        from repro.core.evaluation import RPEvaluator, TNRPEvaluator
        from repro.core.throughput_table import CoLocationThroughputTable

        a = ReservationPriceCalculator(example_catalog)
        c = ReservationPriceCalculator(self._repriced(example_catalog))
        assert RPEvaluator(a).cache_token() != RPEvaluator(c).cache_token()
        table = CoLocationThroughputTable()
        assert (
            TNRPEvaluator(a, table).cache_token()
            != TNRPEvaluator(c, table).cache_token()
        )

    def test_shared_caches_rebind_drops_stale_prices(self, example_catalog):
        """The cross-round set-value memo survives rounds but not a
        catalog change: the same task must get each catalog's own price."""
        from repro.core.evaluation import TNRPCaches, TNRPEvaluator
        from repro.core.throughput_table import CoLocationThroughputTable

        job = make_job(
            "w", {"*": ResourceVector(0, 4, 8)}, 1.0, num_tasks=2, job_id="j"
        )
        jobs = {"j": job}
        task = job.tasks[0]
        table = CoLocationThroughputTable()
        caches = TNRPCaches()

        calc_a = ReservationPriceCalculator(example_catalog)
        ev_a = TNRPEvaluator(calc_a, table, jobs=jobs, caches=caches)
        value_a = ev_a.tnrp_from_tput(task, 0.5)
        set_a = ev_a.set_value(job.tasks)
        assert caches.set_value  # memo populated

        calc_b = ReservationPriceCalculator(self._repriced(example_catalog))
        ev_b = TNRPEvaluator(calc_b, table, jobs=jobs, caches=caches)
        # Construction rebinds the shared caches to the new catalog token
        # and drops every RP-derived entry.
        assert not caches.set_value
        value_b = ev_b.tnrp_from_tput(task, 0.5)
        assert value_b == pytest.approx(2.0 * value_a)
        assert ev_b.set_value(job.tasks) == pytest.approx(2.0 * set_a)
        # Rebinding back also invalidates (no cross-catalog survivors).
        ev_a2 = TNRPEvaluator(calc_a, table, jobs=jobs, caches=caches)
        assert not caches.set_value
        assert ev_a2.tnrp_from_tput(task, 0.5) == value_a
        assert ev_a2.set_value(job.tasks) == set_a


class TestCatalogTokenDigest:
    """The catalog token is a digest string, hashed once per calculator,
    that keeps the content tuple's equality: equal catalogs give equal
    tokens and any changed field a different one, down to one ulp."""

    _FIELDS = {
        "name": lambda it: replace(it, name=it.name + "-b"),
        "family": lambda it: replace(it, family=it.family + "-b"),
        "gpus": lambda it: replace(
            it, capacity=replace(it.capacity, gpus=_ulp_up(it.capacity.gpus))
        ),
        "cpus": lambda it: replace(
            it, capacity=replace(it.capacity, cpus=_ulp_up(it.capacity.cpus))
        ),
        "ram_gb": lambda it: replace(
            it, capacity=replace(it.capacity, ram_gb=_ulp_up(it.capacity.ram_gb))
        ),
        "hourly_cost": lambda it: replace(
            it, hourly_cost=_ulp_up(it.hourly_cost)
        ),
    }

    def test_token_is_a_string(self, example_catalog):
        assert isinstance(
            ReservationPriceCalculator(example_catalog).catalog_token, str
        )

    def test_equal_catalogs_equal_tokens(self, catalog):
        copied = [
            replace(it, capacity=replace(it.capacity)) for it in catalog
        ]
        assert copied[0] is not catalog[0]
        assert (
            ReservationPriceCalculator(copied).catalog_token
            == ReservationPriceCalculator(catalog).catalog_token
        )

    @pytest.mark.parametrize("field", sorted(_FIELDS))
    def test_any_changed_field_changes_the_token(self, field, example_catalog):
        stock = ReservationPriceCalculator(example_catalog).catalog_token
        change = self._FIELDS[field]
        for index, itype in enumerate(example_catalog):
            changed = list(example_catalog)
            changed[index] = change(itype)
            assert changed[index] != itype
            token = ReservationPriceCalculator(changed).catalog_token
            assert token != stock, (field, itype.name)


def _ulp_up(value: float) -> float:
    return math.nextafter(float(value), math.inf)
