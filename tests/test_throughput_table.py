"""Unit and property tests for the co-location throughput table (§4.3–4.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.throughput_table import (
    CoLocationThroughputTable,
    TaskPlacementObservation,
)


def obs(workload, *neighbours):
    return TaskPlacementObservation(workload=workload, neighbours=tuple(neighbours))


class TestLookup:
    def test_standalone_is_one(self):
        table = CoLocationThroughputTable()
        assert table.tput("A", []) == 1.0

    def test_default_applies_to_unknown_pairs(self):
        table = CoLocationThroughputTable(default_tput=0.9)
        assert table.tput("A", ["B"]) == 0.9
        assert table.tput("A", ["B", "C"]) == pytest.approx(0.81)

    def test_invalid_default_rejected(self):
        with pytest.raises(ValueError):
            CoLocationThroughputTable(default_tput=0.0)

    def test_product_estimate_uses_recorded_pairs(self):
        table = CoLocationThroughputTable(default_tput=0.95)
        table.observe_single_task_job(obs("A", "B"), 0.8)
        assert table.tput("A", ["B"]) == 0.8
        # Unrecorded pair C contributes the default.
        assert table.tput("A", ["B", "C"]) == pytest.approx(0.8 * 0.95)

    def test_exact_entry_overrides_product(self):
        table = CoLocationThroughputTable(default_tput=0.95)
        table.observe_single_task_job(obs("A", "B", "C"), 0.5)
        assert table.tput("A", ["B", "C"]) == 0.5
        assert table.tput("A", ["C", "B"]) == 0.5  # order-insensitive


class TestSingleTaskUpdates:
    def test_standalone_observation_ignored(self):
        table = CoLocationThroughputTable()
        table.observe_single_task_job(obs("A"), 0.7)
        assert table.version == 0

    def test_observation_clamped(self):
        table = CoLocationThroughputTable()
        table.observe_single_task_job(obs("A", "B"), 1.7)
        assert table.tput("A", ["B"]) == 1.0


class TestAttributionRules:
    def test_rule1_no_observations_blames_most_colocated(self):
        table = CoLocationThroughputTable()
        observations = [obs("A", "X"), obs("A", "X", "Y")]
        updated = table.observe_multi_task_job(observations, 0.8)
        assert updated == observations[1]
        assert table.tput("A", ["X", "Y"]) == 0.8
        assert not table.is_recorded(obs("A", "X"))

    def test_rule2_raises_pessimistic_entry(self):
        table = CoLocationThroughputTable()
        table.observe_single_task_job(obs("A", "X"), 0.6)
        observations = [obs("A", "X"), obs("B", "Y")]
        table.observe_single_task_job(obs("B", "Y"), 0.95)
        updated = table.observe_multi_task_job(observations, 0.9)
        # The 0.6 entry was too pessimistic; it must rise to 0.9.
        assert updated == observations[0]
        assert table.tput("A", ["X"]) == 0.9

    def test_rule3_blames_unrecorded_task(self):
        table = CoLocationThroughputTable()
        table.observe_single_task_job(obs("A", "X"), 0.95)
        observations = [obs("A", "X"), obs("B", "Y", "Z")]
        updated = table.observe_multi_task_job(observations, 0.7)
        assert updated == observations[1]
        assert table.tput("B", ["Y", "Z"]) == 0.7

    def test_no_colocated_tasks_is_noop(self):
        table = CoLocationThroughputTable()
        assert table.observe_multi_task_job([obs("A"), obs("B")], 0.5) is None
        assert table.version == 0

    def test_all_recorded_consistent_refreshes_lowest(self):
        table = CoLocationThroughputTable()
        table.observe_single_task_job(obs("A", "X"), 0.8)
        table.observe_single_task_job(obs("B", "Y"), 0.9)
        observations = [obs("A", "X"), obs("B", "Y")]
        updated = table.observe_multi_task_job(observations, 0.75)
        assert updated == observations[0]
        assert table.tput("A", ["X"]) == 0.75


class TestLowerBoundProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.3, max_value=1.0),
            min_size=2,
            max_size=8,
        )
    )
    def test_recorded_value_is_lower_bound_of_truth(self, truths):
        """Repeated straggler observations never overshoot the truth.

        Simulate a job with tasks whose true co-location throughputs are
        ``truths``; the observed job throughput is min(truths).  After
        any number of observations every recorded entry must stay <= its
        true value.
        """
        table = CoLocationThroughputTable()
        observations = [
            obs(f"W{i}", f"N{i}a", f"N{i}b") for i in range(len(truths))
        ]
        observed = min(truths)
        for _ in range(len(truths) + 2):
            table.observe_multi_task_job(observations, observed)
        for i, truth in enumerate(truths):
            recorded = table.recorded_tput(observations[i])
            if recorded is not None:
                assert recorded <= truth + 1e-9 or recorded == pytest.approx(
                    observed
                )

    def test_convergence_upward(self):
        """Entries adjust upward as better observations arrive (§4.4)."""
        table = CoLocationThroughputTable()
        placement = [obs("A", "X"), obs("B", "Y")]
        table.observe_multi_task_job(placement, 0.5)
        first = table.recorded_tput(placement[0]) or table.recorded_tput(placement[1])
        table.observe_multi_task_job(placement, 0.9)
        raised = table.recorded_tput(placement[0]) or table.recorded_tput(placement[1])
        assert raised >= first


class TestVersionEpochAudit:
    """Every value-changing mutation must bump :attr:`version` — it is the
    cache epoch for ``TNRPCaches``/``PackMemo`` consumers — and no-op
    updates must not churn it."""

    def test_single_task_observation_bumps_once(self):
        table = CoLocationThroughputTable()
        v0 = table.version
        table.observe_single_task_job(obs("a", "b"), 0.8)
        assert table.version == v0 + 1
        # Re-recording the same value is a no-op for downstream caches.
        table.observe_single_task_job(obs("a", "b"), 0.8)
        assert table.version == v0 + 1
        table.observe_single_task_job(obs("a", "b"), 0.7)
        assert table.version == v0 + 2

    def test_standalone_observation_never_bumps(self):
        table = CoLocationThroughputTable()
        table.observe_single_task_job(obs("a"), 0.5)
        assert table.version == 0

    def test_every_attribution_rule_bumps(self):
        table = CoLocationThroughputTable()
        # Rule 1: nothing recorded yet.
        target = table.observe_multi_task_job([obs("a", "b"), obs("b", "a")], 0.6)
        assert target is not None and table.version == 1
        # Rule 2: recorded entry below the observation gets raised.
        target = table.observe_multi_task_job([obs("a", "b"), obs("b", "a")], 0.9)
        assert target is not None and table.version == 2
        # Rule 3: all recorded entries exceed the observation, blame the
        # unrecorded newcomer.
        target = table.observe_multi_task_job(
            [obs("a", "b"), obs("c", "a", "b")], 0.4
        )
        assert target is not None and obs("c", "a", "b") == target
        assert table.version == 3

    def test_consistent_multi_task_observation_no_bump(self):
        table = CoLocationThroughputTable()
        table.observe_single_task_job(obs("a", "b"), 0.6)
        v = table.version
        # Observation equals the recorded minimum: table already agrees.
        assert table.observe_multi_task_job([obs("a", "b")], 0.6) is None
        assert table.version == v

    def test_sync_bumps_per_changed_entry_and_is_idempotent(self):
        src = CoLocationThroughputTable()
        src.observe_single_task_job(obs("a", "b"), 0.7)
        src.observe_single_task_job(obs("b", "a"), 0.8)
        dst = CoLocationThroughputTable()
        assert dst.sync(src) == 2
        assert dst.version == 2
        # Second merge changes nothing: no epoch churn, count reports it.
        assert dst.sync(src) == 0
        assert dst.version == 2

    def test_sync_invalidates_lookup_memo(self):
        """Staleness regression: a lookup made *before* a bulk merge must
        not survive it."""
        table = CoLocationThroughputTable()
        stale = table.tput("a", ("b",))
        assert stale == table.default_tput
        changed = table.sync({("a", ("b",)): 0.5})
        assert changed == 1
        assert table.tput("a", ("b",)) == 0.5
        # The pairwise mirror and the exact-entry index were routed
        # through _record too.
        assert table.pairwise("a", "b") == 0.5
        assert table.exact_row("a", ()) == {"b": 0.5}

    def test_sync_keeps_shared_tnrp_caches_fresh(self):
        """The evaluator's cross-round set-value memo epochs on
        ``table.version``; a sync() that merged new values must drop it."""
        from repro.core.evaluation import TNRPCaches

        table = CoLocationThroughputTable()
        caches = TNRPCaches()
        caches.sync(table)
        caches.set_value[("t1",)] = 123.0
        table.sync({("a", ("b",)): 0.5})
        caches.sync(table)
        assert not caches.set_value
