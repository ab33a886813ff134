"""Tests of the Eva benchmark's own machinery (collected by the tier-1 run).

Simulations here use a dozen jobs; the benchmark's sizes are exercised
only by ``run.py`` itself.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from analysis import (
    CALIBRATION_REF_S,
    check_run,
    compare,
    end_to_end,
    summarize,
    timing_stats,
    verdict,
)
from child import simulate
from tracer import ROUND_SPAN, Span, Tracer, self_times, span_problems
from workloads import NAMES, build_scenario

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def _patched_names(sim):
    import repro.core.full_reconfig as full_reconfig
    import repro.core.interfaces as interfaces
    import repro.core.market as market
    import repro.core.partial_reconfig as partial_reconfig
    import repro.core.scheduler as eva_scheduler

    owners = {
        "scheduler": eva_scheduler,
        "interfaces": interfaces,
        "partial": partial_reconfig,
        "market": market,
        "PackMemo": full_reconfig.PackMemo,
    }
    return {
        (label, name): vars(owner).get(name)
        for label, owner in owners.items()
        for name in (
            "diff_target",
            "full_reconfiguration",
            "match_existing_instances",
            "partial_reconfiguration",
            "ReservationPriceCalculator",
            "get",
            "get_pack",
        )
    } | {
        ("class", cls.__name__): dict(vars(cls))
        for cls in (
            type(sim),
            type(sim._env),
            type(sim.scheduler),
            type(sim.scheduler.monitor),
            type(sim.scheduler.policy),
        )
    } | {
        ("instance", label): set(vars(obj))
        for label, obj in (("sim", sim), ("scheduler", sim.scheduler))
    }


def _run_checking_restore(monkeypatch, workload: str) -> Tracer:
    """Run ``workload`` at 12 jobs through ``run_scenario`` with the tracer
    installed, asserting that it patches names and then restores them all,
    whether or not the run raises."""
    from repro.sim import run_scenario
    from repro.sim.simulator import ClusterSimulator

    run = ClusterSimulator.run
    tracer = Tracer()

    def checked_run(sim):
        before = _patched_names(sim)
        try:
            with tracer.installed(sim):
                assert _patched_names(sim) != before
                return run(sim)
        finally:
            assert _patched_names(sim) == before

    monkeypatch.setattr(ClusterSimulator, "run", checked_run)
    result = run_scenario(build_scenario(workload, 0, num_jobs=12)).result
    assert len(result.jobs) == 12
    return tracer


def test_tracer_restores_every_patch(monkeypatch):
    tracer = _run_checking_restore(monkeypatch, "market-churn")
    assert tracer.spans and not span_problems(tracer.spans)


def test_tracer_restores_when_the_simulation_raises(monkeypatch):
    from repro.sim.simulator import ClusterSimulator

    def boom(self):
        raise RuntimeError("round failed")

    monkeypatch.setattr(ClusterSimulator, "_on_round", boom)
    with pytest.raises(RuntimeError, match="round failed"):
        _run_checking_restore(monkeypatch, "replay-wide")


def _span(id, parent, start, end, name=None):
    return Span(id, parent, name or f"s{id}", start, end, 0)


def test_self_times_subtract_direct_children_only():
    spans = [
        _span(2, 0, 1.0, 4.0, "a"),
        _span(4, 3, 6.0, 7.0, "c"),
        _span(3, 0, 5.0, 9.0, "b"),
        _span(5, 0, 9.0, 9.5, "a"),
        _span(0, -1, 0.0, 10.0, "root"),
    ]
    assert self_times(spans) == pytest.approx(
        {"root": 2.5, "a": 3.5, "b": 3.0, "c": 1.0}
    )
    assert sum(self_times(spans).values()) == pytest.approx(10.0)
    assert span_problems(spans) == []


def test_spans_take_parent_and_round_from_nesting():
    tracer = Tracer()
    inner = tracer.span("inner")(lambda: None)
    decide = tracer.span(ROUND_SPAN)(lambda: inner())
    outside = tracer.span("outside")(lambda: None)
    for call in (outside, decide, outside, decide):
        call()
    spans = tracer.spans
    assert [(s.id, s.name, s.parent, s.round) for s in spans] == [
        (0, "outside", -1, -1),
        (1, ROUND_SPAN, -1, 0),
        (2, "inner", 1, 0),
        (3, "outside", -1, 0),
        (4, ROUND_SPAN, -1, 1),
        (5, "inner", 4, 1),
    ]
    assert span_problems(spans) == []


def test_counter_tallies_calls_and_non_none_results():
    tracer = Tracer()
    lookup = tracer.counter("memo")({1: "a"}.get)
    assert [lookup(key) for key in (1, 2, 1)] == ["a", None, "a"]
    assert tracer.tallies == {"memo": [3, 2]}
    assert not tracer.spans


def test_span_problems_flag_escapes_and_negative_self_time():
    outside = [_span(0, -1, 0.0, 10.0), _span(1, 0, 9.0, 11.0)]
    assert any("outside" in p for p in span_problems(outside))
    overfull = [_span(0, -1, 0.0, 1.0), _span(1, 0, 0.0, 0.8), _span(2, 0, 0.1, 0.9)]
    assert any("negative self time" in p for p in span_problems(overfull))


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def _report(**overrides):
    report = {
        "trace_job_ids": ["j0", "j1", "j2"],
        "outcome_job_ids": ["j0", "j1", "j2"],
        "total_cost_usd": 12.5,
        "digest": "ab" * 32,
    }
    report.update(overrides)
    return report


def test_gate_passes_a_conserving_run():
    assert check_run(_report(), "ab" * 32) == []
    assert check_run(_report(), None) == []


def test_gate_fails_on_a_tampered_digest():
    problems = check_run(_report(digest="cd" * 32), "ab" * 32)
    assert len(problems) == 1 and "digest" in problems[0]


def test_gate_fails_on_a_dropped_or_duplicated_job():
    assert check_run(_report(outcome_job_ids=["j0", "j2"]), None)
    assert check_run(_report(outcome_job_ids=["j0", "j1", "j1"]), None)


def test_gate_fails_on_a_non_finite_cost():
    assert check_run(_report(total_cost_usd=float("nan")), None)
    assert check_run(_report(total_cost_usd=0.0), None)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "base, change, expected",
    [
        ([10.0, 10.1, 9.9, 10.0, 10.05], [10.2, 10.3, 10.1, 10.2, 10.25], "unchanged"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [11.5, 11.6, 11.4, 11.5, 11.55], "worse"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [8.5, 8.6, 8.4, 8.5, 8.55], "better"),
        ([10.0, 14.0, 7.0, 10.0, 12.0], [10.5, 14.0, 7.5, 10.0, 12.0], "unresolved"),
        ([10.0, 14.0, 7.0, 10.0, 12.0], [5.0, 6.0, 4.0, 5.5, 6.5], "better"),
    ],
)
def test_verdicts(base, change, expected):
    assert verdict(summarize(base), summarize(change), 0.1, "lower") == expected


def test_verdict_direction_follows_better():
    base, change = summarize([1.0, 1.0, 1.0]), summarize([1.2, 1.2, 1.2])
    assert verdict(base, change, 0.1, "higher") == "better"
    assert verdict(base, change, 0.1, "lower") == "worse"


def _record(wall, digest="aa", cost=5.0, seed=0):
    return {
        "seed": seed,
        "workloads": {
            "w": {
                "digest": digest,
                "metrics": {
                    "sim_s": summarize(wall),
                    "total_cost_usd": summarize([cost] * 3),
                },
            }
        },
    }


_COMPARED = [
    {"name": "sim_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "total_cost_usd", "unit": "usd", "better": "lower", "bound": 0.05},
]


def test_compare_reports_every_pair():
    lines, bad = compare(_record([1.0] * 3), _record([1.02] * 3), _COMPARED)
    assert not bad and len(lines) == 2
    assert all(line.endswith("unchanged") for line in lines)
    lines, bad = compare(_record([1.0] * 3), _record([1.5] * 3), _COMPARED)
    assert bad and lines[0].endswith("worse") and lines[1].endswith("unchanged")


def test_compare_fails_on_another_result_with_equal_timings():
    lines, bad = compare(_record([1.0] * 3), _record([1.0] * 3, digest="bb"), _COMPARED)
    assert bad
    assert lines[0] == "w result_digest A aa B bb changed"
    assert lines[1].endswith("unchanged")
    # 1% cheaper is within the cost bound, but one seed's cost is exact.
    lines, bad = compare(_record([1.0] * 3), _record([1.0] * 3, cost=4.95), _COMPARED)
    assert bad and lines[1].endswith("bound exact changed")


def test_compare_refuses_records_of_different_seeds():
    lines, bad = compare(_record([1.0] * 3), _record([1.0] * 3, seed=1), _COMPARED)
    assert bad and lines == ["records of seeds 0 and 1"]


def _timed(segments_ms, setup_s=0.5, calibration_s=CALIBRATION_REF_S):
    return {
        "segments_ms": segments_ms,
        "setup_s": setup_s,
        "peak_rss_mb": 90.0,
        "calibration_s": [calibration_s, calibration_s],
    }


def test_timing_stats_take_each_segment_at_its_fastest():
    # outside, decide, outside, decide, outside: 10 ms of run(), two rounds.
    clean = _timed([2.0, 1.0, 3.0, 3.0, 1.0])
    stats = timing_stats([clean] * 3)
    assert stats["sim_s"] == pytest.approx(0.010)
    assert stats["decide_p50_ms"] == pytest.approx(2.0)
    # Every repeat was slowed somewhere, but each segment ran clean once.
    hit = [
        _timed([9.0, 1.0, 3.0, 3.0, 1.0]),
        _timed([2.0, 5.0, 3.0, 3.0, 4.0], setup_s=0.9),
        _timed([2.0, 1.0, 8.0, 7.0, 1.0]),
    ]
    assert timing_stats(hit) == pytest.approx(stats | {"setup_s": 0.5})
    # A host at half speed reads the same once scaled.
    slow = _timed([4.0, 2.0, 6.0, 6.0, 2.0], setup_s=1.0, calibration_s=2 * CALIBRATION_REF_S)
    assert timing_stats([slow] * 3) == pytest.approx(stats)
    with pytest.raises(ValueError, match="different rounds"):
        timing_stats([clean, _timed([2.0, 1.0, 3.0])])


# ----------------------------------------------------------------------
# Workloads, the child and BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    timed = _timed([1.0, 2.0, 1.0]) | {"total_cost_usd": 10.0, "mean_jct_h": 2.0}
    assert list(end_to_end([timed] * 3)) == [m["name"] for m in SPEC["end_to_end"]]


@pytest.mark.parametrize("name", NAMES)
def test_workload_smoke(name):
    from repro.sim import run_scenario

    first = build_scenario(name, 0, num_jobs=12)
    again = build_scenario(name, 0, num_jobs=12)
    other = build_scenario(name, 1, num_jobs=12)
    assert first.fingerprint() == again.fingerprint() != other.fingerprint()
    assert sorted(j.job_id for j in first.trace) == sorted(j.job_id for j in other.trace)
    assert sorted(j.arrival_time_s for j in first.trace) == sorted(
        j.arrival_time_s for j in other.trace
    )
    result = run_scenario(first).result
    assert sorted(o.job_id for o in result.jobs) == sorted(j.job_id for j in first.trace)


def test_tracing_leaves_the_result_alone_and_covers_run():
    request = {"workload": "market-churn", "seed": 1, "num_jobs": 12}
    timed = simulate(request | {"traced": False, "spawned_at": time.monotonic()})
    traced = simulate(request | {"traced": True})
    assert timed["digest"] == traced["digest"]
    assert check_run(timed, timed["digest"]) == check_run(traced, timed["digest"]) == []
    rounds = traced["layers"]["sim.rounds"]
    assert len(timed["segments_ms"]) == len(traced["segments_ms"]) == 2 * rounds + 1
    assert sum(traced["segments_ms"]) / 1000.0 == pytest.approx(traced["layers"]["sim.run_s"])
    layers = set(traced["layers"]) | {"trace.overhead_ratio"}
    assert layers == {m["name"] for m in SPEC["per_layer"]}
    shares = [v for k, v in traced["layers"].items() if k.endswith("share")]
    assert sum(shares) == pytest.approx(1.0, rel=0.01)
