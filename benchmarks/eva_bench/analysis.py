"""Pure functions behind ``run.py``: summaries, the correctness gate, compare."""

from __future__ import annotations

import math
import random
import statistics
from typing import Sequence

import numpy as np


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(samples: Sequence[float]) -> dict:
    """Median, quartiles and the samples behind them."""
    q1, q3 = quartiles(samples)
    return {
        "value": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "samples": list(samples),
    }


BOOTSTRAP_RESAMPLES = 100

#: Seconds ``child.calibration_loop`` takes at its fastest on the
#: reference host, a 2-core x86 VM.  Host times are reported at that
#: host's speed.
CALIBRATION_REF_S = 0.0095

#: End-to-end metrics the simulation result fixes.  Records of one seed
#: must agree on them exactly; their bounds in ``BENCHMARK.json`` cover
#: only how they move between seeds.
EXACT = ("total_cost_usd", "mean_jct_h")


def host_scale(reports: list[dict]) -> float:
    """Factor from this host's speed during ``reports`` to the reference
    host's: :data:`CALIBRATION_REF_S` over the fastest calibration loop.

    Per-segment minima (:func:`round_costs`) leave out noise that comes
    and goes within a run; the factor corrects the drift of the host's
    speed over minutes, which slows the loop as it slows the simulation,
    though not by as much.  Over 150 consecutive repeats of
    ``market-churn`` on a shared 2-core VM, cut into windows of 5 to 16,
    the interquartile range of ``sim_s`` across windows was 10-18%
    unscaled and 7-9% scaled.  A lower quartile or a median of the loop
    times, or a factor per repeat, tracked the drift worse.
    """
    return CALIBRATION_REF_S / min(s for r in reports for s in r["calibration_s"])


def round_costs(reports: list[dict]) -> tuple[np.ndarray, float]:
    """Per-round ``decide`` milliseconds and seconds of ``run()`` of
    repeats of one deterministic simulation.

    A repeat's ``segments_ms`` alternate between the time ``run()`` spent
    outside ``decide`` and one round's ``decide``.  Every repeat replays
    the same rounds, so each segment does the same work in each repeat.
    Host noise only ever slows a segment down, so its fastest time across
    the repeats is its cost with the noise left out, even when most
    repeats were hit somewhere.  ``run()`` is the sum of those costs.
    The fastest of *n* repeats depends on *n*, so ``run.py`` fixes the
    repeat count of each workload; it does not depend on how fast the
    code under test runs.
    """
    if len({len(r["segments_ms"]) for r in reports}) != 1:
        raise ValueError("repeats of one simulation ran different rounds")
    fastest = np.array([r["segments_ms"] for r in reports]).min(axis=0)
    return fastest[1::2], float(fastest.sum()) / 1000.0


def sim_seconds(reports: list[dict]) -> float:
    """``sim_s`` of repeats, traced or not: :func:`round_costs` at the
    reference host's speed."""
    return host_scale(reports) * round_costs(reports)[1]


def timing_stats(reports: list[dict]) -> dict[str, float]:
    """The host-time end-to-end metrics of repeats of one simulation, at
    the reference host's speed."""
    k = host_scale(reports)
    per_round, run_s = round_costs(reports)
    return {
        "sim_s": k * run_s,
        "decide_p50_ms": k * float(np.percentile(per_round, 50)),
        "decide_p95_ms": k * float(np.percentile(per_round, 95)),
        "setup_s": k * statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def end_to_end(reports: list[dict]) -> dict[str, dict]:
    """The end-to-end metrics of passing timed repeats.

    ``q1``/``q3`` are the quartiles of each metric over bootstrap
    resamples of the repeats: the run-to-run spread ``compare`` judges.
    ``samples`` holds the metric of each repeat on its own.
    """
    # Arrays once, so that each resample only stacks them.
    reports = [r | {"segments_ms": np.asarray(r["segments_ms"])} for r in reports]
    rng = random.Random(0)
    value = timing_stats(reports)
    resampled = [
        timing_stats(rng.choices(reports, k=len(reports)))
        for _ in range(BOOTSTRAP_RESAMPLES)
    ]
    single = [timing_stats([r]) for r in reports]
    metrics = {}
    for name, v in value.items():
        q1, q3 = quartiles([b[name] for b in resampled])
        metrics[name] = {
            "value": v,
            "q1": q1,
            "q3": q3,
            "samples": [s[name] for s in single],
        }
    # Identical in every repeat: the gate pinned one result digest.
    for name in EXACT:
        metrics[name] = summarize([r[name] for r in reports])
    metrics["decide_p95_ms"]["rounds"] = len(reports[0]["segments_ms"]) // 2
    return metrics


def check_run(report: dict, reference_digest: str | None) -> list[str]:
    """Problems with one simulation report; an empty list means it passed.

    Conservation: exactly one finished job outcome per trace job, and a
    finite, positive total cost.  Determinism: the pickled result's
    digest equals ``reference_digest`` (the pinned digest, or the first
    run of the same workload and seed) when one is given.
    """
    problems = []
    trace_ids = report["trace_job_ids"]
    outcome_ids = report["outcome_job_ids"]
    if sorted(outcome_ids) != sorted(trace_ids):
        missing = sorted(set(trace_ids) - set(outcome_ids))
        extra = len(outcome_ids) - len(set(outcome_ids))
        problems.append(
            f"{len(outcome_ids)} job outcomes for {len(trace_ids)} trace jobs "
            f"(missing {missing[:3]}, duplicates {extra})"
        )
    cost = report["total_cost_usd"]
    if not (math.isfinite(cost) and cost > 0):
        problems.append(f"total cost {cost!r} is not finite and positive")
    if reference_digest is not None and report["digest"] != reference_digest:
        problems.append(
            f"result digest {report['digest'][:16]} != expected "
            f"{reference_digest[:16]}"
        )
    problems.extend(report.get("span_problems", ()))
    return problems


def relative_spread(metric: dict) -> float:
    """Interquartile range as a share of the median (end-to-end metrics
    are never 0)."""
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(base: dict, change: dict, bound: float, better: str) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved`` for one metric.

    A pair is unresolved when either side's spread exceeds the bound,
    unless every sample of the change beats every sample of the base.
    Otherwise the change is worse or better when its median moves by
    more than the bound, and unchanged when it does not.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["value"] - base["value"]) / abs(base["value"])
    if max(relative_spread(base), relative_spread(change)) > bound:
        if max(sign * x for x in change["samples"]) < min(
            sign * x for x in base["samples"]
        ):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare(base: dict, change: dict, metrics: list[dict]) -> tuple[list[str], bool]:
    """Text lines comparing two run records of one seed, and whether any
    pair is worse, unresolved or changed, or a workload has no passing
    runs on one side.

    A different result digest, or a different value of an :data:`EXACT`
    metric, is ``changed``: the simulation computed another result.
    """
    if base["seed"] != change["seed"]:
        return [f"records of seeds {base['seed']} and {change['seed']}"], True
    lines = []
    bad = False
    for name in sorted(set(base["workloads"]) | set(change["workloads"])):
        a = base["workloads"].get(name, {})
        b = change["workloads"].get(name, {})
        if "metrics" not in a or "metrics" not in b:
            lines.append(f"{name}: no passing runs in {'A' if 'metrics' not in a else 'B'}")
            bad = True
            continue
        if a["digest"] != b["digest"]:
            lines.append(
                f"{name} result_digest A {a['digest'][:16]} "
                f"B {b['digest'][:16]} changed"
            )
            bad = True
        for spec in metrics:
            ma, mb = a["metrics"][spec["name"]], b["metrics"][spec["name"]]
            if spec["name"] in EXACT:
                bound = "exact"
                result = "unchanged" if ma["value"] == mb["value"] else "changed"
            else:
                bound = f"{spec['bound']:.0%}"
                result = verdict(ma, mb, spec["bound"], spec["better"])
            bad |= result in ("worse", "unresolved", "changed")
            lines.append(
                f"{name} {spec['name']} A {ma['value']:.6g} "
                f"[{ma['q1']:.6g}, {ma['q3']:.6g}] B {mb['value']:.6g} "
                f"[{mb['q1']:.6g}, {mb['q3']:.6g}] {spec['unit']} "
                f"bound {bound} {result}"
            )
    return lines, bad
