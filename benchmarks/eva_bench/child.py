"""Run one benchmark simulation in a fresh process and report it as JSON.

Usage (``run.py`` does this; ``src`` must be on PYTHONPATH)::

    python benchmarks/eva_bench/child.py '{"workload": "replay-wide", "seed": 0,
        "traced": false, "spawned_at": <time.monotonic()>}'

The simulation runs through :func:`repro.sim.run_scenario`, the path
experiments take.  The benchmark reaches the simulator it builds by
replacing ``ClusterSimulator.run`` on the class for the length of the
call: the replacement stamps ``setup_s``, installs the instrumentation
on the instance in hand, and runs the original.

A fresh process per simulation starts every cache, the global instance-id
counter and the peak resident set cold.  ``spawned_at`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide), so ``setup_s`` covers interpreter start, the ``repro``
imports, the trace build and scheduler/simulator construction.

Untraced, the only instrumentation is a wrapper on the scheduler
instance's ``decide`` (two ``perf_counter`` calls per round).  Traced
(``"traced": true``), :class:`tracer.Tracer` is installed around
``run()`` and the report gains ``layers``; with ``span_file`` the spans
are written there as JSON lines.  Either way the report carries
``segments_ms``, the same clock marks read from the untraced wrapper or
from the spans, and :data:`CALIBRATION_SAMPLES` timings of
:func:`calibration_loop` taken right before ``run()`` and as many right
after it, from which ``run.py`` tracks host speed.
"""

from __future__ import annotations

import heapq
import json
import sys
import time

CALIBRATION_SAMPLES = 3


def calibration_loop() -> float:
    """Seconds taken by a fixed event loop over a heap, the simulator's
    own shape.  It runs none of the repository's code, so no change to
    the program under test moves it, while host drift moves it as it
    moves the simulation."""
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    state: dict[int, int] = {}
    for i in range(10_000):
        heapq.heappush(heap, ((i * 31) % 1009, i))
    while heap:
        when, i = heapq.heappop(heap)
        state[i % 257] = state.get(i % 257, 0) + when
        if i % 5 == 0 and when < 900:
            heapq.heappush(heap, (when + 100, i + 1))
    return time.perf_counter() - start


def calibration() -> list[float]:
    return [calibration_loop() for _ in range(CALIBRATION_SAMPLES)]


def peak_rss_mb() -> float:
    """Peak resident set of this process, from Linux's ``VmHWM``.

    Not ``ru_maxrss``: at ``exec`` Linux folds into it the peak of the
    address space being replaced, which after the ``vfork`` that
    ``subprocess`` uses is the parent's, so it reads the parent's memory
    whenever that is the larger."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def segments_ms(marks: list[float]) -> list[float]:
    """Milliseconds between consecutive clock marks.

    ``marks`` are the start of ``run()``, the start and end of every
    ``decide`` and the end of ``run()``, so the segments alternate
    between time outside ``decide`` and one round's ``decide``.
    """
    return [1000.0 * (b - a) for a, b in zip(marks, marks[1:])]


def simulate(request: dict) -> dict:
    import hashlib
    import pickle

    import repro.core  # noqa: F401  (imports count as set-up, not as build time)
    from repro.sim import run_scenario
    from repro.sim.simulator import ClusterSimulator

    from tracer import Tracer, layer_metrics, round_marks, span_problems, write_jsonl
    from workloads import build_scenario

    build_start = time.perf_counter()
    scenario = build_scenario(
        request["workload"], request["seed"], request.get("num_jobs")
    )
    trace_build_s = time.perf_counter() - build_start

    report: dict = {}
    run = ClusterSimulator.run
    clock = time.perf_counter

    def traced_run(sim):
        tracer = Tracer()
        report["calibration_s"] = calibration()
        with tracer.installed(sim):
            result = tracer.span("sim.run")(run)(sim)
        report["calibration_s"] += calibration()
        spans = tracer.spans
        report["layers"] = layer_metrics(tracer, spans, sim, result)
        report["layers"]["workloads.trace_build_s"] = trace_build_s
        report["segments_ms"] = segments_ms(round_marks(spans))
        report["span_problems"] = span_problems(spans)[:10]
        if request.get("span_file"):
            write_jsonl(spans, request["span_file"])
        return result

    def timed_run(sim):
        scheduler = sim.scheduler
        decide = scheduler.decide
        marks: list[float] = []
        mark = marks.append

        def timed_decide(snapshot, observations=()):
            mark(clock())
            decision = decide(snapshot, observations)
            mark(clock())
            return decision

        scheduler.decide = timed_decide
        report["setup_s"] = time.monotonic() - request["spawned_at"]
        report["calibration_s"] = calibration()
        mark(clock())
        result = run(sim)
        mark(clock())
        report["calibration_s"] += calibration()
        report["segments_ms"] = segments_ms(marks)
        report["peak_rss_mb"] = peak_rss_mb()
        return result

    ClusterSimulator.run = traced_run if request["traced"] else timed_run
    try:
        result = run_scenario(scenario).result
    finally:
        ClusterSimulator.run = run

    report.update(
        digest=hashlib.sha256(pickle.dumps(result, protocol=5)).hexdigest(),
        fingerprint=scenario.fingerprint(),
        total_cost_usd=result.total_cost,
        mean_jct_h=result.mean_jct_hours(),
        trace_job_ids=[job.job_id for job in scenario.trace],
        outcome_job_ids=[outcome.job_id for outcome in result.jobs],
    )
    return report


if __name__ == "__main__":
    print(json.dumps(simulate(json.loads(sys.argv[1]))))
