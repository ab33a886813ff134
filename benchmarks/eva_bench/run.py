"""Outside-in benchmark of the Eva simulator.

Run every workload (timed repeats go round-robin across them), or one::

    python3 benchmarks/eva_bench/run.py --seed 0 --out run.json
    python3 benchmarks/eva_bench/run.py --workload replay-wide --seed 3 \\
        --seconds 25 --trace 1

and compare two records::

    python3 benchmarks/eva_bench/run.py compare A.json B.json

The load is a closed loop with one client: one simulation at a time, each
in a fresh child process (``child.py``), repeated as often as fills about
``--seconds`` on the reference host (:func:`repeat_count`).  With
``--trace 1`` every repeat is a timed and a traced simulation, so the
tracing overhead compares passes that alternated; the spans of the first
traced pass go to ``spans/trace-<workload>-<seed>.jsonl``.  Every
simulation passes the correctness gate (:func:`analysis.check_run`) or
counts as failed, and its timings are dropped.

It prints every metric as ``workload metric value unit`` and, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace 1`` its per-layer metrics; with more than one workload each
name is prefixed by ``<workload>.``).  It exits 1 when a simulation
failed and 2 when the repository's ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from analysis import check_run, compare, end_to_end, host_scale, sim_seconds, summarize
from workloads import NAMES, NUM_JOBS, REPEAT_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Fewest timed simulations per workload, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: A workload stops after this many failed simulations.
MAX_FAILURES = 2
#: Past :data:`MIN_REPEATS`, a run starts no more repeats once it has
#: taken this many times ``--seconds`` per workload, so a host slowed for
#: minutes still ends in bounded time.  On a calm host the counts of
#: :func:`repeat_count` end well before.
OVERRUN = 1.2
CHILD_TIMEOUT_S = 60.0
TIME_UNITS = ("s", "ms", "us")


def repeat_count(name: str, seconds: float, trace: bool) -> int:
    """Timed repeats of workload ``name`` (each with a traced pass under
    ``trace``) that take about ``seconds`` on the reference host.

    The count depends only on the arguments, not on how fast the code
    under test runs, so two commits are measured with the same count
    unless one overruns (:data:`OVERRUN`).
    """
    per_repeat_s = REPEAT_S[name] * (2 if trace else 1)
    return max(MIN_REPEATS, round(seconds / per_repeat_s))


def run_child(workload: str, seed: int, traced: bool, span_file: Path | None = None):
    """One simulation in a fresh process: (report or None, error)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    request = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "span_file": str(span_file) if span_file else None,
        "spawned_at": time.monotonic(),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


class WorkloadRuns:
    """The simulations of one workload at one seed, gated as they arrive."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        pinned = EXPECTED.get(name, {})
        self.reference = (
            pinned.get("digests", {}).get(str(seed))
            if pinned.get("num_jobs") == NUM_JOBS[name]
            else None
        )
        self.timed: list[dict] = []
        self.traced: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0

    def add(self, traced: bool, span_file: Path | None = None) -> None:
        self.attempted += 1
        report, error = run_child(self.name, self.seed, traced, span_file)
        if report is not None:
            problems = check_run(report, self.reference)
            if self.reference is None and not problems:
                self.reference = report["digest"]
            if not problems:
                (self.traced if traced else self.timed).append(report)
                return
            error = "; ".join(problems)
        kind = "traced" if traced else "timed"
        self.failures.append(f"{kind} run {self.attempted}: {error}")
        print(f"{self.name} FAILED {self.failures[-1]}", file=sys.stderr)

    def per_layer(self) -> dict[str, dict]:
        k = host_scale(self.traced)
        metrics = {
            name: summarize(
                [
                    r["layers"][name] * (k if UNITS[name] in TIME_UNITS else 1.0)
                    for r in self.traced
                ]
            )
            for name in self.traced[0]["layers"]
        }
        # The same estimator on both sides, over as many passes, which
        # alternated.
        metrics["trace.overhead_ratio"] = {
            "value": sim_seconds(self.traced) / sim_seconds(self.timed)
        }
        return metrics

    def record(self) -> dict:
        record = {
            "num_jobs": NUM_JOBS[self.name],
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
        }
        if self.timed:
            first = self.timed[0]
            record.update(
                digest=first["digest"],
                fingerprint=first["fingerprint"],
                host_scale=host_scale(self.timed),
                metrics=end_to_end(self.timed),
            )
        if self.traced and self.timed:
            record["layers"] = self.per_layer()
        return record


def measure(names: list[str], seed: int, seconds: float, trace: bool) -> dict:
    """Repeats round-robin across ``names``; with ``trace``, each repeat is
    a timed and a traced pass, in an order that flips every round."""
    runs = {name: WorkloadRuns(name, seed) for name in names}
    counts = {name: repeat_count(name, seconds, trace) for name in names}
    order = (False, True) if trace else (False,)
    if trace:
        (HERE / "spans").mkdir(exist_ok=True)
    deadline = time.monotonic() + OVERRUN * seconds * len(names)
    for index in range(max(counts.values())):
        if index >= MIN_REPEATS and time.monotonic() > deadline:
            break
        for name, r in runs.items():
            if index >= counts[name] or len(r.failures) >= MAX_FAILURES:
                continue
            for traced in order if index % 2 == 0 else order[::-1]:
                spans = HERE / "spans" / f"trace-{name}-{seed}.jsonl"
                r.add(traced, span_file=spans if traced and not r.traced else None)
    return {
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "workloads": {name: r.record() for name, r in runs.items()},
    }


def report(record: dict, trace: bool) -> int:
    """Print the metric lines and the result object; return the exit code."""
    workloads = record["workloads"]
    attempted = sum(w["attempted"] for w in workloads.values())
    failed = sum(w["failed"] for w in workloads.values())
    section = "layers" if trace else "metrics"
    if any(section not in w for w in workloads.values()):
        print("no successful simulation for some workload", file=sys.stderr)
        return 1
    result: dict[str, dict] = {}
    for name, w in workloads.items():
        print(f"{name} runs {w['attempted'] - w['failed']}/{w['attempted']} ok")
        for group in ("metrics", "layers"):
            for metric, summary in w.get(group, {}).items():
                print(f"{name} {metric} {summary['value']:.6g} {UNITS[metric]}")
        for metric, summary in w[section].items():
            key = metric if len(workloads) == 1 else f"{name}.{metric}"
            result[key] = {"value": summary["value"], "unit": UNITS[metric]}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": result,
            }
        )
    )
    return 0 if failed == 0 else 1


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        base, change = (json.loads(Path(p).read_text()) for p in argv[1:])
        lines, bad = compare(base, change, SPEC["end_to_end"])
        print("\n".join(lines))
        return 1 if bad else 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the run record here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no Eva sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    record = measure(args.workload or list(NAMES), args.seed, args.seconds, bool(args.trace))
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return report(record, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
