"""Hot-path microbenchmark: simulator event loop + Algorithm 1 packing.

Measures the engine's throughput on the two large-trace evaluation
scenarios (the Table 10 synthetic 120-job trace and a Table 13-style
Alibaba trace) and on the 10k-job Alibaba replay under Eva and under
No-Packing, where Algorithm 1 never runs and the simulator's own event
loop dominates, and emits machine-readable records so future PRs have a
perf trajectory:

* appends a run record to ``BENCH_hotpath.json`` at the repo root (the
  committed before/after history), and
* writes the latest run to ``benchmarks/results/bench_hotpath.json``.

Reported rates: simulation events dispatched per second, scheduling
rounds per second, and Algorithm 1 ``_pack_one_instance`` calls per
second.  Event and pack-call counts are taken by wrapping the hot
functions, so the bench runs unmodified against older revisions of the
engine (useful for before/after comparisons from a worktree).  Each
record also has a ``cold_start`` entry: the median wall time and peak
resident set (Linux ``VmHWM``) of fresh processes that only import the
engine, the set-up every simulation process pays before its first event.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full size
    EVA_BENCH_SCALE=0.2 PYTHONPATH=src python benchmarks/bench_hotpath.py
    EVA_BENCH_LABEL=my-experiment PYTHONPATH=src python benchmarks/bench_hotpath.py

``EVA_BENCH_SCALE`` shrinks the traces for smoke runs (the CI job uses a
small scale); ``EVA_BENCH_LABEL`` tags the appended history record.
``EVA_BENCH_HOTPATH_OUT`` overrides the history file path.

The results fingerprint (per-scenario ``total_cost``) must not move
across engine optimizations — the determinism/equivalence suite guards
that, and this bench makes drift visible in the committed history.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"
DEFAULT_HISTORY = REPO_ROOT / "BENCH_hotpath.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cloud.catalog import ec2_catalog  # noqa: E402
from repro.core import make_scheduler  # noqa: E402
from repro.experiments.common import bench_scale, scaled  # noqa: E402
from repro.sim.simulator import ClusterSimulator  # noqa: E402
from repro.workloads.alibaba import (  # noqa: E402
    alibaba_replay_trace,
    synthesize_alibaba_trace,
)
from repro.workloads.synthetic import synthetic_trace  # noqa: E402


def _scenarios() -> list[tuple[str, object, str]]:
    """(name, trace, scheduler registry name) triples, scale-aware."""
    table10_jobs = scaled(120, minimum=24, maximum=120)
    table13_jobs = scaled(300, minimum=40, maximum=6274)
    replay = alibaba_replay_trace(
        scaled(10_000, minimum=500, maximum=10_000), seed=0
    )
    return [
        (
            f"table10_synthetic{table10_jobs}_eva",
            synthetic_trace(table10_jobs, seed=0, name=f"physical-{table10_jobs}"),
            "eva",
        ),
        (
            f"table10_synthetic{table10_jobs}_stratus",
            synthetic_trace(table10_jobs, seed=0, name=f"physical-{table10_jobs}"),
            "stratus",
        ),
        (
            f"table13_alibaba{table13_jobs}_eva",
            synthesize_alibaba_trace(table13_jobs, seed=0),
            "eva",
        ),
        (
            # Replay-scale scenario: 10k jobs at full scale.  The name is
            # fixed (not job-count-derived) because drift comparisons are
            # scoped to runs with the same ``eva_bench_scale`` anyway, and
            # per-run ``num_jobs`` is recorded in the scenario stats.
            "table13_alibaba10k_eva",
            replay,
            "eva",
        ),
        # The same replay under the paper's cost normalizer: no packing,
        # so the time is the simulator's per-event and per-round work.
        ("table13_alibaba10k_nopacking", replay, "no-packing"),
    ]


#: What every simulation process imports before it builds a trace.
COLD_START_IMPORTS = "import repro.core, repro.sim"
COLD_START_RUNS = 5


def _cold_start() -> dict:
    """Median wall seconds and ``VmHWM`` of fresh import-only processes.

    The entry has no result fingerprint, so the drift check (which reads
    ``scenarios``) passes over it.
    """
    program = (
        f"{COLD_START_IMPORTS}\n"
        "for line in open('/proc/self/status'):\n"
        "    if line.startswith('VmHWM:'):\n"
        "        print(int(line.split()[1]) / 1024.0)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    walls, peaks = [], []
    for _ in range(COLD_START_RUNS):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", program],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        walls.append(time.perf_counter() - start)
        peaks.append(float(out.stdout))
    return {
        "command": f'python -c "{COLD_START_IMPORTS}"',
        "processes": COLD_START_RUNS,
        "wall_s": round(statistics.median(walls), 4),
        "vmhwm_mb": round(statistics.median(peaks), 1),
    }


def _run_one(name: str, trace, scheduler_name: str) -> dict:
    """Simulate one scenario with counting wrappers on the hot functions."""
    import repro.core.full_reconfig as full_reconfig

    counts = {"events": 0, "pack_calls": 0}

    real_pack = full_reconfig._pack_one_instance

    def counting_pack(*args, **kwargs):
        counts["pack_calls"] += 1
        return real_pack(*args, **kwargs)

    real_dispatch = ClusterSimulator._dispatch

    def counting_dispatch(self, event):
        counts["events"] += 1
        return real_dispatch(self, event)

    full_reconfig._pack_one_instance = counting_pack
    ClusterSimulator._dispatch = counting_dispatch
    try:
        sim = ClusterSimulator(
            trace=trace, scheduler=make_scheduler(scheduler_name, ec2_catalog())
        )
        start = time.perf_counter()
        result = sim.run()
        wall_s = time.perf_counter() - start
    finally:
        full_reconfig._pack_one_instance = real_pack
        ClusterSimulator._dispatch = real_dispatch

    return {
        "scheduler": result.scheduler_name,
        "num_jobs": result.num_jobs,
        "wall_s": round(wall_s, 4),
        "events": counts["events"],
        "events_per_s": round(counts["events"] / wall_s, 2),
        "rounds": result.scheduling_rounds,
        "rounds_per_s": round(result.scheduling_rounds / wall_s, 2),
        "pack_calls": counts["pack_calls"],
        "pack_calls_per_s": round(counts["pack_calls"] / wall_s, 2),
        # Fingerprint: must be identical across engine optimizations.
        "total_cost": round(result.total_cost, 6),
    }


def _load_history(path: Path) -> dict:
    if path.exists():
        try:
            history = json.loads(path.read_text())
            if isinstance(history, dict) and isinstance(history.get("runs"), list):
                return history
        except json.JSONDecodeError:
            pass
    return {
        "bench": "hotpath",
        "description": (
            "Simulator/packing hot-path throughput on the Table 10/13 "
            "large-trace scenarios; see docs/benchmarks.md"
        ),
        "runs": [],
    }


def _check_drift(history: dict, record: dict) -> None:
    """Compare each scenario's ``total_cost`` against the committed history.

    The fingerprint must be byte-stable across engine optimizations.  For
    every scenario in ``record``, the baseline is the most recent prior
    run at the *same* ``eva_bench_scale`` that recorded that scenario.  A
    mismatch prints both values and aborts (override with
    ``EVA_BENCH_ALLOW_DRIFT=1`` when the change is intentional, e.g. a
    deliberate trace/scenario edit).  A scenario with no prior record is
    announced explicitly — never silently passed over — so a renamed or
    missing scenario key cannot masquerade as "no drift".
    """
    allow = os.environ.get("EVA_BENCH_ALLOW_DRIFT") == "1"
    scale = record["eva_bench_scale"]
    drifted: list[str] = []
    for name, stats in record["scenarios"].items():
        baseline = None
        for run in reversed(history.get("runs", [])):
            if run.get("eva_bench_scale") != scale:
                continue
            prior = run.get("scenarios", {}).get(name)
            if prior is not None and "total_cost" in prior:
                baseline = (run.get("label", "?"), prior["total_cost"])
                break
        if baseline is None:
            print(
                f"[bench_hotpath] drift-check {name}: no prior record at "
                f"scale {scale} — recording first baseline "
                f"(total_cost={stats['total_cost']})",
                flush=True,
            )
            continue
        label, prior_cost = baseline
        if prior_cost != stats["total_cost"]:
            print(
                f"[bench_hotpath] DRIFT in {name}: total_cost "
                f"{stats['total_cost']} != baseline {prior_cost} "
                f"(run '{label}', scale {scale})",
                file=sys.stderr,
                flush=True,
            )
            drifted.append(name)
        else:
            print(
                f"[bench_hotpath] drift-check {name}: total_cost matches "
                f"baseline ({prior_cost})",
                flush=True,
            )
    if drifted and not allow:
        raise SystemExit(
            "[bench_hotpath] results fingerprint drifted for: "
            + ", ".join(drifted)
            + " — engine optimizations must not change simulation results. "
            "Set EVA_BENCH_ALLOW_DRIFT=1 only for intentional scenario changes."
        )


def main() -> dict:
    from _util import git_sha  # local import: benchmarks/ is not a package

    record = {
        "label": os.environ.get("EVA_BENCH_LABEL", "run"),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "eva_bench_scale": bench_scale(),
        "cold_start": _cold_start(),
        "scenarios": {},
    }
    cold = record["cold_start"]
    print(
        f"[bench_hotpath] cold start: {cold['wall_s']:.3f}s  "
        f"{cold['vmhwm_mb']:.1f} MB VmHWM  ({cold['command']})",
        flush=True,
    )
    for name, trace, scheduler_name in _scenarios():
        print(f"[bench_hotpath] {name} ...", flush=True)
        record["scenarios"][name] = _run_one(name, trace, scheduler_name)
        stats = record["scenarios"][name]
        print(
            f"[bench_hotpath]   {stats['wall_s']:.2f}s  "
            f"{stats['events_per_s']:.0f} events/s  "
            f"{stats['rounds_per_s']:.1f} rounds/s  "
            f"{stats['pack_calls_per_s']:.0f} pack calls/s",
            flush=True,
        )

    out_path = Path(os.environ.get("EVA_BENCH_HOTPATH_OUT", DEFAULT_HISTORY))
    history = _load_history(out_path)
    _check_drift(history, record)
    history["runs"].append(record)
    out_path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_hotpath.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(f"[bench_hotpath] appended record to {out_path}")
    return record


if __name__ == "__main__":
    main()
