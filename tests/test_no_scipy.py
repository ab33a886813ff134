"""The simulation path runs without scipy.

scipy serves only the §4.1 ILP of the Table 4 microbenchmark, which
imports it inside ``ilp_schedule``; importing it takes longer than a
small simulation, so nothing a simulation loads may pull it in.  The
check runs in a fresh interpreter with ``sys.modules["scipy"] = None``,
which makes every scipy import raise ``ImportError``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Small-trace arguments for every registered trace builder.  A builder
#: registered without an entry here fails the test, so none goes unchecked.
BUILDER_KWARGS = {
    "alibaba": {"num_jobs": 8},
    "alibaba-gavel": {"num_jobs": 8},
    "alibaba-multi-gpu": {"num_jobs": 8, "multi_gpu_fraction": 0.25},
    "alibaba-multi-task": {"num_jobs": 8, "multi_task_fraction": 0.25},
    "alibaba-replay": {"num_jobs": 8},
    "gavel-replay": {"num_jobs": 8},
    "multitask-microbench": {"num_jobs": 8},
    "small-physical": {},
    "synthetic": {"num_jobs": 8},
}

SCRIPT = f"""
import sys
sys.modules["scipy"] = None

import repro
import repro.experiments
repro.experiments.experiment_ids()  # imports every spec module
from repro.sim import run_scenario
from repro.sim.batch import Scenario, TraceSpec, trace_builder_names

kwargs = {BUILDER_KWARGS!r}
assert sorted(kwargs) == list(trace_builder_names()), trace_builder_names()
for name in trace_builder_names():
    assert len(TraceSpec.make(name, seed=0, **kwargs[name]).build()) > 0, name
trace = TraceSpec.make("alibaba-replay", num_jobs=8, seed=0)
for scheduler in ("eva", "no-packing"):
    result = run_scenario(Scenario(scheduler, trace, seed=0)).result
    assert len(result.jobs) == 8, (scheduler, len(result.jobs))
"""


def test_simulation_path_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
