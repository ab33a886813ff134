"""Replay the (synthesized) Alibaba production trace under all five
schedulers — the paper artifact's experiment E2.

E2 runs "the first 200 jobs of the Alibaba trace" through No-Packing,
Stratus, Synergy, Owl and Eva and compares total costs.  The trace here is
the documented synthetic equivalent (Tables 8/9 marginals; DESIGN.md §2).

Run:  python examples/alibaba_trace_replay.py [num_jobs]
"""

import sys

from repro.analysis import compare_schedulers
from repro.workloads import synthesize_alibaba_trace


def main(num_jobs: int = 200) -> None:
    trace = synthesize_alibaba_trace(num_jobs, seed=0).head(num_jobs)
    print(
        f"replaying {len(trace)} Alibaba-like jobs "
        f"(GPU mix: {trace.gpu_demand_composition()})\n"
    )

    comparison = compare_schedulers(trace)
    print(
        comparison.end_to_end_table(
            f"Experiment E2: first {num_jobs} Alibaba jobs, five schedulers"
        ).render()
    )

    eva = comparison.results["Eva"]
    print(
        f"\nEva: {eva.instances_launched} instances launched, "
        f"{eva.migrations_per_task():.2f} migrations/task, "
        f"Full Reconfiguration adopted in "
        f"{(eva.full_adoption_fraction or 0) * 100:.1f}% of rounds"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200)
