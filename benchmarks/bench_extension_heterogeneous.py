"""Extension bench: heterogeneous resources (§4.2 generalization).

Gives the C7i/R7i families a CPU speed advantage for the CPU-bound
Table-7 workloads (the same effect the Table-7 footnote measures via
lower CPU demands) and compares packing costs under the homogeneous vs
heterogeneous reservation-price definitions.
"""

from _util import run_once, save_and_print

from repro.analysis.reporting import ExperimentTable
from repro.cloud.catalog import ec2_catalog
from repro.core.evaluation import TNRPEvaluator
from repro.core.full_reconfig import configuration_cost, full_reconfiguration
from repro.core.heterogeneous import (
    FamilySpeedProfile,
    HeterogeneousEvaluator,
    HeterogeneousRPCalculator,
)
from repro.core.reservation_price import ReservationPriceCalculator
from repro.core.throughput_table import CoLocationThroughputTable
from repro.experiments.common import scaled
from repro.workloads.synthetic import microbench_task_pool
from repro.workloads.workloads import CPU_WORKLOADS

#: CPU workloads iterate ~1.6x faster on the high-frequency families
#: (mirrors Table 7's 14-vs-8-CPU Diamond demand split).
SPEEDUPS = {name: {"c7i": 1.6, "r7i": 1.6} for name in CPU_WORKLOADS}


def _run():
    num_tasks = scaled(150, minimum=50, maximum=2000)
    catalog = ec2_catalog()
    tasks = microbench_task_pool(num_tasks, seed=12)

    hom_ev = TNRPEvaluator(
        ReservationPriceCalculator(catalog),
        CoLocationThroughputTable(default_tput=1.0),
        jobs={},
    )
    hom_cost = configuration_cost(full_reconfiguration(tasks, catalog, hom_ev))

    het_calc = HeterogeneousRPCalculator(
        catalog, FamilySpeedProfile(speeds=SPEEDUPS)
    )
    het_ev = HeterogeneousEvaluator(
        calculator=het_calc,
        table=CoLocationThroughputTable(default_tput=1.0),
        jobs={},
    )
    het_packed = full_reconfiguration(tasks, catalog, het_ev)
    het_cost = configuration_cost(het_packed)
    # Dollars per unit of work: each task on family f delivers speed(f)
    # units per hour.
    work_rate = sum(
        het_calc.profile.speed(t.workload, p.instance_type.family)
        for p in het_packed
        for t in p.tasks
    )
    return ExperimentTable(
        title=f"Extension: heterogeneous RP ({num_tasks} tasks, CPU families "
        "1.6x faster for CPU workloads)",
        headers=("Variant", "Config Cost ($/hr)", "Work Rate (tasks-eq/hr)", "$ per work unit"),
        rows=(
            ("homogeneous RP", round(hom_cost, 2), float(num_tasks), round(hom_cost / num_tasks, 4)),
            ("heterogeneous RP", round(het_cost, 2), round(work_rate, 1), round(het_cost / work_rate, 4)),
        ),
        notes=("heterogeneous RP buys iterations, not instance-hours (§4.2)",),
    )


def bench_heterogeneous(benchmark):
    table = run_once(benchmark, _run)
    save_and_print("extension_heterogeneous", table.render())
    hom_dollars_per_work = table.rows[0][3]
    het_dollars_per_work = table.rows[1][3]
    assert het_dollars_per_work <= hom_dollars_per_work + 1e-9
