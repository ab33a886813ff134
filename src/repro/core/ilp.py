"""ILP formulation of the provisioning problem (§4.1).

The paper formulates cluster configuration as an integer linear program:
choose, for each of |I| = |T| potential instances, at most one instance
type, and assign every task to exactly one instance without exceeding any
resource capacity, minimizing the summed hourly cost.  (The paper's "ghost
type" — zero cost, zero capacity — is equivalent to allowing an instance
to have no type at all, which is how we encode it.)

This implementation differs from a literal transcription in two
solver-friendly, solution-preserving ways:

* **Group aggregation** — tasks with identical demand signatures are
  interchangeable, so assignment variables count tasks per (instance,
  group) instead of being one binary per (instance, task).
* **Family-aware capacities** — Table 7 tasks demand fewer CPUs on
  C7i/R7i than on P3, which the paper's fixed-demand ILP cannot express;
  we use per-type big-M capacity constraints so demands follow the chosen
  instance type's family.
* **Symmetry breaking** — instances are forced into non-increasing cost
  order, removing permutation symmetry.

The solver is HiGHS via :func:`scipy.optimize.milp` (the paper used
Gurobi; both are exact MILP solvers, only wall-clock differs), with a
configurable time limit — the paper itself reports best-found solutions
under a 30-minute limit (Table 4).  scipy loads on the first solve, not
at import: only the Table 4 microbenchmark solves the ILP, and importing
scipy takes longer than a small simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.instance import InstanceType, fresh_instance
from repro.cluster.task import Task
from repro.core.full_reconfig import PackedInstance
from repro.core.reservation_price import _demand_signature


@dataclass(frozen=True)
class ILPResult:
    """Outcome of an ILP solve.

    Attributes:
        packed: The decoded configuration (None when no incumbent found).
        hourly_cost: Objective value of the incumbent.
        proven_optimal: Whether the solver proved optimality within the
            time limit.
        runtime_s: Wall-clock solve time.
        status_message: Solver status detail.
    """

    packed: list[PackedInstance] | None
    hourly_cost: float
    proven_optimal: bool
    runtime_s: float
    status_message: str


def _group_tasks(tasks: Sequence[Task]) -> list[list[Task]]:
    groups: dict[tuple, list[Task]] = {}
    for task in sorted(tasks, key=lambda t: t.task_id):
        groups.setdefault(_demand_signature(task), []).append(task)
    return [groups[key] for key in sorted(groups)]


def ilp_schedule(
    tasks: Sequence[Task],
    instance_types: Sequence[InstanceType],
    time_limit_s: float = 60.0,
    max_instances: int | None = None,
) -> ILPResult:
    """Solve the §4.1 ILP for an instantaneous task set.

    Args:
        tasks: The tasks to place.
        instance_types: Provisioning catalog (ghost types ignored).
        time_limit_s: Solver time budget; the best incumbent is returned
            if optimality is not proven in time.
        max_instances: Cap on |I| (defaults to |T|, the paper's bound).
    """
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import lil_matrix

    if not tasks:
        return ILPResult([], 0.0, True, 0.0, "empty task set")

    types = [it for it in instance_types if not it.is_ghost]
    groups = _group_tasks(tasks)
    counts = [len(g) for g in groups]
    num_i = min(len(tasks), max_instances or len(tasks))
    num_k = len(types)
    num_g = len(groups)
    resources = ("gpus", "cpus", "ram_gb")

    # Variable layout: x[i,k] binaries first, then y[i,g] integers.
    def xi(i: int, k: int) -> int:
        return i * num_k + k

    x_end = num_i * num_k

    def yi(i: int, g: int) -> int:
        return x_end + i * num_g + g

    num_vars = x_end + num_i * num_g

    cost = np.zeros(num_vars)
    for i in range(num_i):
        for k, itype in enumerate(types):
            cost[xi(i, k)] = itype.hourly_cost

    # Per-(group, type, resource) demand table (family-specific).
    demand = np.zeros((num_g, num_k, len(resources)))
    for g, group in enumerate(groups):
        rep = group[0]
        for k, itype in enumerate(types):
            vec = rep.demand_for(itype.family)
            for r, rname in enumerate(resources):
                demand[g, k, r] = vec.get(rname)

    rows: list[tuple[dict[int, float], float, float]] = []  # (coeffs, lb, ub)

    # Each group fully assigned: Σ_i y_ig = n_g.
    for g in range(num_g):
        rows.append(({yi(i, g): 1.0 for i in range(num_i)}, counts[g], counts[g]))

    # At most one type per instance (no type = not provisioned).
    for i in range(num_i):
        rows.append(({xi(i, k): 1.0 for k in range(num_k)}, -np.inf, 1.0))

    # A task may only sit on a provisioned instance:
    # Σ_g y_ig ≤ (Σ_g n_g) · Σ_k x_ik.
    total_tasks = float(sum(counts))
    for i in range(num_i):
        coeffs = {yi(i, g): 1.0 for g in range(num_g)}
        for k in range(num_k):
            coeffs[xi(i, k)] = -total_tasks
        rows.append((coeffs, -np.inf, 0.0))

    # Family-aware capacity, big-M per (i, r, k):
    # Σ_g D_{g,k}^r y_ig + M·x_ik ≤ Q_k^r + M.
    for i in range(num_i):
        for k, itype in enumerate(types):
            cap = itype.capacity
            for r, rname in enumerate(resources):
                col = demand[:, k, r]
                if not col.any():
                    continue
                big_m = float(np.dot(col, counts))
                q = cap.get(rname)
                if big_m <= q:
                    continue  # capacity can never be exceeded
                coeffs = {yi(i, g): float(col[g]) for g in range(num_g) if col[g]}
                coeffs[xi(i, k)] = big_m
                rows.append((coeffs, -np.inf, q + big_m))

    # Symmetry breaking: instance costs non-increasing in i.
    for i in range(num_i - 1):
        coeffs: dict[int, float] = {}
        for k, itype in enumerate(types):
            coeffs[xi(i, k)] = coeffs.get(xi(i, k), 0.0) + itype.hourly_cost
            coeffs[xi(i + 1, k)] = coeffs.get(xi(i + 1, k), 0.0) - itype.hourly_cost
        rows.append((coeffs, 0.0, np.inf))

    a_matrix = lil_matrix((len(rows), num_vars))
    lbs = np.empty(len(rows))
    ubs = np.empty(len(rows))
    for row_idx, (coeffs, lb, ub) in enumerate(rows):
        for col_idx, coeff in coeffs.items():
            a_matrix[row_idx, col_idx] = coeff
        lbs[row_idx] = lb
        ubs[row_idx] = ub

    integrality = np.ones(num_vars)
    lower = np.zeros(num_vars)
    upper = np.empty(num_vars)
    upper[:x_end] = 1.0
    for i in range(num_i):
        for g in range(num_g):
            upper[yi(i, g)] = counts[g]

    start = time.perf_counter()
    result = milp(
        c=cost,
        constraints=LinearConstraint(a_matrix.tocsr(), lbs, ubs),
        integrality=integrality,
        bounds=(lower, upper),
        options={"time_limit": time_limit_s, "disp": False},
    )
    runtime = time.perf_counter() - start

    if result.x is None:
        return ILPResult(None, float("inf"), False, runtime, result.message)

    packed = _decode(result.x, groups, types, num_i, num_k, num_g, xi, yi)
    proven = result.status == 0
    return ILPResult(
        packed=packed,
        hourly_cost=float(result.fun),
        proven_optimal=proven,
        runtime_s=runtime,
        status_message=result.message,
    )


def _decode(x, groups, types, num_i, num_k, num_g, xi, yi) -> list[PackedInstance]:
    """Turn a MILP solution vector back into a packed configuration."""
    remaining = [list(g) for g in groups]
    packed: list[PackedInstance] = []
    for i in range(num_i):
        chosen_k = None
        for k in range(num_k):
            if round(x[xi(i, k)]) == 1:
                chosen_k = k
                break
        if chosen_k is None:
            continue
        chosen_tasks: list[Task] = []
        for g in range(num_g):
            count = int(round(x[yi(i, g)]))
            for _ in range(count):
                chosen_tasks.append(remaining[g].pop())
        if chosen_tasks:
            packed.append(
                PackedInstance(
                    instance=fresh_instance(types[chosen_k]),
                    tasks=tuple(chosen_tasks),
                )
            )
    leftovers = sum(len(g) for g in remaining)
    if leftovers:
        raise RuntimeError(
            f"ILP solution left {leftovers} task(s) unassigned — solver "
            "returned a fractional or inconsistent incumbent"
        )
    return packed
