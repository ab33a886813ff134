"""Byte-identical regression gate for the simulator's result stream.

The 23-cell scheduler/trace matrix below was digested at the revision
that introduced the action/observation protocol, *before* the
``_apply``-path rewrite, so these digests pin the legacy
snapshot→target semantics.  Any refactor of the scheduling contract,
the action executor, or the event engine must keep every
:class:`~repro.sim.metrics.SimulationResult` byte-identical — the
whole pickled result, not just headline metrics.

Regenerate (only when a change is *supposed* to alter results, which
needs an explicit justification in the PR):

    EVA_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_digests.py

The matrix spans every registered scheduler, single- and multi-task
traces, all four trace families, and the spot market, so digest drift
localizes quickly: a diff confined to ``spot-*`` rows points at the
preemption path, one confined to ``eva*`` rows at the packing layer,
and a full-matrix diff at the engine/accounting core.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path

import pytest

from repro.cloud.catalog import ec2_catalog
from repro.core import make_scheduler
from repro.cloud.market import CreditModel, MarketConfig, MarketPool
from repro.sim.simulator import (
    FailureConfig,
    RetryPolicy,
    SpotConfig,
    run_simulation,
)
from repro.workloads.alibaba import (
    alibaba_gavel_trace,
    alibaba_multi_task_trace,
    synthesize_alibaba_trace,
)
from repro.workloads.synthetic import small_physical_trace, synthetic_trace

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_digests.json"
#: Deadline-SLO cells live in their own file so the legacy 23-cell
#: matrix above is never rewritten by a deadline-side regeneration
#: (regen runs select one test file/function, not one env var).
GOLDEN_DEADLINE_PATH = (
    Path(__file__).parent / "data" / "golden_digests_deadline.json"
)
#: Failure-injection cells, same per-file isolation rationale.
GOLDEN_FAILURE_PATH = (
    Path(__file__).parent / "data" / "golden_digests_failure.json"
)
#: Spot-market cells, same per-file isolation rationale.
GOLDEN_MARKET_PATH = (
    Path(__file__).parent / "data" / "golden_digests_market.json"
)

#: Pinned so the digest does not move when a newer interpreter bumps
#: ``pickle.HIGHEST_PROTOCOL``.
_PICKLE_PROTOCOL = 5

_EVA_VARIANTS = (
    "eva",
    "eva-tnrp",
    "eva-rp",
    "eva-single",
    "eva-full-only",
    "eva-partial-only",
)
_BASELINES = ("no-packing", "stratus", "synergy", "owl")


def _matrix() -> list[tuple[str, str, dict]]:
    """(cell id, scheduler registry name, run_simulation kwargs) triples."""
    cells: list[tuple[str, str, dict]] = []
    syn20 = synthetic_trace(20, seed=0, name="golden-syn20")
    for scheduler in _EVA_VARIANTS + _BASELINES:
        cells.append((f"syn20-{scheduler}", scheduler, {"trace": syn20}))
    ali60 = synthesize_alibaba_trace(60, seed=1)
    for scheduler in ("eva",) + _BASELINES:
        cells.append((f"ali60-{scheduler}", scheduler, {"trace": ali60}))
    multi30 = alibaba_multi_task_trace(30, multi_task_fraction=0.5, seed=2)
    for scheduler in ("eva", "eva-single"):
        cells.append((f"multi30-{scheduler}", scheduler, {"trace": multi30}))
    spot12 = synthetic_trace(12, seed=3, name="golden-spot12")
    spot = SpotConfig(enabled=True, preemption_rate_per_hour=0.3, seed=3)
    for scheduler in ("eva", "no-packing", "stratus"):
        cells.append(
            (f"spot12-{scheduler}", scheduler, {"trace": spot12, "spot": spot})
        )
    cells.append(("gavel24-eva", "eva", {"trace": alibaba_gavel_trace(24, seed=4)}))
    phys32 = small_physical_trace(seed=0)
    for scheduler in ("eva", "owl"):
        cells.append((f"phys32-{scheduler}", scheduler, {"trace": phys32}))
    assert len(cells) == 23, f"golden matrix drifted to {len(cells)} cells"
    return cells


def _digest(cell_kwargs: dict, scheduler_name: str) -> str:
    result = run_simulation(
        scheduler=make_scheduler(scheduler_name, ec2_catalog()), **cell_kwargs
    )
    return hashlib.sha256(
        pickle.dumps(result, protocol=_PICKLE_PROTOCOL)
    ).hexdigest()


def _check_against_golden(actual: dict[str, str], path: Path) -> None:
    if os.environ.get("EVA_REGEN_GOLDEN") == "1":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {len(actual)} golden digests at {path}")

    assert path.exists(), f"{path} missing; regenerate with EVA_REGEN_GOLDEN=1"
    golden = json.loads(path.read_text())
    assert set(actual) == set(golden), (
        "golden matrix cells changed; regenerate deliberately"
    )
    drifted = {
        cell: (golden[cell], actual[cell])
        for cell in sorted(actual)
        if actual[cell] != golden[cell]
    }
    assert not drifted, (
        "SimulationResult digests drifted (byte-identity contract, see "
        f"module docstring): {sorted(drifted)}"
    )


def test_simulation_results_match_golden_digests():
    cells = _matrix()
    actual = {
        cell_id: _digest(kwargs, scheduler)
        for cell_id, scheduler, kwargs in cells
    }
    _check_against_golden(actual, GOLDEN_PATH)


def _deadline_matrix() -> list[tuple[str, str, dict]]:
    """The deadline-SLO cells: deadline-bearing traces × warning windows.

    Pins the whole new surface: deadline sampling in both trace
    families, the once-per-job warning emission, the ``eva-deadline``
    policy's urgency/extraction path, and the SLO fields of
    ``SimulationResult`` — across the configurable warning horizon.
    """
    cells: list[tuple[str, str, dict]] = []
    dl_syn = synthetic_trace(
        16,
        seed=5,
        mean_interarrival_s=600.0,
        deadline_fraction=0.5,
        deadline_slack_range=(1.25, 1.25),
        name="golden-dlsyn16",
    )
    for scheduler in ("eva", "eva-deadline", "no-packing"):
        cells.append(
            (
                f"dlsyn16-{scheduler}",
                scheduler,
                {"trace": dl_syn, "deadline_warning_s": 7 * 24 * 3600.0},
            )
        )
    # The classic two-period default horizon (deadline_warning_s=None).
    cells.append(("dlsyn16-eva-deadline-defaultwarn", "eva-deadline", {"trace": dl_syn}))
    dl_loose = synthetic_trace(
        16,
        seed=5,
        mean_interarrival_s=600.0,
        deadline_fraction=1.0,
        deadline_slack_range=(1.5, 3.0),
        name="golden-dlloose16",
    )
    cells.append(
        (
            "dlloose16-eva-deadline",
            "eva-deadline",
            {"trace": dl_loose, "deadline_warning_s": 7 * 24 * 3600.0},
        )
    )
    dl_ali = synthesize_alibaba_trace(
        40, seed=6, deadline_fraction=0.4, deadline_slack_range=(1.2, 2.0)
    )
    for scheduler in ("eva", "eva-deadline"):
        cells.append(
            (
                f"dlali40-{scheduler}",
                scheduler,
                {"trace": dl_ali, "deadline_warning_s": 3600.0},
            )
        )
    assert len(cells) == 7, f"deadline matrix drifted to {len(cells)} cells"
    return cells


def test_deadline_results_match_golden_digests():
    cells = _deadline_matrix()
    actual = {
        cell_id: _digest(kwargs, scheduler)
        for cell_id, scheduler, kwargs in cells
    }
    _check_against_golden(actual, GOLDEN_DEADLINE_PATH)


def _failure_matrix() -> list[tuple[str, str, dict]]:
    """The fault-injection cells: failure regimes × reaction policies.

    Pins the whole new surface: the two fault RNG streams (per-launch
    crash/straggler draws, self-scheduling domain shocks), rollback to
    the last checkpoint boundary, retry backoff, the checkpoint
    throughput tax, the ``InstanceFailed``/``StragglerReport``
    observation emission, the ``eva-failure`` hazard/urgency/drain
    policy, and the failure fields of ``SimulationResult`` — each cell
    runs ``validate=True`` so the naive accounting cross-checks are part
    of the pinned path.
    """
    cells: list[tuple[str, str, dict]] = []
    fsyn = synthetic_trace(
        16,
        seed=7,
        mean_interarrival_s=600.0,
        duration_range_hours=(0.2, 1.0),
        name="golden-fsyn16",
    )
    # Crashes + shocks + stragglers together (the full regime).
    full = FailureConfig(
        enabled=True,
        crash_rate_per_hour=0.3,
        domain_shock_rate_per_hour=0.1,
        straggler_rate_per_hour=0.3,
        retry=RetryPolicy(
            checkpoint_interval_s=900.0, checkpoint_overhead=0.02
        ),
        seed=7,
    )
    for scheduler in ("eva", "eva-failure", "no-packing"):
        cells.append(
            (
                f"fsyn16-full-{scheduler}",
                scheduler,
                {"trace": fsyn, "failures": full, "validate": True},
            )
        )
    # Shock-dominated: correlated domain kills with no background noise.
    shocks = FailureConfig(
        enabled=True,
        domain_shock_rate_per_hour=0.4,
        num_domains=2,
        retry=RetryPolicy(checkpoint_interval_s=1200.0),
        seed=8,
    )
    for scheduler in ("eva", "eva-failure"):
        cells.append(
            (
                f"fsyn16-shocks-{scheduler}",
                scheduler,
                {"trace": fsyn, "failures": shocks, "validate": True},
            )
        )
    # Straggler-only: degraded capacity, nothing ever dies.
    slow = FailureConfig(
        enabled=True,
        straggler_rate_per_hour=0.8,
        straggler_slowdown=(0.3, 0.6),
        straggler_duration_s=1800.0,
        seed=9,
    )
    for scheduler in ("eva", "eva-failure"):
        cells.append(
            (
                f"fsyn16-slow-{scheduler}",
                scheduler,
                {"trace": fsyn, "failures": slow, "validate": True},
            )
        )
    fali = synthesize_alibaba_trace(40, seed=10)
    cells.append(
        (
            "fali40-eva-failure",
            "eva-failure",
            {"trace": fali, "failures": full, "validate": True},
        )
    )
    assert len(cells) == 8, f"failure matrix drifted to {len(cells)} cells"
    return cells


def test_failure_results_match_golden_digests():
    cells = _failure_matrix()
    actual = {
        cell_id: _digest(kwargs, scheduler)
        for cell_id, scheduler, kwargs in cells
    }
    _check_against_golden(actual, GOLDEN_FAILURE_PATH)


def _market_matrix() -> list[tuple[str, str, dict]]:
    """The spot-market cells: price regimes × bidding policies.

    Pins the whole new surface: the seeded price walks and their
    mid-life billing splits, the ``PriceChanged``/``PoolExhausted``
    emission, the price-coupled eviction draw under legacy spot, finite
    pool capacity with backlog delays, burstable credits, and the
    ``eva-market`` repricing/bid-ceiling/fallback policy.
    """
    cells: list[tuple[str, str, dict]] = []
    msyn = synthetic_trace(
        16,
        seed=11,
        mean_interarrival_s=600.0,
        duration_range_hours=(0.2, 1.0),
        name="golden-msyn16",
    )
    volatile = MarketConfig(
        enabled=True,
        seed=11,
        pools=(
            MarketPool(
                name="cpu-c", families=("c7i",), volatility=0.3, step_s=1800.0
            ),
            MarketPool(
                name="cpu-r", families=("r7i",), volatility=0.3, step_s=1800.0
            ),
        ),
    )
    # Volatile two-pool market under the three bidding postures.
    for scheduler in ("eva", "eva-market", "no-packing"):
        cells.append(
            (
                f"msyn16-volatile-{scheduler}",
                scheduler,
                {"trace": msyn, "market": volatile},
            )
        )
    # Legacy spot with the price-coupled eviction draw and notices the
    # storm detector can see.
    coupled = MarketConfig(
        enabled=True,
        seed=12,
        eviction_coupling=2.0,
        pools=volatile.pools,
    )
    spot = SpotConfig(
        enabled=True, preemption_rate_per_hour=0.2, seed=11, notice_s=300.0
    )
    # The same notices under the eviction-aware drain, which hides
    # noticed instances from packing.
    for scheduler in ("eva-market", "eva-eviction-aware"):
        cells.append(
            (
                f"msyn16-coupled-{scheduler}",
                scheduler,
                {"trace": msyn, "market": coupled, "spot": spot},
            )
        )
    # Finite capacity: backlog delays + PoolExhausted emission.
    tight = MarketConfig(
        enabled=True,
        seed=13,
        pools=(
            MarketPool(
                name="tiny",
                families=("c7i", "r7i"),
                capacity=2,
                backlog_delay_s=600.0,
            ),
        ),
    )
    for scheduler in ("eva", "eva-market"):
        cells.append(
            (
                f"msyn16-tight-{scheduler}",
                scheduler,
                {"trace": msyn, "market": tight},
            )
        )
    # Burstable credits: deterministic exhaustion, degraded throughput.
    burst = MarketConfig(
        enabled=True,
        seed=14,
        pools=(MarketPool(name="burst", families=("c7i", "r7i")),),
        credits=CreditModel(
            families=("c7i", "r7i"), initial_credit_s=1800.0
        ),
    )
    cells.append(
        ("msyn16-burst-eva", "eva", {"trace": msyn, "market": burst})
    )
    # Replayed price trace (the CSV-backed path, inlined).
    replay = MarketConfig(
        enabled=True,
        seed=15,
        pools=(
            MarketPool(
                name="replay",
                families=("c7i",),
                trace=((0.0, 1.0), (3600.0, 1.6), (10800.0, 0.7)),
            ),
        ),
    )
    cells.append(
        ("msyn16-replay-eva-market", "eva-market", {"trace": msyn, "market": replay})
    )
    assert len(cells) == 9, f"market matrix drifted to {len(cells)} cells"
    return cells


def test_market_results_match_golden_digests():
    cells = _market_matrix()
    actual = {
        cell_id: _digest(kwargs, scheduler)
        for cell_id, scheduler, kwargs in cells
    }
    _check_against_golden(actual, GOLDEN_MARKET_PATH)
