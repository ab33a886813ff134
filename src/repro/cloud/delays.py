"""Reconfiguration delay model (Table 1).

The paper measured four delay components on AWS EC2:

=====================  ===========  =============
Delay type             Range (sec)  Average (sec)
=====================  ===========  =============
Instance acquisition   6 – 83       19
Instance setup         140 – 251    190
Job checkpointing      2 – 30       8
Job launching          1 – 160      47
=====================  ===========  =============

Instance-side delays are properties of the cloud; job-side delays are
properties of the workload (Table 7 lists per-workload checkpoint/launch
delays, which override the defaults here).

The model supports a deterministic mode (means — the default, keeping
simulations reproducible) and a stochastic mode sampling from truncated
normals within the measured ranges (used by the "physical" proxy in the
Table 12 fidelity experiment).  A global ``multiplier`` scales job
migration delays for the Figure 5 sensitivity sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Published measurement ranges and averages, seconds (Table 1).
ACQUISITION_RANGE_S = (6.0, 83.0)
ACQUISITION_MEAN_S = 19.0
SETUP_RANGE_S = (140.0, 251.0)
SETUP_MEAN_S = 190.0
CHECKPOINT_RANGE_S = (2.0, 30.0)
CHECKPOINT_MEAN_S = 8.0
LAUNCH_RANGE_S = (1.0, 160.0)
LAUNCH_MEAN_S = 47.0


def _truncated_normal(
    rng: np.random.Generator, mean: float, lo: float, hi: float
) -> float:
    """Sample a normal centred on the published mean, clipped to the range.

    The standard deviation is a quarter of the range width, matching the
    spread of the published measurements closely enough for a fidelity
    proxy.
    """
    std = (hi - lo) / 4.0
    return float(np.clip(rng.normal(mean, std), lo, hi))


@dataclass
class DelayModel:
    """Samples reconfiguration delays (Table 1).

    Attributes:
        stochastic: If True, sample from truncated normals; otherwise
            return the published means (deterministic).
        migration_multiplier: Scales job-side delays (checkpoint + launch)
            — the x-axis of Figure 5.
        instance_multiplier: Scales instance-side delays (acquisition +
            setup); kept separate so migration sweeps leave instance
            launch costs untouched, as in the paper.
        rng: Random generator for stochastic mode.

    Both multipliers must be finite and non-negative (0 removes the
    delay); anything else raises :class:`ValueError` here rather than
    surfacing mid-run as a NaN makespan or an event in the past.
    """

    stochastic: bool = False
    migration_multiplier: float = 1.0
    instance_multiplier: float = 1.0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def __post_init__(self) -> None:
        for name in ("migration_multiplier", "instance_multiplier"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    def __fingerprint__(self) -> dict:
        """Canonical content for the result-cache key.

        A deterministic model is fully described by its multipliers (the
        ``rng`` is never consulted); a stochastic model's behaviour lives
        in mutable RNG state, so it refuses to fingerprint — scenarios
        carrying one are treated as uncacheable by the ResultStore.
        """
        if self.stochastic:
            from repro.sim.fingerprint import FingerprintError

            raise FingerprintError(
                "stochastic DelayModel samples from live RNG state and "
                "cannot be fingerprinted; such scenarios are uncacheable"
            )
        return {
            "stochastic": False,
            "migration_multiplier": self.migration_multiplier,
            "instance_multiplier": self.instance_multiplier,
        }

    # -- instance-side ---------------------------------------------------
    def acquisition_s(self) -> float:
        """Delay between requesting an instance and the cloud granting it."""
        base = (
            _truncated_normal(self.rng, ACQUISITION_MEAN_S, *ACQUISITION_RANGE_S)
            if self.stochastic
            else ACQUISITION_MEAN_S
        )
        return base * self.instance_multiplier

    def setup_s(self) -> float:
        """Delay to boot the instance and start the Eva worker on it."""
        base = (
            _truncated_normal(self.rng, SETUP_MEAN_S, *SETUP_RANGE_S)
            if self.stochastic
            else SETUP_MEAN_S
        )
        return base * self.instance_multiplier

    def mean_instance_ready_s(self) -> float:
        """Mean delay from launch request until the instance can run tasks.

        The Table 1 acquisition and setup averages, never sampled.  A
        scheduler prices launches with this (§4.5): it cannot know the
        delay the cloud will draw, and reading ``rng`` here would shift
        the stream the environment samples its real delays from.  Equal
        bit for bit to a deterministic model's
        ``acquisition_s() + setup_s()``.
        """
        return (
            ACQUISITION_MEAN_S * self.instance_multiplier
            + SETUP_MEAN_S * self.instance_multiplier
        )

    # -- job-side ---------------------------------------------------------
    def checkpoint_s(self, workload_checkpoint_s: float | None = None) -> float:
        """Delay to stop and checkpoint a task on its source instance."""
        if workload_checkpoint_s is not None:
            base = workload_checkpoint_s
        elif self.stochastic:
            base = _truncated_normal(self.rng, CHECKPOINT_MEAN_S, *CHECKPOINT_RANGE_S)
        else:
            base = CHECKPOINT_MEAN_S
        if self.stochastic and workload_checkpoint_s is not None:
            base *= float(self.rng.uniform(0.8, 1.2))
        return base * self.migration_multiplier

    def launch_s(self, workload_launch_s: float | None = None) -> float:
        """Delay to restore and launch a task on its destination instance."""
        if workload_launch_s is not None:
            base = workload_launch_s
        elif self.stochastic:
            base = _truncated_normal(self.rng, LAUNCH_MEAN_S, *LAUNCH_RANGE_S)
        else:
            base = LAUNCH_MEAN_S
        if self.stochastic and workload_launch_s is not None:
            base *= float(self.rng.uniform(0.8, 1.2))
        return base * self.migration_multiplier
