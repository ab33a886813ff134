"""Failure-aware scheduling: empirical hazard → urgency-weighted RPs.

Eva's reservation-price machinery optimizes cost and is failure-blind.
:class:`FailureHazard` is the :class:`~repro.core.scheduler.Signal`
that adds reliability awareness on top of the *unchanged* Algorithm-1
path (registry preset ``eva-failure``), pulling two of the scheduler's
levers:

* **Crashes → urgency** (the lever ``eva-deadline`` uses): the signal
  consumes :class:`~repro.core.protocol.InstanceFailed` observations —
  never snapshot sniffing — and maintains *per-failure-domain empirical
  hazard estimates* (observed failure counts over elapsed time).  Jobs
  it saw lose work to a crash are charged an escalated
  throughput-degradation rate through the ordinary TNRP formula

      ``TNRP_u(τ, tput) = RP(τ) − (1 − tput) · RP(charge) · u``

  so struck jobs come out of packing isolated: they re-earn the
  rolled-back work at full throughput, which shortens their remaining
  execution time and with it their exposure to the next failure.  The
  escalation per strike is weighted by the striking domain's observed
  hazard share, so a domain hammered by correlated shocks (an
  above-uniform share of observed failures) escalates harder than
  background crash noise — avoidance emerges from TNRP, not a side
  mechanism.

* **Stragglers → hidden instances** (the lever ``eva-eviction-aware``
  uses): a :class:`~repro.core.protocol.StragglerReport` marks an
  instance as degraded capacity (the CASH motivation: slow, not down).
  Degraded instances are hidden from packing exactly like notice-doomed
  spot instances, so the ordinary packing path drains them — their
  tasks are re-placed on healthy capacity and the cluster stops paying
  full price for fractional throughput.  A recovery report
  (``slowdown == 1.0``) clears the mark.

With no failure observations the signal publishes nothing and the
scheduler is byte-for-byte plain Eva (the failure-enabled golden matrix
pins the reaction, the fault-free matrices pin the identity).
"""

from __future__ import annotations

from repro.cluster.state import ClusterSnapshot
from repro.core.protocol import InstanceFailed, Observation, StragglerReport
from repro.core.scheduler import MAX_URGENCY, Signal

__all__ = ["FailureHazard"]

#: Base degradation-charge multiplier per observed crash of a job,
#: compounded (``STRIKE_URGENCY ** strikes``).  8 isolates a job after
#: two strikes against the table's 0.95 pairwise default (which needs
#: ``u > 20``), and after one strike when the striking domain is hot.
STRIKE_URGENCY = 8.0


class FailureHazard(Signal):
    """Failure-hazard urgency and straggler draining (see module docstring).

    Failures and stragglers reach it only as typed observations.  Victim
    attribution is best-effort from the last snapshot's placements (the
    signal's own remembered state — a crash between a launch and the
    next round has no remembered placement and simply goes
    unattributed).
    """

    charges_urgency = True

    def __init__(self) -> None:
        #: domain id -> observed failure count (the empirical hazard
        #: numerators; rates are over elapsed snapshot time).
        self._domain_failures: dict[int, int] = {}
        self._total_failures = 0
        #: job id -> crashes observed to hit it (pruned on finish).
        self._strikes: dict[str, int] = {}
        #: job id -> domain of its most recent strike.
        self._strike_domain: dict[str, int] = {}
        #: instance id -> job ids placed on it at the last observed
        #: snapshot (crash victim attribution).
        self._last_placements: dict[str, frozenset[str]] = {}
        #: Time of the most recent snapshot (hazard-rate denominator).
        self._last_time_s = 0.0

    def observe(self, observations: tuple[Observation, ...]) -> None:
        for obs in observations:
            if isinstance(obs, InstanceFailed):
                domain = obs.failure_domain
                self._domain_failures[domain] = (
                    self._domain_failures.get(domain, 0) + 1
                )
                self._total_failures += 1
                for job_id in sorted(
                    self._last_placements.get(obs.instance_id, ())
                ):
                    self._strikes[job_id] = self._strikes.get(job_id, 0) + 1
                    self._strike_domain[job_id] = domain
                self._last_placements.pop(obs.instance_id, None)
                self.hidden = self.hidden - {obs.instance_id}
            elif isinstance(obs, StragglerReport):
                if obs.slowdown >= 1.0:
                    self.hidden = self.hidden - {obs.instance_id}
                else:
                    self.hidden = self.hidden | {obs.instance_id}

    def domain_hazard_per_hour(self) -> dict[int, float]:
        """Observed failures per hour, per failure domain."""
        hours = self._last_time_s / 3600.0
        if hours <= 0.0:
            return {d: 0.0 for d in self._domain_failures}
        return {
            d: count / hours for d, count in self._domain_failures.items()
        }

    def _domain_weight(self, domain: int) -> float:
        """How much hotter ``domain`` runs than the observed average.

        ``1.0`` under uniform (independent-crash) hazard; grows toward
        the number of observed domains when correlated shocks hammer one
        domain, so shock-struck jobs escalate harder than crash-struck
        ones.  Floored at 1.0 — a cool domain never discounts a strike.
        """
        if self._total_failures <= 0 or not self._domain_failures:
            return 1.0
        mean = self._total_failures / len(self._domain_failures)
        return max(1.0, self._domain_failures.get(domain, 0) / mean)

    def pre_round(self, snapshot: ClusterSnapshot) -> None:
        self._last_time_s = snapshot.time_s
        live_jobs = snapshot.jobs
        for job_id in [j for j in self._strikes if j not in live_jobs]:
            del self._strikes[job_id]
            self._strike_domain.pop(job_id, None)
        self.hidden = self.hidden.intersection(
            st.instance_id for st in snapshot.instances
        )
        self.urgency = self._compute_urgency()
        self._last_placements = {
            st.instance_id: frozenset(
                snapshot.tasks[tid].job_id
                for tid in st.task_ids
                if tid in snapshot.tasks
            )
            for st in snapshot.instances
        }

    def _compute_urgency(self) -> dict[str, float]:
        urgency: dict[str, float] = {}
        for job_id, strikes in self._strikes.items():
            weight = self._domain_weight(self._strike_domain.get(job_id, -1))
            urgency[job_id] = min(
                MAX_URGENCY, (STRIKE_URGENCY**strikes) * weight
            )
        return urgency
