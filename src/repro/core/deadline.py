"""Deadline-SLO scheduling: urgency-weighted reservation prices.

Eva's reservation-price machinery optimizes cost and is deadline-blind.
:class:`DeadlineUrgency` is the :class:`~repro.core.scheduler.Signal`
that adds deadline awareness on top of the *unchanged* Algorithm-1 path
(registry preset ``eva-deadline``).  It consumes
:class:`~repro.core.protocol.DeadlineApproaching` observations natively
(the typed channel, never snapshot diffing), estimates each
deadline-bearing job's remaining work from its throughput reports, and
— when the job can no longer meet its deadline at the co-located
throughput the table predicts — publishes an urgency multiplier that
escalates the rate at which the job's reservation price is charged
against interference.

The escalation generalizes the §4.4 multi-task penalty.  The standard
single-task TNRP ``tput · RP(τ)`` is algebraically
``RP(τ) − (1 − tput) · RP(τ)``: full reservation price minus the
degradation charge.  For an *at-risk* job the charge is multiplied by an
urgency factor ``u ≥ 1``:

    ``TNRP_u(τ, tput) = RP(τ) − (1 − tput) · RP(charge) · u``

(``RP(charge)`` is ``RP(j)`` for multi-task jobs, exactly as in §4.4,
and ``RP(τ)`` for single-task jobs).  Standalone placements
(``tput = 1``) are untouched, so an at-risk job costs exactly what it
always cost on its reservation-price instance.  Everything else falls
out of the ordinary packing path:

* **greedy guard (Algorithm 1, lines 9–11)** — adding a neighbour to an
  at-risk task's instance now decreases the set's value, so urgent
  tasks come out of packing isolated;
* **survivor extraction (§4.5)** — an instance co-locating an at-risk
  task loses its cost-efficiency (the inflated degradation charge
  pushes the set's value below the instance's hourly cost), so Partial
  Reconfiguration drains it and re-packs the task at full throughput;
* **termination/launch** — the standard plan executor migrates the
  at-risk task off and closes the drained instance; no special-case
  actions exist, so the declared ``action_types`` vocabulary is Eva's.

The urgency factor comes from remaining work vs. time-to-deadline: with
``required = remaining_work_h / time_to_deadline_h``, the job is at risk
once ``required`` exceeds the throughput the table predicts for a packed
placement (its pairwise default), and then

    ``u = min(MAX_URGENCY, 1 / max(1 − required, 1 / MAX_URGENCY))``

— exactly the factor at which a ``(1 − tput) = 1 − required``
degradation charge cancels one full reservation price, so the escalation
grows as slack shrinks and saturates at ``MAX_URGENCY`` for jobs whose
deadline is already unattainable (bounding lateness instead).

With no at-risk jobs the signal publishes no urgency, and the scheduler
runs the stock evaluator with its shared cross-round caches, byte for
byte as plain Eva.
"""

from __future__ import annotations

from repro.cluster.state import ClusterSnapshot
from repro.core.protocol import (
    DeadlineApproaching,
    Observation,
    throughput_reports,
)
from repro.core.scheduler import MAX_URGENCY, EvaScheduler, Signal
from repro.core.throughput_table import DEFAULT_PAIRWISE_TPUT

__all__ = ["DeadlineUrgency"]

#: Reconfiguration allowance subtracted from the time to deadline before
#: computing the required throughput.  Isolating a job is not
#: instantaneous (the at-risk call must land a scheduling round plus a
#: checkpoint/launch cycle before the deadline), so the signal plans
#: against a deadline this many seconds early: two scheduling periods,
#: like the simulator's default warning horizon.  A job inside this
#: window escalates to ``MAX_URGENCY`` outright.
RECONFIG_HEADROOM_S = 600.0


class DeadlineUrgency(Signal):
    """Urgency for deadline-bearing jobs at risk (see module docstring).

    Deadlines reach it only as
    :class:`~repro.core.protocol.DeadlineApproaching` observations, so
    direct ``schedule()`` callers that bypass the observation channel get
    plain Eva behaviour: the signal never sniffs ``Job.deadline_hours``
    off the snapshot.  Remaining work is estimated by integrating the
    per-round throughput reports, the same signal that feeds the
    co-location table.
    """

    charges_urgency = True

    def __init__(self) -> None:
        #: job id -> absolute deadline (seconds), learned from the typed
        #: observation channel and pruned against each snapshot.
        self._deadlines: dict[str, float] = {}
        #: job id -> (last integration time, estimated work done in
        #: standalone-hours).
        self._progress: dict[str, tuple[float, float]] = {}
        #: This round's reported normalized throughput per job (jobs not
        #: fully running have no report and integrate at rate 0).
        self._round_tputs: dict[str, float] = {}
        #: A job whose required throughput exceeds this cannot meet its
        #: deadline if co-located: the default pairwise throughput of
        #: the table the scheduler packs with.
        self._risk_tput = DEFAULT_PAIRWISE_TPUT

    def bind(self, eva: EvaScheduler) -> None:
        self._risk_tput = eva.monitor.table.default_tput

    def observe(self, observations: tuple[Observation, ...]) -> None:
        for obs in observations:
            if isinstance(obs, DeadlineApproaching):
                self._deadlines[obs.job_id] = obs.deadline_s
        self._round_tputs = {
            r.job_id: r.normalized_tput for r in throughput_reports(observations)
        }

    def pre_round(self, snapshot: ClusterSnapshot) -> None:
        self._update_progress(snapshot)
        self.urgency = self._compute_urgency(snapshot)

    def _update_progress(self, snapshot: ClusterSnapshot) -> None:
        """Integrate observed throughput into per-job work estimates.

        A job's report at this round reflects its placement over the
        just-elapsed interval, so the interval is credited at that rate;
        intervals without a report (queued, pending, straggling) accrue
        nothing — a pessimistic estimate, which can only make the policy
        act earlier, never later.
        """
        now = snapshot.time_s
        jobs = snapshot.jobs
        for job_id in [j for j in self._progress if j not in jobs]:
            del self._progress[job_id]
        for job_id, job in jobs.items():
            last_s, work_h = self._progress.get(job_id, (now, 0.0))
            rate = self._round_tputs.get(job_id, 0.0)
            if now > last_s and rate > 0.0:
                work_h = min(
                    job.duration_hours, work_h + rate * (now - last_s) / 3600.0
                )
            self._progress[job_id] = (now, work_h)

    def _compute_urgency(self, snapshot: ClusterSnapshot) -> dict[str, float]:
        """Urgency multipliers for the at-risk deadline-bearing jobs."""
        self._deadlines = {
            job_id: deadline_s
            for job_id, deadline_s in self._deadlines.items()
            if job_id in snapshot.jobs
        }
        if not self._deadlines:
            return {}
        now = snapshot.time_s
        urgency: dict[str, float] = {}
        for job_id, deadline_s in self._deadlines.items():
            job = snapshot.jobs[job_id]
            work_h = self._progress.get(job_id, (now, 0.0))[1]
            remaining_h = job.duration_hours - work_h
            if remaining_h <= 0.0:
                continue  # estimator says done; the finish is imminent
            raw_slack_h = (deadline_s - now) / 3600.0
            if remaining_h >= raw_slack_h:
                # Lost cause: even uninterrupted full-throughput
                # execution cannot finish in time.  Escalating would
                # spend money and migrations on a miss either way, so
                # the job falls back to pure cost scheduling.
                continue
            slack_h = (deadline_s - RECONFIG_HEADROOM_S - now) / 3600.0
            if slack_h <= 0.0:
                # Attainable, but only if isolation happens right now —
                # the reconfiguration headroom is already being spent.
                urgency[job_id] = MAX_URGENCY
                continue
            required = remaining_h / slack_h
            if required <= self._risk_tput:
                continue  # on track even at packed throughput
            urgency[job_id] = min(
                MAX_URGENCY, 1.0 / max(1.0 - required, 1.0 / MAX_URGENCY)
            )
        return urgency
