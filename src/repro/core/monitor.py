"""ThroughputMonitor (§3, §4.3–§4.4).

The monitor owns the co-location throughput table and translates raw
per-job throughput reports into table updates:

* single-task jobs update their own co-location entry directly;
* multi-task jobs go through the §4.4 attribution rules, which identify a
  single entry (the likely straggler) to update so that recorded values
  remain lower bounds of the truth.

The scheduler reads estimates back through the table's
:meth:`~repro.core.throughput_table.CoLocationThroughputTable.tput` when
computing throughput-normalized reservation prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.interfaces import JobThroughputReport
from repro.core.throughput_table import CoLocationThroughputTable


@dataclass
class ThroughputMonitor:
    """Online interference learning from job throughput reports."""

    table: CoLocationThroughputTable = field(default_factory=CoLocationThroughputTable)
    #: The previous round's report objects and whether ingesting them
    #: left the table untouched — the fixpoint fast path below.
    _last_reports: tuple[JobThroughputReport, ...] = field(
        default=(), repr=False
    )
    _last_was_fixpoint: bool = field(default=False, repr=False)

    def ingest(self, reports: Sequence[JobThroughputReport]) -> None:
        """Apply a round of job throughput reports to the table.

        Fast path: when this round's reports are the *same objects* as
        last round's (steady state — the environment's placements did
        not change) and last round's ingest changed nothing, re-applying
        them is provably a no-op.  A changeless ingest means no entry
        was added (adding always changes a value: ``None != tput``) and
        no value moved, so the table state is identical to the state the
        same reports were just applied to — every §4.4 attribution rule
        takes the same branch and rewrites the same values.  The very
        tuple stored last needs no per-report comparison.
        """
        last = self._last_reports
        if self._last_was_fixpoint and (
            reports is last
            or (
                len(reports) == len(last)
                and all(a is b for a, b in zip(reports, last))
            )
        ):
            return
        version_before = self.table.version
        for report in reports:
            if report.is_multi_task:
                self.table.observe_multi_task_job(
                    report.placements, report.normalized_tput
                )
            elif report.placements:
                self.table.observe_single_task_job(
                    report.placements[0], report.normalized_tput
                )
        self._last_reports = tuple(reports)
        self._last_was_fixpoint = self.table.version == version_before
