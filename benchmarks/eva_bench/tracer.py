"""Outside-in tracer: spans and counters at the Eva simulator's call boundaries.

Nothing in ``src/`` knows about it.  :meth:`Tracer.installed` replaces a
name where its caller looks it up — a module global or a class attribute
— with a wrapper, and puts the original back on exit, also when the
simulation raises.  A span is recorded per call of a per-round boundary;
calls made many times per round (memo lookups) are counted, not spanned.

While the simulation runs, a span is only its name, start and end: the
cheapest rounds cost about 20 µs, so the wrapper does no more than read
the clock twice.  :meth:`Tracer.spans` then gives each span as a
:class:`Span` ``(id, parent, name, start, end, round)``: calls on one
thread nest, so a span's parent is the innermost span that was open when
it started, and ``round``, the index of the scheduling round (the request
id), counts the ``scheduler.decide`` calls begun by then (-1 before the
first).  Spans stay in memory until :func:`write_jsonl`.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple

_MISSING = object()
#: Slack for float rounding when checking that spans nest.
_TOLERANCE_S = 1e-9
#: The span whose calls start the scheduling rounds.
ROUND_SPAN = "scheduler.decide"


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    round: int


class Tracer:
    def __init__(self):
        #: Name, start and end of every span, one after the other.  A flat
        #: list of strings and numbers holds no objects the garbage
        #: collector tracks, where a tuple per span would make each of its
        #: collections scan tens of thousands more objects.
        self._fields: list = []
        self.counts: Counter[str] = Counter()
        #: Calls and hits of each :meth:`counter`.
        self.tallies: dict[str, list[int]] = {}
        #: Tasks handed to each Algorithm 1 call from the scheduler: the
        #: pool size that Table 5 of the paper scales.
        self.pool_sizes: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, wrap: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``wrap(original)`` until :meth:`restore`."""
        saved = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, saved))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)  # the name was inherited: drop the override
            else:
                setattr(owner, attr, saved)

    def span(
        self, name: str, after: Callable[[tuple, Any], None] | None = None
    ) -> Callable[[Callable], Callable]:
        """A ``wrap`` for :meth:`patch` that records one span per call,
        then calls ``after(args, result)`` outside the span."""

        def wrap(fn: Callable) -> Callable:
            record, clock = self._fields.extend, time.perf_counter

            def traced(*args, **kwargs):
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record((name, start, clock()))
                if after is not None:
                    after(args, result)
                return result

            return traced

        return wrap

    def counter(self, name: str) -> Callable[[Callable], Callable]:
        """A ``wrap`` counting calls, and hits (results other than None),
        in ``tallies[name]``.

        It takes positional arguments only and keeps the tally in a list,
        which costs a third of a generic wrapper: memo lookups run tens of
        thousands of times per simulation.
        """
        tally = self.tallies.setdefault(name, [0, 0])

        def wrap(fn: Callable) -> Callable:
            def counted(*args):
                result = fn(*args)
                tally[0] += 1
                if result is not None:
                    tally[1] += 1
                return result

            return counted

        return wrap

    # ------------------------------------------------------------------
    # The Eva layer map
    # ------------------------------------------------------------------
    @contextmanager
    def installed(self, sim: Any) -> Iterator["Tracer"]:
        """Trace the layers below ``sim.run()``, then restore.

        The caller spans ``run()`` itself as ``sim.run``.
        """
        import repro.core.full_reconfig as full_reconfig
        import repro.core.interfaces as interfaces
        import repro.core.market as market
        import repro.core.partial_reconfig as partial_reconfig
        import repro.core.scheduler as eva_scheduler

        scheduler = sim.scheduler

        def packed(args: tuple, result: Any) -> None:
            self.pool_sizes.append(len(args[0]))  # (tasks, catalog, evaluator)

        def adopted(args: tuple, result: Any) -> None:
            self.counts["ensemble.adopted_full"] += result[1].adopted_full

        def actions(args: tuple, result: Any) -> None:
            self.counts["protocol.actions"] += len(args[1].actions)  # (env, decision)

        # Methods are patched on the classes of the objects in hand, so
        # the objects themselves (and their attribute-dict layout) stay as
        # the untraced run has them.  One simulation runs per process, so
        # the class scope is exactly this run.
        try:
            self.patch(
                type(sim._env), "execute", self.span("protocol.execute", actions)
            )
            self.patch(type(scheduler), "decide", self.span(ROUND_SPAN))
            if hasattr(scheduler, "make_evaluator"):
                self.patch(
                    type(scheduler),
                    "make_evaluator",
                    self.span("scheduler.make_evaluator"),
                )
            if hasattr(scheduler, "monitor"):
                self.patch(
                    type(scheduler.monitor), "ingest", self.span("monitor.ingest")
                )
            if hasattr(scheduler, "policy"):
                self.patch(
                    type(scheduler.policy), "decide", self.span("ensemble", adopted)
                )
            for module in (eva_scheduler, interfaces):
                self.patch(module, "diff_target", self.span("protocol.diff_target"))
            self.patch(
                eva_scheduler,
                "full_reconfiguration",
                self.span("full_reconfig", packed),
            )
            self.patch(
                eva_scheduler, "match_existing_instances", self.span("full_reconfig.match")
            )
            self.patch(
                eva_scheduler,
                "partial_reconfiguration",
                self.span("partial_reconfig"),
            )
            self.patch(
                partial_reconfig,
                "full_reconfiguration",
                self.span("partial_reconfig.leftover_full"),
            )
            self.patch(full_reconfig.PackMemo, "get", self.counter("packing_memo"))
            self.patch(full_reconfig.PackMemo, "get_pack", self.counter("pack_memo"))
            self.patch(
                market, "ReservationPriceCalculator", self.counter("rp.calculators")
            )
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Every span recorded so far, in order of start, with its parent
        and round worked out from the nesting (see the module docstring)."""
        fields = self._fields
        # By start, and the outer of two spans that start together first.
        raw = sorted(
            (fields[i + 1], -fields[i + 2], fields[i]) for i in range(0, len(fields), 3)
        )
        round_starts = [start for start, _, name in raw if name == ROUND_SPAN]
        spans: list[Span] = []
        open_spans: list[Span] = []
        for index, (start, neg_end, name) in enumerate(raw):
            while open_spans and open_spans[-1].end <= start:
                open_spans.pop()
            span = Span(
                index,
                open_spans[-1].id if open_spans else -1,
                name,
                start,
                -neg_end,
                bisect_right(round_starts, start) - 1,
            )
            spans.append(span)
            open_spans.append(span)
        return spans


def write_jsonl(spans: list[Span], path) -> None:
    """Write ``spans`` as JSON lines, times relative to the first start."""
    origin = min((s.start for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as out:
        for s in spans:
            record = s._asdict()
            record["start"] = s.start - origin
            record["end"] = s.end - origin
            out.write(json.dumps(record) + "\n")


def round_marks(spans: list[Span]) -> list[float]:
    """The clock marks an untraced run records: the start of ``sim.run``,
    the start and end of every round's ``decide``, and the end of
    ``sim.run``."""
    run = next(s for s in spans if s.name == "sim.run")
    marks = [run.start]
    for s in spans:
        if s.name == ROUND_SPAN:
            marks += (s.start, s.end)
    marks.append(run.end)
    return marks


def _child_time(spans: list[Span]) -> Counter[int]:
    """Span id -> summed duration of its direct children."""
    child_time: Counter[int] = Counter()
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    return child_time


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, minus the time of each span's direct children."""
    child_time = _child_time(spans)
    totals: Counter[str] = Counter()
    for s in spans:
        totals[s.name] += (s.end - s.start) - child_time[s.id]
    return dict(totals)


def layer_metrics(
    tracer: Tracer, spans: list[Span], sim: Any, result: Any
) -> dict[str, float]:
    """The per-layer metrics of one traced ``run()``.

    Layer times are self times as a share of the traced ``run()`` (whose
    seconds are ``sim.run_s``), so they sum to 1 over ``sim.self_share``
    and every other ``*_share``.  Ratios name their base in the README.
    """
    from repro.core.scheduler import EvaScheduler

    pools = tracer.pool_sizes
    self_s = self_times(spans)
    calls = Counter(s.name for s in spans)
    counts = tracer.counts
    packing_memo, pack_memo, calculators = (
        tracer.tallies.get(name, [0, 0])
        for name in ("packing_memo", "pack_memo", "rp.calculators")
    )
    run_s = next(s.end - s.start for s in spans if s.name == "sim.run")
    rounds = result.scheduling_rounds
    # A round is computed when the scheduler reconfigures in it; Eva's
    # round memo serves the others.
    computed = len(
        {s.round for s in spans if s.name in ("full_reconfig", "partial_reconfig")}
    )

    def share(name: str) -> float:
        return self_s.get(name, 0.0) / run_s

    def ratio(hits: float, base: float) -> float:
        return hits / base if base else 0.0

    return {
        "sim.run_s": run_s,
        "sim.events": sim.events_dispatched,
        "sim.rounds": rounds,
        "sim.self_share": share("sim.run"),
        "sim.self_us_per_event": 1e6 * self_s["sim.run"] / sim.events_dispatched,
        "scheduler.self_share": share(ROUND_SPAN),
        "scheduler.computed_rounds": computed,
        # Only Eva has a round memo.
        "scheduler.round_memo_hit_ratio": (
            ratio(rounds - computed, rounds)
            if isinstance(sim.scheduler, EvaScheduler)
            else 0.0
        ),
        "scheduler.make_evaluator_share": share("scheduler.make_evaluator"),
        "monitor.ingest_share": share("monitor.ingest"),
        "full_reconfig.calls": calls["full_reconfig"],
        "full_reconfig.share": share("full_reconfig"),
        "full_reconfig.tasks_mean": ratio(sum(pools), len(pools)),
        "full_reconfig.tasks_peak": max(pools, default=0),
        "full_reconfig.packing_memo_hit_ratio": ratio(packing_memo[1], packing_memo[0]),
        "full_reconfig.pack_attempts": pack_memo[0],
        "full_reconfig.pack_memo_hit_ratio": ratio(pack_memo[1], pack_memo[0]),
        "full_reconfig.match_share": share("full_reconfig.match"),
        "partial_reconfig.self_share": share("partial_reconfig"),
        "partial_reconfig.leftover_full_share": share(
            "partial_reconfig.leftover_full"
        ),
        "ensemble.share": share("ensemble"),
        "ensemble.calls": calls["ensemble"],
        "ensemble.full_adoption_ratio": ratio(
            counts["ensemble.adopted_full"], calls["ensemble"]
        ),
        "protocol.diff_target_share": share("protocol.diff_target"),
        "protocol.execute_share": share("protocol.execute"),
        "protocol.actions": counts["protocol.actions"],
        "rp.calculators": calculators[0],
        "market.price_changes": result.price_changes,
        "sim.preemptions": result.preemptions,
    }


def span_problems(spans: list[Span]) -> list[str]:
    """Spans that end before they start, sit outside their parent, or have
    negative self time; an empty list means the trace is well formed."""
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.id} ({s.name}) ends before it starts")
        if s.parent < 0:
            continue
        parent = by_id.get(s.parent)
        if parent is None:
            problems.append(f"span {s.id} ({s.name}) has no parent {s.parent}")
        elif s.start < parent.start - _TOLERANCE_S or s.end > parent.end + _TOLERANCE_S:
            problems.append(
                f"span {s.id} ({s.name}) lies outside its parent {parent.name}"
            )
    child_time = _child_time(spans)
    for s in spans:
        if (s.end - s.start) - child_time[s.id] < -_TOLERANCE_S:
            problems.append(f"span {s.id} ({s.name}) has negative self time")
    return problems
