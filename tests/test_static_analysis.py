"""Tests for the determinism & invariant linter (``repro.analysis``).

Covers all seven rule classes with crafted positive/negative sources,
suppression-comment parsing, baseline matching, the seeded historical
bug classes from the acceptance criteria (unsorted frozenset iteration
in a packing tie-break; a Scenario field missing from the fingerprint),
and — as the tier-1 gate — a full run over the real tree that must
produce zero findings outside the (empty) baseline.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, replace

import pytest

from repro.analysis.contracts import (
    ClassIndex,
    check_action_vocabulary,
    check_observation_purity,
    check_observation_vocabulary,
)
from repro.analysis.coverage import (
    CoverageTarget,
    check_fingerprint_coverage,
    check_pickle_omission,
    default_coverage_targets,
)
from repro.analysis.determinism import (
    check_banned_calls,
    check_unordered_iteration,
)
from repro.analysis.findings import Finding, baseline_delta
from repro.analysis.runner import run_analysis
from repro.analysis.visitor import ModuleFacts, SourceFile, collect_facts
from repro.sim.fingerprint import fingerprint

CORE_PATH = "src/repro/core/_fixture.py"


def _facts(source: str, path: str = CORE_PATH) -> ModuleFacts:
    return collect_facts(SourceFile.from_text(textwrap.dedent(source), path))


def _run_ast_rules(source: str, path: str = CORE_PATH) -> list[Finding]:
    """All four AST rules + suppression filtering, like the runner."""
    facts = _facts(source, path)
    index = ClassIndex([facts])
    raw = (
        check_unordered_iteration(facts)
        + check_banned_calls(facts)
        + check_action_vocabulary(facts, index)
        + check_observation_purity(facts, index)
    )
    kept = [f for f in raw if not facts.source.suppressions.suppresses(f)]
    kept.extend(facts.source.suppressions.errors)
    kept.extend(facts.source.suppressions.unused_findings(path))
    return kept


def _rules(findings: list[Finding]) -> set[str]:
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# Rule 1: unordered-iteration
# ---------------------------------------------------------------------------


class TestUnorderedIteration:
    @pytest.mark.parametrize(
        "body",
        [
            "for x in {1, 2, 3}:\n    use(x)",
            "for x in frozenset(items):\n    use(x)",
            "for x in mapping.keys():\n    use(x)",
            "out = [f(x) for x in set(items)]",
            "out = {x: f(x) for x in set(items)}",
            "best = max(frozenset(items))",
            "worst = min(st.task_ids)",
            "ordered = list({1, 2})",
            "total = sum(set(values))",
        ],
    )
    def test_positive(self, body: str) -> None:
        findings = _run_ast_rules(f"def f(items, mapping, st, values):\n"
                                  + textwrap.indent(textwrap.dedent(body), "    "))
        assert "unordered-iteration" in _rules(findings), body

    @pytest.mark.parametrize(
        "body",
        [
            # sorted() imposes an order.
            "for x in sorted({1, 2, 3}):\n    use(x)",
            "out = sorted(f(x) for x in set(items))",
            "best = max(sorted(st.task_ids))",
            # Order-insensitive consumers.
            "out = frozenset(f(x) for x in st.task_ids)",
            "out = {f(x) for x in set(items)}",
            "flag = any(x > 1 for x in frozenset(items))",
            "n = len(st.task_ids)",
            # Lists/dicts iterate deterministically.
            "for x in [1, 2, 3]:\n    use(x)",
            "for k, v in mapping.items():\n    use(k)",
        ],
    )
    def test_negative(self, body: str) -> None:
        findings = _run_ast_rules(f"def f(items, mapping, st, values):\n"
                                  + textwrap.indent(textwrap.dedent(body), "    "))
        assert "unordered-iteration" not in _rules(findings), body

    def test_local_assignment_flow(self) -> None:
        source = """
        def f(items):
            pool = frozenset(items)
            return [g(x) for x in pool]
        """
        assert "unordered-iteration" in _rules(_run_ast_rules(source))

    def test_isinstance_narrowing(self) -> None:
        source = """
        def f(value):
            if isinstance(value, (set, frozenset)):
                return [g(x) for x in value]
            return [g(x) for x in value]
        """
        findings = [
            f for f in _run_ast_rules(source) if f.rule == "unordered-iteration"
        ]
        assert len(findings) == 1  # only the narrowed branch fires

    def test_out_of_scope_path_is_exempt(self) -> None:
        source = "def f(items):\n    return [g(x) for x in set(items)]\n"
        assert _run_ast_rules(source, path="src/repro/workloads/x.py") == []

    def test_seeded_packing_tie_break_bug_fails_gate(self) -> None:
        """Acceptance criterion: the PR 1 bug class must be caught."""
        source = """
        def pick_candidate(candidates, score):
            pool = frozenset(candidates)
            return max(pool, key=score)
        """
        findings = _run_ast_rules(source, path="src/repro/core/packing.py")
        assert _rules(findings) == {"unordered-iteration"}


# ---------------------------------------------------------------------------
# Rule 2: banned-call
# ---------------------------------------------------------------------------


class TestBannedCalls:
    @pytest.mark.parametrize(
        "body",
        [
            "t = time.time()",
            "t = time.time_ns()",
            "r = random.random()",
            "r = random.randint(0, 10)",
            "h = hash(key)",
            "h = id(obj)",
            "u = uuid.uuid4()",
            "b = os.urandom(8)",
            "x = np.random.rand(3)",
            "np.random.seed(0)",
        ],
    )
    def test_positive(self, body: str) -> None:
        findings = _run_ast_rules(f"def f(key, obj):\n    {body}")
        assert "banned-call" in _rules(findings), body

    @pytest.mark.parametrize(
        "body",
        [
            "t = time.perf_counter()",
            "rng = np.random.default_rng(seed)",
            "ss = np.random.SeedSequence(seed)",
            "rng = random.Random(seed)",
        ],
    )
    def test_negative(self, body: str) -> None:
        findings = _run_ast_rules(f"def f(seed):\n    {body}")
        assert "banned-call" not in _rules(findings), body

    def test_hash_allowed_only_inside_dunder_hash(self) -> None:
        source = """
        class Thing:
            def __hash__(self):
                return hash(self.stable_id)

            def bucket(self):
                return hash(self.stable_id) % 8
        """
        findings = [f for f in _run_ast_rules(source) if f.rule == "banned-call"]
        assert len(findings) == 1  # only bucket() fires


# ---------------------------------------------------------------------------
# Rule 5: action-vocabulary
# ---------------------------------------------------------------------------

_SCHEDULER_PREAMBLE = """
        class Scheduler:
            action_types = None
"""


class TestActionVocabulary:
    def test_positive_undeclared_construction(self) -> None:
        source = _SCHEDULER_PREAMBLE + """
        class TightScheduler(Scheduler):
            action_types = frozenset({LaunchInstance, AssignTask})

            def schedule(self, snapshot):
                return [MigrateTask(task_id="t", instance_id="i")]
        """
        findings = _run_ast_rules(source)
        assert "action-vocabulary" in _rules(findings)
        assert "MigrateTask" in findings[0].message

    def test_negative_declared_construction(self) -> None:
        source = _SCHEDULER_PREAMBLE + """
        class TightScheduler(Scheduler):
            action_types = frozenset({LaunchInstance, AssignTask})

            def schedule(self, snapshot):
                return [AssignTask(task_id="t", instance_id="i")]
        """
        assert "action-vocabulary" not in _rules(_run_ast_rules(source))

    def test_vocabulary_inherited_from_base(self) -> None:
        source = _SCHEDULER_PREAMBLE + """
        class BaseScheduler(Scheduler):
            action_types = frozenset({AssignTask})

        class ChildScheduler(BaseScheduler):
            def schedule(self, snapshot):
                return [TerminateInstance(instance_id="i")]
        """
        findings = _run_ast_rules(source)
        assert "action-vocabulary" in _rules(findings)
        assert "ChildScheduler" in findings[0].message

    def test_no_declaration_means_unrestricted(self) -> None:
        source = _SCHEDULER_PREAMBLE + """
        class OpenScheduler(Scheduler):
            def schedule(self, snapshot):
                return [MigrateTask(task_id="t", instance_id="i")]
        """
        assert "action-vocabulary" not in _rules(_run_ast_rules(source))

    def test_non_scheduler_classes_exempt(self) -> None:
        source = """
        class Environment:
            action_types = frozenset({AssignTask})

            def replay(self):
                return [MigrateTask(task_id="t", instance_id="i")]
        """
        assert "action-vocabulary" not in _rules(_run_ast_rules(source))


# ---------------------------------------------------------------------------
# Rule 6: observation-purity
# ---------------------------------------------------------------------------


class TestObservationPurity:
    @pytest.mark.parametrize("base", ["Scheduler", "Signal"])
    def test_positive_deadline_sniffing(self, base) -> None:
        source = _SCHEDULER_PREAMBLE + f"""
        class Signal:
            pass

        class Sniffer({base}):
            def decide(self, snapshot, observations):
                for job in snapshot.jobs:
                    if job.deadline_hours is not None:
                        self.escalate(job)
        """
        findings = _run_ast_rules(source)
        assert "observation-purity" in _rules(findings)
        assert "DeadlineApproaching" in findings[0].message

    def test_positive_private_snapshot_access(self) -> None:
        source = _SCHEDULER_PREAMBLE + """
        class Reacher(Scheduler):
            def schedule(self, snapshot):
                return snapshot._instances
        """
        assert "observation-purity" in _rules(_run_ast_rules(source))

    def test_negative_own_state_and_observations(self) -> None:
        source = _SCHEDULER_PREAMBLE + """
        class Clean(Scheduler):
            def observe(self, observations):
                for obs in observations:
                    self._deadlines[obs.job_id] = obs.deadline_s

            def schedule(self, snapshot):
                self._memo = self._memo or {}
                return list(self._deadlines)
        """
        assert "observation-purity" not in _rules(_run_ast_rules(source))

    def test_negative_non_scheduler_reads_freely(self) -> None:
        source = """
        class TraceBuilder:
            def attach(self, job):
                return job.deadline_hours
        """
        assert "observation-purity" not in _rules(_run_ast_rules(source))


# ---------------------------------------------------------------------------
# Rule 7: observation-vocabulary
# ---------------------------------------------------------------------------

_OBSERVING_PREAMBLE = """
        class Scheduler:
            observation_types = None

            def on_throughput_reports(self, reports):
                pass
"""


def _observation_vocabulary_findings(source: str) -> list[Finding]:
    facts = _facts(source)
    return check_observation_vocabulary(facts, ClassIndex([facts]))


class TestObservationVocabulary:
    def test_positive_report_hook_without_reports(self) -> None:
        source = _OBSERVING_PREAMBLE + """
        class Deaf(Scheduler):
            observation_types = frozenset({JobArrived})

            def on_throughput_reports(self, reports):
                self.seen = reports
        """
        findings = _observation_vocabulary_findings(source)
        assert _rules(findings) == {"observation-vocabulary"}
        assert "on_throughput_reports" in findings[0].message
        # Reported at Deaf's own hook, the last one in the source.
        lines = textwrap.dedent(source).splitlines()
        assert findings[0].line == max(
            n for n, text in enumerate(lines, 1) if "def on_throughput" in text
        )

    def test_positive_report_hook_inherited_from_policy(self) -> None:
        source = _OBSERVING_PREAMBLE + """
        class Listener(Scheduler):
            def on_throughput_reports(self, reports):
                self.seen = reports

        class Deaf(Listener):
            observation_types = frozenset()
        """
        findings = _observation_vocabulary_findings(source)
        assert len(findings) == 1
        assert "Deaf" in findings[0].message
        assert "from Listener" in findings[0].message

    def test_positive_test_outside_vocabulary(self) -> None:
        source = _OBSERVING_PREAMBLE + """
        class Narrow(Scheduler):
            observation_types = frozenset({ThroughputReport})

            def observe(self, observations):
                for obs in observations:
                    if isinstance(obs, (ThroughputReport, protocol.PriceChanged)):
                        self.seen = obs
        """
        findings = _observation_vocabulary_findings(source)
        assert len(findings) == 1
        assert "PriceChanged" in findings[0].message

    def test_negative_declared_kinds(self) -> None:
        source = _OBSERVING_PREAMBLE + """
        class Reader(Scheduler):
            observation_types = frozenset({ThroughputReport, JobArrived})

            def on_throughput_reports(self, reports):
                self.seen = reports

            def observe(self, observations):
                return [o for o in observations if isinstance(o, JobArrived)]
        """
        assert _observation_vocabulary_findings(source) == []

    def test_negative_unrestricted_and_root_default(self) -> None:
        """No declaration, or ``None``, reads everything; the root's
        no-op default hook is not a definition to flag."""
        source = _OBSERVING_PREAMBLE + """
        class Open(Scheduler):
            def on_throughput_reports(self, reports):
                self.seen = reports

        class Explicit(Open):
            observation_types = None

            def observe(self, observations):
                return [o for o in observations if isinstance(o, PriceChanged)]

        class Deaf(Scheduler):
            observation_types = frozenset()
        """
        assert _observation_vocabulary_findings(source) == []

    def test_non_policy_classes_exempt(self) -> None:
        source = """
        class Recorder:
            observation_types = frozenset()

            def on_throughput_reports(self, reports):
                return [r for r in reports if isinstance(r, ThroughputReport)]
        """
        assert _observation_vocabulary_findings(source) == []


# ---------------------------------------------------------------------------
# Rule 3: fingerprint-coverage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LeakyConfig:
    """Fixture: ``knob_b`` was added but the hook never learned of it."""

    knob_a: int = 1
    knob_b: int = 2

    def __fingerprint__(self) -> dict:
        return {"knob_a": self.knob_a}


@dataclass(frozen=True)
class _CoveredConfig:
    knob_a: int = 1
    label: str = "x"

    def fingerprint(self) -> str:
        return fingerprint(replace(self, label="x"))


class TestFingerprintCoverage:
    def test_broken_fixture_fires(self) -> None:
        findings = check_fingerprint_coverage(
            [CoverageTarget(cls=_LeakyConfig, sample=_LeakyConfig)]
        )
        assert [f.rule for f in findings] == ["fingerprint-coverage"]
        assert "knob_b" in findings[0].message

    def test_covered_fields_pass(self) -> None:
        findings = check_fingerprint_coverage(
            [
                CoverageTarget(
                    cls=_CoveredConfig,
                    sample=_CoveredConfig,
                    excluded=frozenset({"label"}),
                )
            ]
        )
        assert findings == []

    def test_seeded_scenario_exclusion_bug_fails_gate(self) -> None:
        """Acceptance criterion: a Scenario field missing from the
        fingerprint (here: ``label`` stripped but *not* declared
        excluded) must fire."""
        findings = check_fingerprint_coverage(
            [CoverageTarget(cls=_CoveredConfig, sample=_CoveredConfig)]
        )
        assert [f.rule for f in findings] == ["fingerprint-coverage"]
        assert "label" in findings[0].message

    def test_stale_exclusion_fires(self) -> None:
        findings = check_fingerprint_coverage(
            [
                CoverageTarget(
                    cls=_CoveredConfig,
                    sample=_CoveredConfig,
                    excluded=frozenset({"label", "ghost"}),
                )
            ]
        )
        assert any("ghost" in f.message for f in findings)

    def test_missing_candidate_fires(self) -> None:
        @dataclass(frozen=True)
        class Opaque:
            payload: tuple = ()

        findings = check_fingerprint_coverage(
            [CoverageTarget(cls=Opaque, sample=Opaque)]
        )
        assert any("perturbation candidate" in f.message for f in findings)

    def test_real_config_classes_are_covered(self) -> None:
        assert check_fingerprint_coverage(default_coverage_targets()) == []


# ---------------------------------------------------------------------------
# Rule 4: pickle-default-omission
# ---------------------------------------------------------------------------


class TestPickleOmission:
    def test_real_tree_is_clean(self) -> None:
        assert check_pickle_omission() == []

    def test_unomitted_new_field_fires(self, monkeypatch: pytest.MonkeyPatch) -> None:
        import repro.analysis.coverage as coverage

        monkeypatch.setattr(
            coverage,
            "LEGACY_RESULT_FIELDS",
            coverage.LEGACY_RESULT_FIELDS - {"preemptions"},
        )
        findings = check_pickle_omission()
        assert any(
            f.rule == "pickle-default-omission" and "preemptions" in f.message
            for f in findings
        )

    def test_record_shape_drift_fires(self, monkeypatch: pytest.MonkeyPatch) -> None:
        import repro.analysis.coverage as coverage

        pins = dict(coverage.PINNED_RECORD_FIELDS)
        pins["RepairOutcome"] = ("job_id", "failed_s")
        monkeypatch.setattr(coverage, "PINNED_RECORD_FIELDS", pins)
        findings = check_pickle_omission()
        assert any("RepairOutcome" in f.message for f in findings)


# ---------------------------------------------------------------------------
# Suppressions & baseline
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_same_line_suppression_silences(self) -> None:
        source = (
            "def f(items):\n"
            "    return [g(x) for x in set(items)]"
            "  # eva: allow[unordered-iteration] -- g() is commutative here\n"
        )
        assert _run_ast_rules(source) == []

    def test_standalone_line_above_suppresses(self) -> None:
        source = (
            "def f(items):\n"
            "    # eva: allow[unordered-iteration] -- order-free accumulation\n"
            "    return [g(x) for x in set(items)]\n"
        )
        assert _run_ast_rules(source) == []

    def test_missing_reason_is_a_finding(self) -> None:
        source = (
            "def f(items):\n"
            "    return [g(x) for x in set(items)]"
            "  # eva: allow[unordered-iteration]\n"
        )
        rules = _rules(_run_ast_rules(source))
        # The malformed escape does not silence the finding it targets.
        assert rules == {"suppression-syntax", "unordered-iteration"}

    def test_wrong_rule_does_not_suppress(self) -> None:
        source = (
            "def f(items):\n"
            "    return [g(x) for x in set(items)]"
            "  # eva: allow[banned-call] -- wrong rule\n"
        )
        rules = _rules(_run_ast_rules(source))
        assert "unordered-iteration" in rules
        assert "unused-suppression" in rules

    def test_unused_suppression_is_a_finding(self) -> None:
        source = (
            "def f(items):\n"
            "    return sorted(items)"
            "  # eva: allow[unordered-iteration] -- stale escape\n"
        )
        assert _rules(_run_ast_rules(source)) == {"unused-suppression"}

    def test_string_literals_are_not_suppressions(self) -> None:
        source = (
            "def f(items):\n"
            '    doc = "# eva: allow[unordered-iteration] -- not a comment"\n'
            "    return [g(x) for x in set(items)]\n"
        )
        assert "unordered-iteration" in _rules(_run_ast_rules(source))


class TestBaseline:
    def test_multiset_matching(self) -> None:
        finding = Finding(rule="r", path="p.py", line=3, message="m")
        twin = Finding(rule="r", path="p.py", line=9, message="m")
        new, stale = baseline_delta([finding, twin], [finding])
        assert new == [twin]  # one baseline slot covers one occurrence
        assert stale == []

    def test_line_numbers_do_not_matter(self) -> None:
        old = Finding(rule="r", path="p.py", line=3, message="m")
        moved = Finding(rule="r", path="p.py", line=300, message="m")
        new, stale = baseline_delta([moved], [old])
        assert new == [] and stale == []

    def test_stale_entries_reported(self) -> None:
        gone = Finding(rule="r", path="p.py", line=3, message="m")
        new, stale = baseline_delta([], [gone])
        assert new == [] and stale == [gone]


# ---------------------------------------------------------------------------
# The tier-1 gate: the real tree is clean
# ---------------------------------------------------------------------------


class TestRepositoryGate:
    def test_full_tree_has_no_new_findings(self) -> None:
        report = run_analysis()
        assert report.parse_errors == {}
        assert report.new == [], "\n".join(f.render() for f in report.new)
        assert report.stale == [], "stale baseline entries should be deleted"
        assert report.files_scanned > 50
