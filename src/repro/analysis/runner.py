"""Orchestration for the determinism & invariant linter.

One :func:`run_analysis` call:

1. parses every ``.py`` file under ``src/repro`` (one shared visitor
   pass per file — see :mod:`repro.analysis.visitor`),
2. applies the AST rules (:mod:`repro.analysis.determinism`,
   :mod:`repro.analysis.contracts`) and the runtime rules
   (:mod:`repro.analysis.coverage`),
3. filters findings through per-line ``# eva: allow[rule] -- reason``
   suppressions (unused suppressions and malformed comments become
   findings themselves), and
4. splits the result against the checked-in baseline
   (``tests/data/analysis_baseline.json``; kept empty) into *new* and
   *stale* sets.

The gate (CI's ``invariant-lint`` job, ``tests/test_static_analysis.py``)
fails on any *new* finding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.contracts import (
    ClassIndex,
    check_action_vocabulary,
    check_observation_purity,
    check_observation_vocabulary,
)
from repro.analysis.coverage import (
    check_fingerprint_coverage,
    check_pickle_omission,
    default_coverage_targets,
)
from repro.analysis.determinism import (
    check_banned_calls,
    check_unordered_iteration,
)
from repro.analysis.findings import (
    Finding,
    SuppressionIndex,
    baseline_delta,
    load_baseline,
)
from repro.analysis.visitor import ModuleFacts, SourceFile, collect_facts

__all__ = [
    "AnalysisReport",
    "default_baseline_path",
    "default_source_root",
    "render_json",
    "render_text",
    "run_analysis",
]


def default_source_root() -> Path:
    """``src/repro`` of this checkout (the package's own location)."""
    return Path(__file__).resolve().parent.parent


def default_baseline_path() -> Path:
    """``tests/data/analysis_baseline.json`` of this checkout."""
    repo_root = default_source_root().parent.parent
    return repo_root / "tests" / "data" / "analysis_baseline.json"


@dataclass
class AnalysisReport:
    """Everything one linter run produced."""

    #: All post-suppression findings, sorted by location.
    findings: list[Finding] = field(default_factory=list)
    #: Findings not covered by the baseline — these fail the gate.
    new: list[Finding] = field(default_factory=list)
    #: Baseline entries no longer observed — delete them.
    stale: list[Finding] = field(default_factory=list)
    #: Files that failed to parse (path → error).
    parse_errors: dict[str, str] = field(default_factory=dict)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.new and not self.parse_errors


def _iter_source_files(source_root: Path) -> list[tuple[Path, str]]:
    """(absolute path, repo-relative display path) for every package file."""
    pairs: list[tuple[Path, str]] = []
    for file_path in sorted(source_root.rglob("*.py")):
        relative = file_path.relative_to(source_root).as_posix()
        pairs.append((file_path, f"src/repro/{relative}"))
    return pairs


def run_analysis(
    source_root: Path | None = None,
    baseline_path: Path | None = None,
    runtime_rules: bool = True,
) -> AnalysisReport:
    """Run every rule over the tree; see module docstring.

    ``runtime_rules=False`` skips the import-and-execute rules
    (fingerprint coverage, pickle omission) — used by unit tests that
    exercise the AST rules against crafted fixtures.
    """
    root = source_root if source_root is not None else default_source_root()
    report = AnalysisReport()

    modules: list[ModuleFacts] = []
    suppressions: dict[str, SuppressionIndex] = {}
    for file_path, display in _iter_source_files(root):
        try:
            source = SourceFile.load(file_path, display)
        except SyntaxError as exc:
            report.parse_errors[display] = f"{type(exc).__name__}: {exc.msg}"
            continue
        modules.append(collect_facts(source))
        suppressions[display] = source.suppressions
    report.files_scanned = len(modules)

    raw: list[Finding] = []
    index = ClassIndex(modules)
    for facts in modules:
        raw.extend(check_unordered_iteration(facts))
        raw.extend(check_banned_calls(facts))
        raw.extend(check_action_vocabulary(facts, index))
        raw.extend(check_observation_purity(facts, index))
        raw.extend(check_observation_vocabulary(facts, index))
    if runtime_rules:
        raw.extend(check_fingerprint_coverage(default_coverage_targets()))
        raw.extend(check_pickle_omission())

    kept: list[Finding] = []
    for finding in raw:
        sup = suppressions.get(finding.path)
        if sup is not None and sup.suppresses(finding):
            continue
        kept.append(finding)
    for display, sup in suppressions.items():
        kept.extend(sup.errors)
        kept.extend(sup.unused_findings(display))

    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    report.findings = kept
    baseline = load_baseline(
        baseline_path if baseline_path is not None else default_baseline_path()
    )
    report.new, report.stale = baseline_delta(kept, baseline)
    return report


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


def render_text(report: AnalysisReport) -> str:
    lines: list[str] = []
    for path, error in sorted(report.parse_errors.items()):
        lines.append(f"{path}: parse error: {error}")
    for finding in report.findings:
        marker = "NEW " if any(f is finding for f in report.new) else ""
        lines.append(f"{marker}{finding.render()}")
    for entry in report.stale:
        lines.append(f"stale baseline entry: [{entry.rule}] {entry.path}: {entry.message}")
    lines.append(
        f"{len(report.findings)} finding(s) "
        f"({len(report.new)} new, {len(report.stale)} stale baseline) "
        f"across {report.files_scanned} file(s)"
    )
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    payload = {
        "files_scanned": report.files_scanned,
        "parse_errors": report.parse_errors,
        "findings": [f.as_dict() for f in report.findings],
        "new": [f.as_dict() for f in report.new],
        "stale": [f.as_dict() for f in report.stale],
        "ok": report.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
