"""Protocol-contract rules: action and observation vocabularies, and
observation purity.

The typed action/observation protocol (:mod:`repro.core.protocol`)
gives every scheduler a declared surface:

* **action-vocabulary**: a scheduler that declares
  ``action_types = frozenset({...})`` promises the environment it will
  only ever emit those action types — the simulator and runtime master
  use the declaration for conformance checks and capability routing.  A
  construction of an undeclared action type inside the class body is a
  contract violation the dynamic check would only catch when that code
  path executes.
* **observation-vocabulary**: a scheduler that declares
  ``observation_types = frozenset({...})`` promises it reads only those
  observation kinds, and the environments build no reports or deadline
  warnings for a scheduler that leaves them out.  So a policy whose
  vocabulary leaves out ``ThroughputReport`` must not define (or
  inherit from policy code) ``on_throughput_reports``, which would
  silently never see a report, and a class must not ``isinstance``-test
  an observation type outside its vocabulary.
* **observation-purity**: information the protocol delivers through the
  observation channel must not be sniffed off the cluster snapshot.
  Concretely: policy code — schedulers and the
  :class:`~repro.core.scheduler.Signal` components Eva composes — must
  not read ``Job.deadline_hours`` (deadline pressure arrives as
  :class:`~repro.core.protocol.DeadlineApproaching` observations with a
  ``deadline_s`` payload — see :mod:`repro.core.deadline`), and must not
  reach into underscore-private attributes of non-``self`` objects
  (snapshot internals, environment state).  Purity keeps schedulers
  replayable from the recorded observation stream alone.

The rules work from the project-wide class index built by the shared
visitor pass, resolving inheritance by class name: a class is policy
code iff its base-name chain reaches ``Scheduler`` or ``Signal``, and
its effective vocabulary is the nearest declaration up that chain
(``None`` anywhere means unrestricted; a signal declares none, so only
schedulers have a vocabulary to check).
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.visitor import ClassFacts, ModuleFacts

__all__ = [
    "ClassIndex",
    "check_action_vocabulary",
    "check_observation_purity",
    "check_observation_vocabulary",
]

#: Roots of policy code — the scheduler ABC and the signal base Eva
#: composes; subclassing either (transitively) makes a class subject to
#: both contract rules.
_POLICY_ROOTS = frozenset({"Scheduler", "Signal"})

#: Snapshot attributes reserved for the observation channel, mapped to
#: the observation that carries the information.
_RESERVED_SNAPSHOT_ATTRS = {
    "deadline_hours": "DeadlineApproaching (field: deadline_s)",
}

#: Attribute-read roots that refer to the scheduler's own state.
_OWN_ROOTS = frozenset({"self", "cls"})


class ClassIndex:
    """Project-wide name → class-facts index for inheritance resolution.

    Class names are assumed unique across the scanned tree (true for
    this codebase; a collision would only blur inheritance resolution,
    never crash).
    """

    def __init__(self, modules: list[ModuleFacts]) -> None:
        self._by_name: dict[str, tuple[ClassFacts, str]] = {}
        for facts in modules:
            for cls in facts.classes:
                self._by_name.setdefault(cls.name, (cls, facts.source.path))

    def _base_chain(self, cls: ClassFacts) -> list[ClassFacts]:
        """BFS over the base-name chain, nearest bases first."""
        chain: list[ClassFacts] = []
        seen = {cls.name}
        queue = [cls]
        while queue:
            current = queue.pop(0)
            chain.append(current)
            for base in current.base_names:
                name = base.rsplit(".", maxsplit=1)[-1]
                if name in seen:
                    continue
                seen.add(name)
                entry = self._by_name.get(name)
                if entry is not None:
                    queue.append(entry[0])
        return chain

    def is_policy(self, cls: ClassFacts) -> bool:
        if cls.name in _POLICY_ROOTS:
            return False  # the roots themselves are protocol code
        chain = self._base_chain(cls)
        if any(c.name in _POLICY_ROOTS for c in chain):
            return True
        # A root may live outside the scanned tree; fall back to the
        # base *names* appearing anywhere in the chain.
        return any(
            base.rsplit(".", maxsplit=1)[-1] in _POLICY_ROOTS
            for c in chain
            for base in c.base_names
        )

    def vocabulary(
        self, cls: ClassFacts, attribute: str = "action_types"
    ) -> tuple[str, ...] | None:
        """Nearest ``attribute`` declaration up the base chain.

        Returns ``None`` (unrestricted) when no class in the chain
        declares a vocabulary, or when the nearest declaration is an
        explicit ``= None``.
        """
        for current in self._base_chain(cls):
            if attribute in current.vocabularies:
                return current.vocabularies[attribute]
        return None

    def definer(self, cls: ClassFacts, method: str) -> ClassFacts | None:
        """The nearest policy class up the base chain (``cls`` included)
        that defines ``method``; the roots' defaults do not count."""
        for current in self._base_chain(cls):
            if current.name in _POLICY_ROOTS:
                continue
            if method in current.methods:
                return current
        return None


# ---------------------------------------------------------------------------
# Rule: action-vocabulary
# ---------------------------------------------------------------------------


def check_action_vocabulary(
    facts: ModuleFacts, index: ClassIndex
) -> list[Finding]:
    """Flag action constructions outside the declared vocabulary."""
    findings: list[Finding] = []
    for cls in facts.classes:
        if not index.is_policy(cls):
            continue
        vocabulary = index.vocabulary(cls)
        if vocabulary is None:
            continue  # no declaration anywhere: unrestricted by design
        declared = set(vocabulary)
        for line, action in cls.action_constructions:
            if action in declared:
                continue
            findings.append(
                Finding(
                    rule="action-vocabulary",
                    path=facts.source.path,
                    line=line,
                    message=(
                        f"{cls.name} constructs {action} but declares "
                        f"action_types = {{{', '.join(sorted(declared))}}}; "
                        "extend the declaration or drop the action"
                    ),
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Rule: observation-vocabulary
# ---------------------------------------------------------------------------


def check_observation_vocabulary(
    facts: ModuleFacts, index: ClassIndex
) -> list[Finding]:
    """Flag report hooks and observation tests outside the declared
    observation vocabulary."""
    findings: list[Finding] = []
    for cls in facts.classes:
        if not index.is_policy(cls):
            continue
        vocabulary = index.vocabulary(cls, "observation_types")
        if vocabulary is None:
            continue  # reads every kind
        declared = set(vocabulary)
        shown = "{" + ", ".join(sorted(declared)) + "}"
        definer = index.definer(cls, "on_throughput_reports")
        if "ThroughputReport" not in declared and definer is not None:
            inherited = "" if definer is cls else f" (from {definer.name})"
            findings.append(
                Finding(
                    rule="observation-vocabulary",
                    path=facts.source.path,
                    line=cls.methods.get("on_throughput_reports", cls.line),
                    message=(
                        f"{cls.name} defines on_throughput_reports{inherited} "
                        f"but declares observation_types = {shown}, so it "
                        "is never handed a report; add ThroughputReport "
                        "or drop the hook"
                    ),
                )
            )
        for line, kind in cls.observation_tests:
            if kind in declared:
                continue
            findings.append(
                Finding(
                    rule="observation-vocabulary",
                    path=facts.source.path,
                    line=line,
                    message=(
                        f"{cls.name} tests for {kind} but declares "
                        f"observation_types = {shown}; extend the "
                        "declaration or drop the test"
                    ),
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Rule: observation-purity
# ---------------------------------------------------------------------------


def check_observation_purity(
    facts: ModuleFacts, index: ClassIndex
) -> list[Finding]:
    """Flag policy reads of snapshot state reserved for observations."""
    findings: list[Finding] = []
    for cls in facts.classes:
        if not index.is_policy(cls):
            continue
        for line, attr, root in cls.attribute_reads:
            if root in _OWN_ROOTS:
                continue
            reserved = _RESERVED_SNAPSHOT_ATTRS.get(attr)
            if reserved is not None:
                findings.append(
                    Finding(
                        rule="observation-purity",
                        path=facts.source.path,
                        line=line,
                        message=(
                            f"{cls.name} reads .{attr} off the snapshot; "
                            f"that information arrives via {reserved} "
                            "observations"
                        ),
                    )
                )
            elif (
                root
                and attr.startswith("_")
                and not attr.startswith("__")
            ):
                findings.append(
                    Finding(
                        rule="observation-purity",
                        path=facts.source.path,
                        line=line,
                        message=(
                            f"{cls.name} reads private attribute "
                            f"{root}.{attr}; policies must use the "
                            "public snapshot/observation surface"
                        ),
                    )
                )
    return findings
