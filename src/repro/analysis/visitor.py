"""Shared single-pass AST visitor and the facts it extracts.

Every AST-based rule in :mod:`repro.analysis` consumes the output of ONE
walk over each source file — a :class:`ModuleFacts` record — instead of
re-traversing the tree per rule.  The walk collects:

* **Iteration events** — every spot whose behaviour depends on the
  iteration order of its iterable (``for`` statements, comprehension
  generators, order-sensitive consumer calls like ``max``/``min``/
  ``list``/``tuple``/``sum``), together with whether the iterable is
  *statically known to be set-typed* and whether the surrounding context
  is order-insensitive (``sorted``/``set``/``frozenset``/``any``/``all``
  consumers, set comprehensions).
* **Call events** — every call with a resolvable dotted name, for the
  banned-nondeterminism rule.
* **Class facts** — every class definition with its base names, declared
  ``action_types`` and ``observation_types`` vocabularies, methods,
  protocol-action constructions, ``isinstance`` tests against
  observation types, and attribute reads, for the vocabulary/purity
  rules.

Set-typedness is deliberately syntactic (no type inference engine): set
displays and comprehensions, ``set``/``frozenset`` calls, set-operator
expressions, ``dict.keys()`` views, attributes/methods known to be
set-valued in this codebase (``task_ids``, ``assigned_task_ids()``),
names assigned from any of those in the same function scope, and names
narrowed by an enclosing ``isinstance(x, (set, frozenset))`` guard.
False negatives are possible; false positives are rare by construction,
and that is the right trade for a gate that must stay green.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import SuppressionIndex

__all__ = [
    "ATTR_SET_NAMES",
    "CallEvent",
    "ClassFacts",
    "IterationEvent",
    "METHOD_SET_NAMES",
    "ModuleFacts",
    "SourceFile",
    "collect_facts",
    "dotted_name",
]

#: Attributes that are set-typed wherever they appear in this codebase
#: (``InstanceState.task_ids`` is ``frozenset[str]``).
ATTR_SET_NAMES = frozenset({"task_ids"})

#: Zero/low-arg methods whose return value is a set or set-like view.
METHOD_SET_NAMES = frozenset(
    {
        "keys",
        "assigned_task_ids",
        "union",
        "intersection",
        "difference",
        "symmetric_difference",
    }
)

#: Builtins whose call is set-typed when applied to anything.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})

#: Consumers whose result does not depend on the argument's iteration
#: order (``sorted`` imposes one; ``set``/``frozenset`` discard it;
#: ``any``/``all``/``len`` reduce order-insensitively).
ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "set", "frozenset", "any", "all", "len"}
)

#: Consumers whose result (or observable effect) depends on iteration
#: order: ``list``/``tuple`` preserve it, ``max``/``min`` break ties by
#: encounter order, float ``sum`` is non-associative.
ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "max", "min", "sum"})


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


@dataclass(frozen=True, slots=True)
class SourceFile:
    """One parsed source file plus its suppression comments."""

    path: str
    text: str
    tree: ast.Module
    suppressions: SuppressionIndex

    @classmethod
    def from_text(cls, text: str, path: str) -> "SourceFile":
        return cls(
            path=path,
            text=text,
            tree=ast.parse(text),
            suppressions=SuppressionIndex.scan(text, path),
        )

    @classmethod
    def load(cls, file_path: Path, display_path: str) -> "SourceFile":
        return cls.from_text(file_path.read_text(encoding="utf-8"), display_path)


@dataclass(frozen=True, slots=True)
class IterationEvent:
    """One order-sensitive iteration over some iterable expression."""

    line: int
    #: ``"for"``, ``"comprehension"``, ``"dict-comprehension"`` or the
    #: consumer callable's name (``"max"``, ``"list"``, ...).
    context: str
    #: The iterable is statically known to be a set/frozenset/dict-view.
    set_typed: bool
    #: Human-readable description of why the iterable is set-typed.
    evidence: str


@dataclass(frozen=True, slots=True)
class CallEvent:
    """One call with a statically resolvable dotted callee name."""

    line: int
    name: str
    #: Name of the innermost enclosing function ("" at module level) —
    #: lets rules carve out idioms like ``hash()`` inside ``__hash__``.
    enclosing: str


@dataclass(slots=True)
class ClassFacts:
    """Facts about one class definition."""

    name: str
    line: int
    base_names: tuple[str, ...]
    #: The class-level vocabulary bindings, keyed by attribute
    #: (``action_types``, ``observation_types``): the names inside a
    #: ``frozenset({...})`` declaration, or None for an explicit
    #: ``= None`` (unrestricted).  An attribute the class body never
    #: assigns has no key.
    vocabularies: dict[str, tuple[str, ...] | None]
    #: Methods defined directly in the class body: name → line.
    methods: dict[str, int] = field(default_factory=dict)
    #: Protocol action constructions inside the class body:
    #: ``(line, action name)``.
    action_constructions: list[tuple[int, str]] = field(default_factory=list)
    #: ``isinstance`` tests against protocol observation types inside
    #: the class body: ``(line, observation name)``.
    observation_tests: list[tuple[int, str]] = field(default_factory=list)
    #: Attribute reads inside the class body: ``(line, attr, root)``
    #: where root is the base variable name ("snapshot", "self", ...) or
    #: "" when the base is a non-trivial expression.
    attribute_reads: list[tuple[int, str, str]] = field(default_factory=list)


@dataclass(slots=True)
class ModuleFacts:
    """Everything the AST rules need, from one pass over one file."""

    source: SourceFile
    iterations: list[IterationEvent] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)
    classes: list[ClassFacts] = field(default_factory=list)


#: The five protocol action type names (kept as plain strings so the
#: visitor never imports the scheduler stack).
ACTION_TYPE_NAMES = frozenset(
    {"LaunchInstance", "TerminateInstance", "AssignTask", "UnassignTask", "MigrateTask"}
)

#: The protocol observation type names, likewise.
OBSERVATION_TYPE_NAMES = frozenset(
    {
        "JobArrived",
        "JobFinished",
        "SpotEvictionNotice",
        "DeadlineApproaching",
        "InstanceFailed",
        "StragglerReport",
        "PriceChanged",
        "PoolExhausted",
        "ThroughputReport",
    }
)

#: Class-level attributes that declare a protocol vocabulary.
_VOCABULARY_ATTRIBUTES = ("action_types", "observation_types")


class _FactsVisitor(ast.NodeVisitor):
    """The single shared pass (see module docstring)."""

    def __init__(self, facts: ModuleFacts) -> None:
        self.facts = facts
        #: Stack of per-function sets of set-typed local names.
        self._scopes: list[set[str]] = [set()]
        #: Comprehension/call argument nodes already consumed by an
        #: order-insensitive consumer; their generators are exempt.
        self._insensitive_args: set[int] = set()
        self._class_stack: list[ClassFacts] = []
        self._func_names: list[str] = []

    # -- set-typedness ---------------------------------------------------
    def _is_set_typed(self, node: ast.expr) -> tuple[bool, str]:
        if isinstance(node, ast.Set):
            return True, "set display"
        if isinstance(node, ast.SetComp):
            return True, "set comprehension"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
                return True, f"{func.id}() call"
            if isinstance(func, ast.Attribute) and func.attr in METHOD_SET_NAMES:
                return True, f".{func.attr}() call"
        if isinstance(node, ast.Attribute) and node.attr in ATTR_SET_NAMES:
            return True, f".{node.attr} attribute"
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            left, evidence = self._is_set_typed(node.left)
            if left:
                return True, f"set operator over {evidence}"
            right, evidence = self._is_set_typed(node.right)
            if right:
                return True, f"set operator over {evidence}"
        if isinstance(node, ast.Name):
            for scope in reversed(self._scopes):
                if node.id in scope:
                    return True, f"local {node.id!r} holds a set"
        return False, ""

    def _record_iteration(self, iterable: ast.expr, context: str) -> None:
        set_typed, evidence = self._is_set_typed(iterable)
        self.facts.iterations.append(
            IterationEvent(
                line=iterable.lineno,
                context=context,
                set_typed=set_typed,
                evidence=evidence,
            )
        )

    def _mark_set_name(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            set_typed, _ = self._is_set_typed(value)
            if set_typed:
                self._scopes[-1].add(target.id)
            else:
                self._scopes[-1].discard(target.id)

    @staticmethod
    def _isinstance_set_guard(test: ast.expr) -> str | None:
        """The narrowed name for ``isinstance(x, (set, frozenset))``-style
        tests, else None."""
        if not (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Name)
            and test.func.id == "isinstance"
            and len(test.args) == 2
            and isinstance(test.args[0], ast.Name)
        ):
            return None
        kinds = test.args[1]
        names: list[ast.expr] = (
            list(kinds.elts) if isinstance(kinds, ast.Tuple) else [kinds]
        )
        for kind in names:
            if isinstance(kind, ast.Name) and kind.id in _SET_CONSTRUCTORS:
                return test.args[0].id
        return None

    # -- scope handling --------------------------------------------------
    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._scopes.append(set())
        self._func_names.append(node.name)
        self.generic_visit(node)
        self._func_names.pop()
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self._mark_set_name(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None:
            self._mark_set_name(node.target, node.value)

    def visit_If(self, node: ast.If) -> None:
        narrowed = self._isinstance_set_guard(node.test)
        self.visit(node.test)
        if narrowed is not None:
            self._scopes[-1].add(narrowed)
        for stmt in node.body:
            self.visit(stmt)
        if narrowed is not None:
            self._scopes[-1].discard(narrowed)
        for stmt in node.orelse:
            self.visit(stmt)

    # -- iteration sites -------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._record_iteration(node.iter, "for")
        self.generic_visit(node)

    def _visit_comprehension(
        self,
        node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp,
    ) -> None:
        order_insensitive = (
            isinstance(node, ast.SetComp) or id(node) in self._insensitive_args
        )
        for index, gen in enumerate(node.generators):
            # Nested generators reorder output even under an insensitive
            # consumer only via the first generator's order; deeper
            # generators matter too, so exempt all or none.
            if not order_insensitive:
                context = (
                    "dict-comprehension"
                    if isinstance(node, ast.DictComp)
                    else "comprehension"
                )
                self._record_iteration(gen.iter, context)
            # Comprehension targets live in their own scope; a set-typed
            # iterable does not make the loop variable set-typed.
            del index
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    # -- calls -----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None:
            self.facts.calls.append(
                CallEvent(
                    line=node.lineno,
                    name=name,
                    enclosing=self._func_names[-1] if self._func_names else "",
                )
            )
            base = name.rsplit(".", maxsplit=1)[-1]
            if base in ORDER_INSENSITIVE_CONSUMERS and node.args:
                self._insensitive_args.add(id(node.args[0]))
            elif base in ORDER_SENSITIVE_CONSUMERS and node.args:
                first = node.args[0]
                if not isinstance(
                    first,
                    (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp),
                ):
                    # Comprehension args are recorded by their own visit;
                    # a bare set-typed argument is recorded here.
                    set_typed, evidence = self._is_set_typed(first)
                    if set_typed:
                        self.facts.iterations.append(
                            IterationEvent(
                                line=node.lineno,
                                context=base,
                                set_typed=True,
                                evidence=evidence,
                            )
                        )
            if (
                base in ACTION_TYPE_NAMES
                and self._class_stack
                and "." not in name
            ):
                self._class_stack[-1].action_constructions.append(
                    (node.lineno, base)
                )
            if name == "isinstance" and self._class_stack and len(node.args) == 2:
                self._record_observation_tests(node.lineno, node.args[1])
        self.generic_visit(node)

    def _record_observation_tests(self, line: int, kinds: ast.expr) -> None:
        """Record the observation types an ``isinstance`` call tests."""
        for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
            name = (dotted_name(kind) or "").rsplit(".", maxsplit=1)[-1]
            if name in OBSERVATION_TYPE_NAMES:
                self._class_stack[-1].observation_tests.append((line, name))

    # -- classes ---------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        facts = ClassFacts(
            name=node.name,
            line=node.lineno,
            base_names=tuple(
                name
                for name in (dotted_name(base) for base in node.bases)
                if name is not None
            ),
            vocabularies=_declared_vocabularies(node),
            methods={
                stmt.name: stmt.lineno
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            },
        )
        self.facts.classes.append(facts)
        self._class_stack.append(facts)
        self._scopes.append(set())
        self.generic_visit(node)
        self._scopes.pop()
        self._class_stack.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._class_stack and isinstance(node.ctx, ast.Load):
            root = node.value.id if isinstance(node.value, ast.Name) else ""
            self._class_stack[-1].attribute_reads.append(
                (node.lineno, node.attr, root)
            )
        self.generic_visit(node)


def _declared_vocabularies(
    node: ast.ClassDef,
) -> dict[str, tuple[str, ...] | None]:
    """The class-level ``action_types``/``observation_types`` bindings.

    ``(...)`` for ``frozenset({...})`` (the first binding of each wins);
    ``None`` for an explicit ``= None`` (unrestricted); no key when the
    class body never assigns the attribute.
    """
    declared: dict[str, tuple[str, ...] | None] = {}
    for stmt in node.body:
        targets: list[ast.expr]
        value: ast.expr | None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if value is None:
            continue
        for target in targets:
            if (
                not isinstance(target, ast.Name)
                or target.id not in _VOCABULARY_ATTRIBUTES
                or target.id in declared
            ):
                continue
            if isinstance(value, ast.Constant) and value.value is None:
                declared[target.id] = None
                continue
            declared[target.id] = tuple(
                inner.id
                for inner in ast.walk(value)
                if isinstance(inner, ast.Name)
                and inner.id not in ("frozenset", "set")
            )
    return declared


def collect_facts(source: SourceFile) -> ModuleFacts:
    """Run the shared pass over one file."""
    facts = ModuleFacts(source=source)
    _FactsVisitor(facts).visit(source.tree)
    return facts
