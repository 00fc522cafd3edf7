"""Rule protocol and registry for the ``repro-lint`` analyser.

A rule is a small AST walker with a name, a human-readable *contract*
(the invariant it machine-checks), and a DESIGN.md reference printed by
the explain mode.  The :class:`RuleRegistry` is the pluggable part: the
default registry carries the six shipped rules, and tests (or future
PRs) register additional rules without touching the engine.
"""

from __future__ import annotations

import abc
import ast
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.source import SourceFile

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle
    from repro.analysis.callgraph import Project


def dotted_name(node: ast.expr) -> str:
    """Best-effort dotted name of an expression (``""`` when unknown).

    ``time.time`` → ``"time.time"``; ``self._rng.random`` →
    ``"self._rng.random"``; calls/subscripts in the chain yield ``""``
    so callers never mistake a derived object for a module.
    """
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return ""
    parts.append(cur.id)
    return ".".join(reversed(parts))


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a function/module body without entering nested functions."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop(0)
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack[0:0] = list(ast.iter_child_nodes(node))


class Rule(abc.ABC):
    """One machine-checked contract."""

    #: stable identifier used in disable comments and the baseline.
    name: ClassVar[str]
    #: the invariant this rule encodes, printed by ``--explain``.
    contract: ClassVar[str]
    #: where the contract is documented.
    design_ref: ClassVar[str]
    #: one-line fix hint attached to every finding.
    hint: ClassVar[str] = ""
    default_severity: ClassVar[Severity] = Severity.ERROR

    @abc.abstractmethod
    def check(self, src: SourceFile) -> Iterator[Finding]:
        """Yield findings for one parsed source file."""

    def finding(
        self,
        src: SourceFile,
        node: ast.AST,
        message: str,
        *,
        severity: Severity | None = None,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.name,
            path=src.path,
            line=line,
            col=col,
            message=message,
            severity=severity or self.default_severity,
            hint=self.hint,
            context=src.line_text(line),
        )


class ProjectRule(Rule):
    """A rule that checks the whole program, not one file.

    Project rules see every parsed source at once through a
    :class:`~repro.analysis.callgraph.Project` (symbol table + call
    graph) and may emit findings in *any* file.  Findings still flow
    through the ordinary per-file suppression and baseline machinery —
    an inline disable comment on the flagged line works exactly as for
    per-file rules.

    :meth:`check` is implemented as a single-file fallback (a project
    of one file) so direct ``rule.check(src)`` unit tests keep working;
    the engine calls :meth:`check_project` once over all sources so
    cross-module flows are actually visible.
    """

    def check(self, src: SourceFile) -> Iterator[Finding]:
        from repro.analysis.callgraph import Project

        yield from self.check_project(Project([src]))

    @abc.abstractmethod
    def check_project(self, project: "Project") -> Iterator[Finding]:
        """Yield findings over the whole project."""


class RuleRegistry:
    """Named rule collection; iteration order is registration order."""

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self._rules: dict[str, Rule] = {}
        for rule in rules:
            self.register(rule)

    def register(self, rule: Rule) -> None:
        if rule.name in self._rules:
            raise ValueError(f"duplicate rule name {rule.name!r}")
        self._rules[rule.name] = rule

    def rule(self, name: str) -> Rule:
        try:
            return self._rules[name]
        except KeyError:
            raise KeyError(
                f"unknown rule {name!r}; known: {', '.join(self.names())}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._rules)

    def __contains__(self, name: str) -> bool:
        return name in self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules.values())

    def file_rules(self) -> tuple[Rule, ...]:
        """Rules that analyse one file at a time."""
        return tuple(
            rule for rule in self if not isinstance(rule, ProjectRule)
        )

    def project_rules(self) -> tuple[ProjectRule, ...]:
        """Rules that analyse the whole program at once."""
        return tuple(
            rule for rule in self if isinstance(rule, ProjectRule)
        )

    def run(self, src: SourceFile) -> list[Finding]:
        """All rules over one file, ordered by location then rule.

        Project rules run in single-file-fallback mode here; the
        engine runs them once over the whole source set instead.
        """
        found: list[Finding] = []
        for rule in self:
            found.extend(rule.check(src))
        found.sort(key=lambda f: (f.line, f.col, f.rule, f.message))
        return found


def default_registry() -> RuleRegistry:
    """The nine shipped contract rules."""
    from repro.analysis.rules import all_rules

    return RuleRegistry(all_rules())
