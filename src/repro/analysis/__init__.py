"""``repro-lint``: AST static analysis for this repo's core contracts.

The reproduction leans on invariants the test suite can only
spot-check — byte-identical serial/stacked stepping, config-pure cache
keys, a daemon that contains every hardware fault.  This package makes
them machine-checked: a pluggable rule registry walks every source
file's AST and reports :class:`~repro.analysis.findings.Finding`s with
``file:line``, severity, fix hints, and DESIGN.md references.

Shipped rules (see DESIGN.md §10 and §15): the per-file contracts
``determinism``, ``unit-safety``, ``fail-safety``, ``float-equality``,
``cache-purity``, ``kernel-purity``, plus the whole-program rules
``shared-state-race``, ``rng-provenance``, and
``snapshot-completeness``, which run over a project-wide symbol table
and call graph (:mod:`~repro.analysis.callgraph`) with taint-style
seed dataflow (:mod:`~repro.analysis.dataflow`).

The static side is paired with a runtime determinism sanitizer
(:mod:`~repro.analysis.sanitizer`): under ``REPRO_SANITIZE=1`` the
cluster loop and the sim engine record canonical per-epoch state
digests that attribute any divergence to a first epoch/node/field.

Entry points: ``repro-power lint`` (CLI subcommand),
``scripts/lint.py`` (standalone, CI), and :func:`lint_paths` (API).
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.engine import LintReport, lint_paths, lint_sources
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, RuleRegistry, default_registry
from repro.analysis.source import SourceFile, Suppression

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintReport",
    "Rule",
    "RuleRegistry",
    "Severity",
    "SourceFile",
    "Suppression",
    "default_registry",
    "lint_paths",
    "lint_sources",
]
