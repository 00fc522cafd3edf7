"""Lint engine: walk files, run rules, fold in suppressions + baseline.

The engine is deliberately dumb about policy — rules decide what to
flag, inline comments decide what is deliberate, and the baseline
ledger decides what CI tolerates.  The engine just composes them:

1. parse every ``.py`` file under the given paths (a syntax error is
   itself a finding — broken code must not slip past the gate);
2. run every registered rule;
3. mark findings covered by an inline ``disable`` comment as
   suppressed, flagging comments that are malformed (no reason), name
   an unknown rule, or cover nothing (stale);
4. split the remainder against the baseline ledger: matched findings
   are *baselined*, everything else is *blocking*.

In ``--check`` (CI) mode a suppressed finding with no ledger entry also
blocks — silencing the linter requires a committed, reviewable baseline
change — and so does a ledger entry for a linted file that matches no
finding: the ledger must be exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.callgraph import Project
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import RuleRegistry, default_registry
from repro.analysis.source import SourceFile

#: engine-level hygiene findings (not suppressible, not baselineable).
META_PARSE = "parse-error"
META_MALFORMED = "suppression-without-reason"
META_UNKNOWN = "suppression-unknown-rule"
META_UNUSED = "suppression-unused"
META_DEAD_ENTRY = "baseline-entry-unmatched"


@dataclass
class LintReport:
    """Outcome of one lint run over a set of files."""

    #: every rule finding, suppression marks applied.
    findings: list[Finding] = field(default_factory=list)
    #: findings that fail the run (includes meta findings).
    blocking: list[Finding] = field(default_factory=list)
    #: findings covered by an inline disable comment.
    suppressed: list[Finding] = field(default_factory=list)
    #: unsuppressed findings tolerated by the baseline ledger.
    baselined: list[Finding] = field(default_factory=list)
    #: suppressed findings missing from the ledger (block in check mode).
    unledgered: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.blocking


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    """Stable, sorted expansion of files and directories."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if any(part.startswith(".") for part in sub.parts):
                    continue
                seen[sub] = None
        else:
            seen[path] = None
    return sorted(seen)


def lint_sources(
    sources: Iterable[SourceFile],
    *,
    registry: RuleRegistry | None = None,
    baseline: Baseline | None = None,
    check: bool = False,
) -> LintReport:
    """Run the registry over already-parsed sources."""
    registry = registry or default_registry()
    baseline = baseline or Baseline()
    report = LintReport()
    matcher = baseline.matcher()
    meta: list[Finding] = []
    sources = list(sources)

    # per-file rules see one source at a time; project rules see the
    # whole set at once (the findings land back in their files below)
    per_path: dict[str, list[Finding]] = {src.path: [] for src in sources}
    for src in sources:
        for rule in registry.file_rules():
            per_path[src.path].extend(rule.check(src))
    if registry.project_rules():
        project = Project(sources)
        for project_rule in registry.project_rules():
            for finding in project_rule.check_project(project):
                per_path.setdefault(finding.path, []).append(finding)

    for src in sources:
        report.files_checked += 1
        raw = sorted(
            per_path.get(src.path, ()),
            key=lambda f: (f.line, f.col, f.rule, f.message),
        )
        meta.extend(_suppression_hygiene(src, registry))
        for finding in raw:
            covering = src.suppressions_for(finding.line, finding.rule)
            live = [s for s in covering if s.reason]
            if live:
                for s in live:
                    s.used = True
                finding = finding.as_suppressed(live[0].reason)
                report.suppressed.append(finding)
                if not matcher.consume(finding):
                    report.unledgered.append(finding)
            report.findings.append(finding)
        meta.extend(_unused_suppressions(src))

    for finding in report.findings:
        if finding.suppressed:
            continue
        if matcher.consume(finding):
            report.baselined.append(finding)
        else:
            report.blocking.append(finding)
    report.blocking.extend(meta)
    if check:
        report.blocking.extend(report.unledgered)
        # files outside this run (explicit paths, --changed) say nothing
        # about their entries
        linted = {src.path for src in sources}
        report.blocking.extend(
            _dead_entry(entry) for entry in matcher.unmatched(linted)
        )
    report.blocking.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def lint_paths(
    paths: Sequence[Path],
    *,
    root: Path | None = None,
    registry: RuleRegistry | None = None,
    baseline: Baseline | None = None,
    check: bool = False,
) -> LintReport:
    """Lint files/directories; paths in findings are relative to root."""
    root = (root or Path.cwd()).resolve()
    sources: list[SourceFile] = []
    parse_failures: list[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            sources.append(SourceFile.from_path(file_path, root))
        except SyntaxError as exc:
            rel = _relativize(file_path, root)
            parse_failures.append(Finding(
                rule=META_PARSE, path=rel,
                line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
                severity=Severity.ERROR,
            ))
    report = lint_sources(
        sources, registry=registry, baseline=baseline, check=check,
    )
    report.files_checked += len(parse_failures)
    report.findings.extend(parse_failures)
    report.blocking.extend(parse_failures)
    report.blocking.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def _relativize(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _suppression_hygiene(
    src: SourceFile, registry: RuleRegistry
) -> list[Finding]:
    """Malformed or unknown-rule disable comments are findings."""
    out: list[Finding] = []
    for s in src.suppressions:
        if not s.reason:
            s.used = True  # don't double-report as unused
            out.append(Finding(
                rule=META_MALFORMED, path=src.path, line=s.line, col=0,
                message=(
                    "disable comment without a reason — every "
                    "suppression documents its contract exception: "
                    "'# repro-lint: disable=<rule> — <why>'"
                ),
                context=src.line_text(s.line),
            ))
            continue
        for name in s.rules:
            if name not in registry:
                s.used = True
                out.append(Finding(
                    rule=META_UNKNOWN, path=src.path, line=s.line, col=0,
                    message=(
                        f"disable names unknown rule {name!r} "
                        f"(known: {', '.join(registry.names())})"
                    ),
                    context=src.line_text(s.line),
                ))
    return out


def _dead_entry(entry: BaselineEntry) -> Finding:
    return Finding(
        rule=META_DEAD_ENTRY, path=entry.path, line=entry.line, col=0,
        message=(
            f"ledger entry matches no finding: {entry.rule} on "
            f"{entry.context!r} — regenerate the ledger with "
            "scripts/lint.py --write-baseline"
        ),
        context=entry.context,
    )


def _unused_suppressions(src: SourceFile) -> list[Finding]:
    return [
        Finding(
            rule=META_UNUSED, path=src.path, line=s.line, col=0,
            message=(
                f"stale suppression: no {'/'.join(s.rules)} finding on "
                "the covered line — delete the comment (and its "
                "baseline entry)"
            ),
            context=src.line_text(s.line),
        )
        for s in src.suppressions
        if not s.used
    ]


def render_report(
    report: LintReport,
    stream: TextIO,
    *,
    registry: RuleRegistry | None = None,
    explain: bool = False,
) -> None:
    """Human-readable findings with optional contract text."""
    registry = registry or default_registry()
    explained: set[str] = set()
    for finding in report.blocking:
        stream.write(
            f"{finding.location()}: {finding.rule}: {finding.message}\n"
        )
        if finding.context:
            stream.write(f"    | {finding.context}\n")
        if finding.rule in registry:
            rule = registry.rule(finding.rule)
            if finding.hint:
                stream.write(f"    hint: {finding.hint}\n")
            stream.write(f"    see {rule.design_ref}\n")
            if explain and finding.rule not in explained:
                explained.add(finding.rule)
                stream.write(f"    contract: {rule.contract}\n")
    stream.write(
        f"repro-lint: {report.files_checked} files, "
        f"{len(report.blocking)} blocking, "
        f"{len(report.suppressed)} suppressed, "
        f"{len(report.baselined)} baselined\n"
    )
