"""The committed suppression ledger (``.repro-lint-baseline.json``).

The baseline is the audited list of findings the repo deliberately
tolerates.  Every entry corresponds to an inline
``# repro-lint: disable=`` comment in the tree (the linter parses both
and cross-checks them in ``--check`` mode), so adding a new suppression
requires committing a reviewable baseline change, a suppression whose
finding disappeared fails CI as stale, and so, in ``--check`` mode,
does an entry for a linted file that no finding matches.

Entries match findings *structurally* — rule, path, and the stripped
source line — never by line number, so unrelated edits above a
suppressed line don't invalidate the ledger.  Identical lines in one
file are handled by multiplicity: each entry tolerates one finding.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.findings import Finding

BASELINE_VERSION = 1

#: default ledger filename at the repository root.
DEFAULT_BASELINE_NAME = ".repro-lint-baseline.json"


@dataclass(frozen=True)
class BaselineEntry:
    """One tolerated finding."""

    rule: str
    path: str
    context: str
    reason: str = ""
    #: informational only — matching ignores it.
    line: int = 0

    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.context)


class Baseline:
    """Loaded ledger plus a consuming matcher for one lint run."""

    def __init__(self, entries: tuple[BaselineEntry, ...] = ()) -> None:
        self.entries = entries

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a ledger; a missing file is an empty baseline."""
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return cls()
        if not isinstance(raw, dict) or "suppressions" not in raw:
            raise ValueError(f"malformed baseline file {path}")
        entries = []
        for item in raw["suppressions"]:
            entries.append(BaselineEntry(
                rule=str(item["rule"]),
                path=str(item["path"]),
                context=str(item["context"]),
                reason=str(item.get("reason", "")),
                line=int(item.get("line", 0)),
            ))
        return cls(tuple(entries))

    @classmethod
    def from_findings(cls, findings: list[Finding]) -> "Baseline":
        """Ledger entries for (suppressed) findings, stably ordered."""
        entries = tuple(
            BaselineEntry(
                rule=f.rule, path=f.path, context=f.context,
                reason=f.suppress_reason, line=f.line,
            )
            for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule))
        )
        return cls(entries)

    def save(self, path: Path) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "comment": (
                "Audited ledger of deliberate repro-lint suppressions; "
                "every entry has a matching inline disable comment. "
                "Regenerate with scripts/lint.py --write-baseline."
            ),
            "suppressions": [
                {
                    "rule": e.rule, "path": e.path, "line": e.line,
                    "context": e.context, "reason": e.reason,
                }
                for e in self.entries
            ],
        }
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )

    def matcher(self) -> "BaselineMatcher":
        return BaselineMatcher(self)


class BaselineMatcher:
    """Consumes baseline entries against one run's findings."""

    def __init__(self, baseline: Baseline) -> None:
        self._entries = baseline.entries
        self._budget: Counter[tuple[str, str, str]] = Counter(
            entry.key() for entry in baseline.entries
        )

    def consume(self, finding: Finding) -> bool:
        """True (once per entry) when the ledger tolerates ``finding``."""
        key = finding.key()
        if self._budget.get(key, 0) > 0:
            self._budget[key] -= 1
            return True
        return False

    def unmatched(self, paths: set[str]) -> list[BaselineEntry]:
        """The entries for files in ``paths`` that no finding consumed
        (of identical entries, as many as were left over)."""
        left = Counter(self._budget)
        dead: list[BaselineEntry] = []
        for entry in self._entries:
            if entry.path in paths and left[entry.key()] > 0:
                left[entry.key()] -= 1
                dead.append(entry)
        return dead
