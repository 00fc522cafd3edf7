#!/usr/bin/env python
"""repro-lint gate: static contract analysis over the source tree.

Thin wrapper around :mod:`repro.analysis.cli` so CI (and pre-commit
habits) can run the linter exactly like the chaos smoke gate::

    PYTHONPATH=src python scripts/lint.py --check
    PYTHONPATH=src python scripts/lint.py --changed
    PYTHONPATH=src python scripts/lint.py --explain determinism
    PYTHONPATH=src python scripts/lint.py --write-baseline

``--check`` is the CI mode: any finding not covered by an inline
``# repro-lint: disable=<rule> — <reason>`` comment *and* the committed
``.repro-lint-baseline.json`` ledger fails the run, as does a stale or
reasonless suppression, and a ledger entry for a linted file that
matches no finding (regenerate the ledger with ``--write-baseline``).
Exits nonzero on violations.

``--changed`` is the incremental pre-commit mode: lint only the Python
files under ``src/`` that differ from the merge base with ``main``
(plus untracked ones).  The whole-program rules see just the changed
files, so cross-module reachability is reduced to what the diff
touches — fast feedback, not the CI gate; run ``--check`` for the
sound whole-tree pass.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

# runnable without PYTHONPATH=src: resolve the in-repo package
_REPO = Path(__file__).resolve().parent.parent
_SRC = _REPO / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis.cli import run_lint  # noqa: E402


def _git_lines(args: list[str]) -> list[str]:
    result = subprocess.run(
        ["git", *args], cwd=_REPO, capture_output=True, text=True,
    )
    if result.returncode != 0:
        return []
    return [line for line in result.stdout.splitlines() if line]


def changed_python_files() -> list[str] | None:
    """Repo-relative ``src/**.py`` paths that differ from the merge base.

    The base is the merge base with ``origin/main`` when that ref
    exists, else local ``main``; untracked files count as changed.
    Returns ``None`` when git itself is unusable (not a repo, no
    refs) so the caller can fall back to a full lint.
    """
    base = None
    for ref in ("origin/main", "main"):
        lines = _git_lines(["merge-base", "HEAD", ref])
        if lines:
            base = lines[0]
            break
    if base is None:
        return None
    changed = set(_git_lines(["diff", "--name-only", base, "--"]))
    changed.update(
        _git_lines(["ls-files", "--others", "--exclude-standard"])
    )
    return sorted(
        path for path in changed
        if path.endswith(".py")
        and path.startswith("src/")
        and (_REPO / path).exists()
    )


def main(argv: list[str]) -> int:
    if "--changed" in argv:
        argv = [arg for arg in argv if arg != "--changed"]
        files = changed_python_files()
        if files is None:
            print(
                "lint --changed: no merge base with main; "
                "linting the full tree",
                file=sys.stderr,
            )
        elif not files:
            print("lint --changed: no Python files changed under src/")
            return 0
        else:
            argv = argv + files
    return run_lint(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
