"""repro-lint over the repo's own tree: the CI gate, exercised in-process.

The acceptance contract for the lint gate: a run over ``src/`` with the
committed baseline exits 0, and seeding one violation makes it exit
nonzero.  Also checks the committed ledger itself stays well-formed and
that the strict-mypy scope parses (the actual ``mypy --strict`` run
happens in CI, where mypy is installed).
"""

from __future__ import annotations

import io
import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline, DEFAULT_BASELINE_NAME
from repro.analysis.cli import run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC = REPO_ROOT / "src"


class TestSelfCheck:
    def test_repo_src_is_clean_in_check_mode(self):
        out = io.StringIO()
        rc = run_lint(
            [str(SRC), "--root", str(REPO_ROOT), "--check"], stream=out
        )
        assert rc == 0, out.getvalue()

    def test_every_suppression_in_tree_is_ledgered_with_reason(self):
        ledger = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
        assert ledger.entries, "committed ledger must not be empty"
        for entry in ledger.entries:
            assert entry.reason, f"ledger entry without reason: {entry}"
            assert (REPO_ROOT / entry.path).exists(), entry.path

    def test_seeded_violation_fails_the_gate(self, tmp_path):
        # copy the tree, inject one wall-clock read into sim/, re-run
        work = tmp_path / "repo"
        (work / "src").parent.mkdir(parents=True, exist_ok=True)
        shutil.copytree(SRC, work / "src")
        shutil.copy(
            REPO_ROOT / DEFAULT_BASELINE_NAME, work / DEFAULT_BASELINE_NAME
        )
        target = work / "src" / "repro" / "sim" / "engine.py"
        target.write_text(
            target.read_text(encoding="utf-8")
            + "\n\nimport time\n\n\ndef _leak():\n    return time.time()\n",
            encoding="utf-8",
        )
        out = io.StringIO()
        rc = run_lint(
            [str(work / "src"), "--root", str(work), "--check"], stream=out
        )
        assert rc == 1
        assert "determinism" in out.getvalue()

    def test_seeded_graph_rule_violations_fail_the_gate(self, tmp_path):
        # one copied tree, three seeded whole-program violations: a
        # fork-worker module mutation, an unseeded RNG one call hop
        # from its construction site, and a snapshot pair missing a
        # mutable attribute — all three must block --check
        work = tmp_path / "repo"
        work.mkdir(parents=True, exist_ok=True)
        shutil.copytree(SRC, work / "src")
        shutil.copy(
            REPO_ROOT / DEFAULT_BASELINE_NAME, work / DEFAULT_BASELINE_NAME
        )
        seeded = work / "src" / "repro" / "cluster" / "_seeded.py"
        seeded.write_text(
            "import multiprocessing as mp\n"
            "import random\n"
            "import time\n"
            "\n"
            "_CACHE = {}\n"
            "\n"
            "\n"
            "def _seeded_worker():\n"
            "    _CACHE['k'] = 1\n"
            "\n"
            "\n"
            "def _seeded_spawn():\n"
            "    mp.Process(target=_seeded_worker).start()\n"
            "\n"
            "\n"
            "def _make_rng(seed):\n"
            "    return random.Random(seed)\n"
            "\n"
            "\n"
            "def _entropy_rng():\n"
            "    return _make_rng(time.time_ns())\n"
            "\n"
            "\n"
            "class _Partial:\n"
            "    def __init__(self):\n"
            "        self._level = 0.0\n"
            "        self._peak = 0.0\n"
            "\n"
            "    def observe(self, v):\n"
            "        self._level = v\n"
            "        self._peak = max(self._peak, v)\n"
            "\n"
            "    def snapshot(self):\n"
            "        return {'level': self._level}\n"
            "\n"
            "    def restore(self, state):\n"
            "        self._level = state['level']\n",
            encoding="utf-8",
        )
        out = io.StringIO()
        rc = run_lint(
            [str(work / "src"), "--root", str(work), "--check"], stream=out
        )
        rendered = out.getvalue()
        assert rc == 1
        assert "shared-state-race" in rendered
        assert "rng-provenance" in rendered
        assert "snapshot-completeness" in rendered
        assert "_seeded_worker" in rendered
        assert "'self._peak'" in rendered

    @pytest.mark.parametrize("rule, section", [
        ("shared-state-race", "§15.2"),
        ("rng-provenance", "§15.3"),
        ("snapshot-completeness", "§15.4"),
    ])
    def test_explain_covers_graph_rules(self, rule, section):
        out = io.StringIO()
        assert run_lint(["--explain", rule], stream=out) == 0
        text = out.getvalue()
        assert f"DESIGN.md {section}" in text

    def test_graph_summary_over_repo_resolves_worker_roots(self):
        out = io.StringIO()
        rc = run_lint(
            [str(SRC), "--root", str(REPO_ROOT), "--graph"], stream=out
        )
        text = out.getvalue()
        assert rc == 0
        assert "repro.experiments.parallel._run_task" in text

    def test_json_report_shape_over_repo(self):
        out = io.StringIO()
        run_lint(
            [str(SRC), "--root", str(REPO_ROOT), "--json"], stream=out
        )
        payload = json.loads(out.getvalue())
        assert payload["blocking"] == []
        assert payload["files_checked"] > 50
        for finding in payload["suppressed"]:
            assert finding["reason"]


class TestStrictTypingScope:
    def test_mypy_strict_scope(self):
        """Run mypy --strict over the configured scope when available.

        The container image has no mypy (CI installs it); locally this
        skips rather than silently passing.
        """
        pytest.importorskip("mypy.api")
        from mypy import api

        stdout, stderr, status = api.run(
            ["--config-file", str(REPO_ROOT / "pyproject.toml")]
        )
        assert status == 0, stdout + stderr
