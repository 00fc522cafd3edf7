"""Engine-level tests: suppressions, the baseline ledger, CLI codes."""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis import Baseline, SourceFile, lint_paths, lint_sources
from repro.analysis.baseline import BaselineEntry
from repro.analysis.cli import run_lint
from repro.analysis.engine import (
    META_DEAD_ENTRY,
    META_MALFORMED,
    META_PARSE,
    META_UNKNOWN,
    META_UNUSED,
)

VIOLATION = "import random\n\n\ndef f():\n    return random.random()\n"
CLEAN = "def f(a, b):\n    return a + b\n"


def lint_text(text, path="src/repro/hw/snippet.py", **kwargs):
    return lint_sources([SourceFile.from_text(path, text)], **kwargs)


class TestSuppressions:
    def test_same_line_comment_suppresses(self):
        report = lint_text(
            "import random\n\n\ndef f():\n"
            "    # repro-lint: disable=rng-provenance — test sentinel\n"
            "    return random.random()\n"
        )
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.suppressed[0].suppress_reason == "test sentinel"

    def test_comment_above_suppresses_next_line_only(self):
        report = lint_text(
            "import random\n"
            "# repro-lint: disable=rng-provenance — covers line 2 only\n"
            "a = random.random()\n"
            "b = random.random()\n"
        )
        assert not report.ok
        assert len(report.suppressed) == 1
        assert len(report.blocking) == 1
        assert report.blocking[0].line == 4

    def test_reasonless_disable_is_a_finding_and_does_not_suppress(self):
        report = lint_text(
            "import random\n\n\ndef f():\n"
            "    return random.random()  # repro-lint: disable=rng-provenance\n"
        )
        rules = {f.rule for f in report.blocking}
        assert META_MALFORMED in rules
        assert "rng-provenance" in rules  # the violation still blocks

    def test_unknown_rule_disable_is_a_finding(self):
        report = lint_text(
            "# repro-lint: disable=no-such-rule — typo\n"
            "x = 1\n"
        )
        assert [f.rule for f in report.blocking] == [META_UNKNOWN]

    def test_stale_suppression_is_a_finding(self):
        report = lint_text(
            "# repro-lint: disable=rng-provenance — nothing to cover\n"
            "x = 1\n"
        )
        assert [f.rule for f in report.blocking] == [META_UNUSED]

    def test_comma_list_suppresses_two_rules_on_one_line(self):
        report = lint_text(
            "import random\n\n\ndef f():\n"
            "    # repro-lint: disable=rng-provenance,float-equality"
            " — test sentinel\n"
            "    return random.random() == 1.0\n"
        )
        assert report.ok
        assert sorted(f.rule for f in report.suppressed) == [
            "float-equality", "rng-provenance",
        ]

    def test_empty_reason_after_dash_is_malformed(self):
        report = lint_text(
            "import random\n\n\ndef f():\n"
            "    # repro-lint: disable=rng-provenance —\n"
            "    return random.random()\n"
        )
        rules = {f.rule for f in report.blocking}
        assert META_MALFORMED in rules
        assert "rng-provenance" in rules

    def test_comment_above_covers_multiline_statement_head(self):
        report = lint_text(
            "import random\n\n\ndef f():\n"
            "    # repro-lint: disable=rng-provenance — test sentinel\n"
            "    return random.random(\n"
            "    )\n"
        )
        assert report.ok
        assert len(report.suppressed) == 1

    def test_trailing_comment_on_continuation_line_covers_nothing(self):
        # the disable must sit on the statement's first physical line
        # (or the line above); a closing-paren line covers nothing
        report = lint_text(
            "import random\n\n\ndef f():\n"
            "    return random.random(\n"
            "    )  # repro-lint: disable=rng-provenance — wrong line\n"
        )
        assert not report.ok
        rules = sorted(f.rule for f in report.blocking)
        assert rules == ["rng-provenance", META_UNUSED]

    def test_suppression_covers_only_named_rule(self):
        report = lint_text(
            "import random\n\n\ndef f():\n"
            "    # repro-lint: disable=float-equality — wrong rule\n"
            "    return random.random()\n"
        )
        # the rng-provenance finding still blocks; the disable is stale
        rules = sorted(f.rule for f in report.blocking)
        assert rules == ["rng-provenance", META_UNUSED]


class TestBaseline:
    def suppressed_report(self):
        return lint_text(
            "import random\n\n\ndef f():\n"
            "    # repro-lint: disable=rng-provenance — test sentinel\n"
            "    return random.random()\n"
        )

    def test_roundtrip_through_disk(self, tmp_path):
        ledger = Baseline.from_findings(self.suppressed_report().suppressed)
        path = tmp_path / "baseline.json"
        ledger.save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == ledger.entries
        assert loaded.entries[0].reason == "test sentinel"

    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert Baseline.load(tmp_path / "nope.json").entries == ()

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(["not", "a", "ledger"]))
        with pytest.raises(ValueError):
            Baseline.load(path)

    def test_check_mode_blocks_unledgered_suppression(self):
        report = lint_text(
            "import random\n\n\ndef f():\n"
            "    # repro-lint: disable=rng-provenance — not in ledger\n"
            "    return random.random()\n",
            baseline=Baseline(),
            check=True,
        )
        assert not report.ok
        assert report.unledgered

    def test_check_mode_passes_with_matching_entry(self):
        first = self.suppressed_report()
        ledger = Baseline.from_findings(first.suppressed)
        report = lint_text(
            "import random\n\n\ndef f():\n"
            "    # repro-lint: disable=rng-provenance — test sentinel\n"
            "    return random.random()\n",
            baseline=ledger,
            check=True,
        )
        assert report.ok

    def test_matching_survives_line_churn(self):
        ledger = Baseline.from_findings(self.suppressed_report().suppressed)
        # same code pushed three lines down by new material above
        report = lint_text(
            "import random\n\nPADDING_A = 1\nPADDING_B = 2\n\n\ndef f():\n"
            "    # repro-lint: disable=rng-provenance — test sentinel\n"
            "    return random.random()\n",
            baseline=ledger,
            check=True,
        )
        assert report.ok

    def test_multiplicity_one_entry_tolerates_one_finding(self):
        ledger = Baseline.from_findings(self.suppressed_report().suppressed)
        report = lint_text(
            "import random\n\n\ndef f():\n"
            "    # repro-lint: disable=rng-provenance — test sentinel\n"
            "    return random.random()\n"
            "\n\ndef g():\n"
            "    # repro-lint: disable=rng-provenance — test sentinel\n"
            "    return random.random()\n",
            baseline=ledger,
            check=True,
        )
        assert not report.ok
        assert len(report.unledgered) == 1

    def test_unsuppressed_finding_matched_by_ledger_is_baselined(self):
        ledger = Baseline((BaselineEntry(
            rule="rng-provenance",
            path="src/repro/hw/snippet.py",
            context="return random.random()",
        ),))
        report = lint_text(VIOLATION, baseline=ledger)
        assert report.ok
        assert len(report.baselined) == 1

    SENTINEL = (
        "import random\n\n\ndef f():\n"
        "    # repro-lint: disable=rng-provenance — test sentinel\n"
        "    return random.random()\n"
    )

    def dead_ledger(self, path="src/repro/hw/snippet.py"):
        """The sentinel's entry plus one for a line that no longer
        exists in ``path``."""
        live = Baseline.from_findings(self.suppressed_report().suppressed)
        return Baseline(live.entries + (BaselineEntry(
            rule="float-equality", path=path, context="if x == 0.0:",
            reason="deleted long ago", line=12,
        ),))

    def test_check_mode_blocks_dead_entry(self):
        report = lint_text(
            self.SENTINEL, baseline=self.dead_ledger(), check=True
        )
        assert not report.ok
        [dead] = report.blocking
        assert dead.rule == META_DEAD_ENTRY
        assert (dead.path, dead.line) == ("src/repro/hw/snippet.py", 12)
        assert "float-equality" in dead.message
        assert "if x == 0.0:" in dead.message

    def test_dead_entry_passes_without_check(self):
        report = lint_text(self.SENTINEL, baseline=self.dead_ledger())
        assert report.ok

    def test_dead_entry_of_unlinted_file_is_ignored(self):
        report = lint_text(
            self.SENTINEL,
            baseline=self.dead_ledger("src/repro/hw/elsewhere.py"),
            check=True,
        )
        assert report.ok

    def test_one_dead_entry_per_unmatched_copy(self):
        ledger = Baseline.from_findings(self.suppressed_report().suppressed)
        report = lint_text(
            self.SENTINEL, baseline=Baseline(ledger.entries * 3), check=True
        )
        assert [f.rule for f in report.blocking] == [META_DEAD_ENTRY] * 2


class TestLintPaths:
    def test_syntax_error_is_a_blocking_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = lint_paths([bad], root=tmp_path)
        assert not report.ok
        assert report.blocking[0].rule == META_PARSE

    def test_directory_walk_skips_hidden_dirs(self, tmp_path):
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "x.py").write_text(VIOLATION)
        (tmp_path / "ok.py").write_text(CLEAN)
        report = lint_paths([tmp_path], root=tmp_path)
        assert report.ok
        assert report.files_checked == 1


class TestCli:
    def write_tree(self, tmp_path, text):
        src = tmp_path / "src"
        src.mkdir()
        (src / "snippet.py").write_text(text)
        return tmp_path

    def test_clean_tree_exits_zero(self, tmp_path):
        root = self.write_tree(tmp_path, CLEAN)
        assert run_lint(
            [str(root / "src"), "--root", str(root)], stream=io.StringIO()
        ) == 0

    def test_violation_exits_one_and_renders_location(self, tmp_path):
        root = self.write_tree(tmp_path, VIOLATION)
        out = io.StringIO()
        rc = run_lint([str(root / "src"), "--root", str(root)], stream=out)
        assert rc == 1
        rendered = out.getvalue()
        assert "src/snippet.py:5" in rendered
        assert "rng-provenance" in rendered
        assert "DESIGN.md §15" in rendered

    def test_json_output(self, tmp_path):
        root = self.write_tree(tmp_path, VIOLATION)
        out = io.StringIO()
        run_lint(
            [str(root / "src"), "--root", str(root), "--json"], stream=out
        )
        payload = json.loads(out.getvalue())
        assert payload["blocking"][0]["rule"] == "rng-provenance"

    def test_write_baseline_then_check_passes(self, tmp_path):
        root = self.write_tree(
            tmp_path,
            "import random\n\n\ndef f():\n"
            "    # repro-lint: disable=rng-provenance — deliberate\n"
            "    return random.random()\n",
        )
        args = [str(root / "src"), "--root", str(root)]
        # unledgered suppression fails --check...
        assert run_lint(args + ["--check"], stream=io.StringIO()) == 1
        # ...until the ledger is written, after which check is clean
        assert run_lint(
            args + ["--write-baseline"], stream=io.StringIO()
        ) == 0
        assert (root / ".repro-lint-baseline.json").exists()
        assert run_lint(args + ["--check"], stream=io.StringIO()) == 0

    def test_explain_prints_contract(self):
        out = io.StringIO()
        assert run_lint(["--explain", "cache-purity"], stream=out) == 0
        text = out.getvalue()
        assert "DESIGN.md §10.6" in text
        assert "pure function" in text

    def test_explain_unknown_rule_exits_two(self):
        assert run_lint(
            ["--explain", "nope"], stream=io.StringIO()
        ) == 2

    def test_missing_path_exits_two(self, tmp_path):
        assert run_lint(
            [str(tmp_path / "absent"), "--root", str(tmp_path)],
            stream=io.StringIO(),
        ) == 2
