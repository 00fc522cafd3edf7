"""Tests for the command-line interface."""

import errno
import io
import sys
from pathlib import Path

import pytest

from repro.cli import _parse_apps, main
from repro.core.types import Priority
from repro.experiments.full_report import SECTIONS

#: the quick report as committed for the benchmark's output check
QUICK_REPORT = (
    Path(__file__).resolve().parents[2]
    / "perfbench" / "expected" / "paper-quick.txt"
)


def committed_sections() -> dict[str, str]:
    """The committed quick report's sections by heading, each split at
    the ``## `` lines as the benchmark splits them."""
    sections: dict[str, list[str]] = {}
    lines: list[str] = []
    for line in QUICK_REPORT.read_text().splitlines(keepends=True):
        if line.startswith("## "):
            lines = sections[line[3:].rstrip("\n")] = []
        lines.append(line)
    return {title: "".join(lines) for title, lines in sections.items()}


class TestParseApps:
    def test_simple(self):
        apps = _parse_apps("gcc")
        assert apps[0].benchmark == "gcc"
        assert apps[0].shares == 1.0

    def test_with_shares(self):
        apps = _parse_apps("leela:90,cactusBSSN:10")
        assert apps[0].shares == 90.0
        assert apps[1].shares == 10.0

    def test_with_priority(self):
        apps = _parse_apps("gcc:1:low,leela:1:high")
        assert apps[0].priority is Priority.LOW
        assert apps[1].priority is Priority.HIGH

    def test_whitespace_tolerated(self):
        apps = _parse_apps("gcc:2, leela:1")
        assert apps[1].benchmark == "leela"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        names = capsys.readouterr().out.splitlines()
        # the parser's subcommands, aliases and listings included
        assert {"fig7", "fig13", "run", "faults", "list"} <= set(names)
        assert names == sorted(names)

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        blocks = capsys.readouterr().out.splitlines()
        assert "skylake" in blocks and "ryzen" in blocks

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "10H0L" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "deepsjeng" in capsys.readouterr().out

    def test_run_command(self, capsys):
        code = main([
            "run", "--platform", "skylake", "--policy", "frequency-shares",
            "--limit", "50", "--apps", "leela:9,gcc:1",
            "--duration", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "leela#0" in out and "pkg" in out

    def test_run_bad_policy_fails_cleanly(self, capsys):
        code = main([
            "run", "--platform", "ryzen", "--policy", "rapl",
            "--limit", "50", "--apps", "gcc", "--duration", "6",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_benchmark_fails_cleanly(self, capsys):
        code = main([
            "run", "--apps", "doom", "--duration", "6",
        ])
        assert code == 1

    def test_faults_lists_crash_scenarios(self, capsys):
        from repro.faults import CRASH_SCENARIOS, TRANSPORT_SCENARIOS

        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "transport scenarios (cluster --transport-faults):" in out
        crash_section = out.split(
            "crash scenarios (cluster --crash-faults):"
        )[1].split(
            "telemetry scenarios (cluster --telemetry-faults):"
        )[0]
        names = [
            line.split()[0]
            for line in crash_section.strip().splitlines()
        ]
        assert names == sorted(CRASH_SCENARIOS)  # deterministic order
        for scenario in CRASH_SCENARIOS.values():
            assert scenario.description in crash_section
        # transport names stay in their own section
        assert "node0-partition" not in crash_section
        assert "node0-partition" in TRANSPORT_SCENARIOS

    def test_list_includes_sweep(self, capsys):
        assert main(["list"]) == 0
        assert "sweep" in capsys.readouterr().out

    def test_sweep_quick(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        code = main(["sweep", "--seeds", "1", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Random sweep" in out
        assert "1 stored" in out
        # second invocation is served from the cache
        assert main(["sweep", "--seeds", "1", "--quick"]) == 0
        assert "1 hit" in capsys.readouterr().out

    def test_sweep_no_cache(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["sweep", "--seeds", "1", "--quick", "--no-cache"])
        assert code == 0
        assert "cache" not in capsys.readouterr().out
        assert not list(tmp_path.rglob("*.json"))

    def test_report_accepts_jobs_and_no_cache(self):
        # parse-only: a full report is minutes of work
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["report", "--quick", "--jobs", "4", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.no_cache is True


#: the sections whose quick run takes a few seconds at most
SHORT_SECTIONS = (
    "table1", "table2", "table3",
    "fig1", "fig2", "fig3", "fig4", "fig6", "fig8", "fig11",
)


@pytest.mark.parametrize("name", SHORT_SECTIONS)
def test_section_prints_the_quick_report_section(name, capsys):
    """``repro-power <section> --quick`` prints that section of the
    quick report byte for byte (a table takes no ``--quick``: it runs
    nothing)."""
    section = next(s for s in SECTIONS if s.name == name)
    argv = [name] + (["--quick"] if section.quick != section.full else [])
    assert main(argv) == 0
    assert capsys.readouterr().out == committed_sections()[section.title]


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away, as after ``| head``."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize(
    "argv", [["list"], ["table1"], ["lint", "--list-rules"]]
)
def test_closed_stdout_ends_without_a_traceback(argv, monkeypatch):
    """A reader that exits early ends the command with status 1 and no
    traceback, on the subcommands and on the ``lint`` dispatch."""
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == 1
