#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at toy sizes (about a minute).

    python3 perfbench/smoke.py

Checks that

* every workload runs correctly with tracing off and on, and prints
  every metric ``BENCHMARK.json`` names, each with its unit, both as a
  ``metric`` line and in the result object;
* an injected cap-sum break (a cluster workload) and a changed report
  table (the quick report) are caught: ``failed`` rises above 0 and
  ``correct`` turns false;
* a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files fails cleanly: nonzero exit, no result printed.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: the benchmarked workloads plus control-plane, which run.py keeps for
#: its per-layer breakdown.
WORKLOADS = [spec["name"] for spec in SPEC["workloads"]] + ["control-plane"]
#: scratch copy for the missing-program check (ignored by git).
SCRATCH = HERE / ".smoke"


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    """Run the benchmark once at toy size; (exit code, stdout)."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace),
        "--scale", "toy", *extra,
    ]
    done = subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return done.returncode, done.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"[{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = bench(workload, trace)
            label = f"{workload} trace={trace}"
            if code != 0:
                check(False, f"{label}: exit {code}")
                continue
            result = result_of(out)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0, f"{label}: correct")
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == wanted, f"{label}: every {key} metric with its unit")
            printed = {
                line.split()[1]: line.split()[3]
                for line in out.splitlines() if line.startswith("metric ")
            }
            check(printed == wanted, f"{label}: every metric line printed")

    for workload, inject in (("control-plane", "cap-sum"),
                             ("fleet-day", "cap-sum"),
                             ("paper-quick", "report-table")):
        code, out = bench(workload, 0, "--inject", inject)
        result = result_of(out) if code == 0 else {}
        check(
            result.get("failed", 0) > 0 and not result.get("correct", True),
            f"{workload} with injected {inject}: failed > 0",
        )

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        (SCRATCH / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        shutil.copytree(HERE, SCRATCH / "perfbench", dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns(".smoke", "__pycache__"))
        code, out = bench("fleet-day", 0, cwd=SCRATCH)
        check(code != 0 and not out.strip(),
              "benchmark files alone: nonzero exit, no result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    print("smoke: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
