"""Output checks: every operation is judged, failures are counted.

An operation is an epoch of a cluster workload or a section of the
quick report.  It fails when its pass raised, when it broke the cap-sum
invariant (granted plus reserved watts above the budget), or when its
output differs from the reference: the committed expected output where
one is recorded for the seed, otherwise the run's first pass (so the
passes of one run, traced and untraced alike, must agree byte for
byte).  A cluster pass whose modelled counters differ from the
committed ones fails every epoch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from workloads import COUNTERS, PassResult, report_sections

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: hex digits kept per committed epoch digest.
SHORT = 16


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _cluster_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def _report_path(scale: str) -> Path:
    suffix = "" if scale == "full" else f".{scale}"
    return EXPECTED_DIR / f"paper-quick{suffix}.txt"


def cluster_reference(workload: str, seed: int, scale: str) -> dict | None:
    """The committed expectation for this seed, if one was recorded."""
    path = _cluster_path(workload)
    if scale != "full" or not path.is_file():
        return None
    return json.loads(path.read_text()).get("seeds", {}).get(str(seed))


def judge_cluster(
    workload: str,
    seed: int,
    scale: str,
    passes: list[PassResult | None],
    nominal_epochs: int,
) -> Verdict:
    verdict = Verdict()
    reference = cluster_reference(workload, seed, scale)
    if reference is not None:
        ref_ops = reference["epochs"]
    else:
        first = next((p for p in passes if p is not None), None)
        ref_ops = (
            [d[:SHORT] for d in first.op_digests] if first
            else [""] * nominal_epochs
        )
    for index, result in enumerate(passes):
        verdict.attempted += len(ref_ops)
        if result is None:
            verdict.failed += len(ref_ops)
            verdict.problems.append(f"pass {index} raised")
            continue
        bad = set(result.broken)
        if bad:
            verdict.problems.append(
                f"pass {index}: cap-sum broken at epochs {sorted(bad)[:8]}"
            )
        ops = [d[:SHORT] for d in result.op_digests]
        differ = {
            i for i, ref in enumerate(ref_ops)
            if i >= len(ops) or ops[i] != ref
        }
        if differ:
            verdict.problems.append(
                f"pass {index}: journal differs at epochs "
                f"{sorted(differ)[:8]}"
            )
        bad |= differ
        if reference is not None and result.digest != reference["journal_sha256"]:
            verdict.problems.append(f"pass {index}: journal SHA-256 differs")
        if reference is not None and result.counters:
            wrong = {
                name: (result.counters[name], reference["counters"][name])
                for name in COUNTERS
                if result.counters[name] != reference["counters"][name]
            }
            if wrong:
                verdict.problems.append(
                    f"pass {index}: counters (got, expected) {wrong}"
                )
                bad = set(range(len(ref_ops)))
        verdict.failed += len(bad)
    return verdict


def judge_report(scale: str, passes: list[PassResult | None]) -> Verdict:
    verdict = Verdict()
    path = _report_path(scale)
    if not path.is_file():
        verdict.problems.append(f"no expected report {path.name}")
        return verdict
    expected = report_sections(path.read_text())
    for index, result in enumerate(passes):
        verdict.attempted += len(expected)
        if result is None:
            verdict.failed += len(expected)
            verdict.problems.append(f"pass {index} raised")
            continue
        got = report_sections(result.text)
        differ = [
            section.splitlines()[0] if section else f"#{i}"
            for i, section in enumerate(expected)
            if i >= len(got) or got[i] != section
        ]
        if differ:
            verdict.problems.append(
                f"pass {index}: sections differ: {differ}"
            )
        verdict.failed += len(differ)
        if result.counters.get("cap_violations") != 0:
            verdict.problems.append(
                f"pass {index}: cluster section cap violations "
                f"{result.counters.get('cap_violations')}"
            )
    return verdict


def record(workload: str, seed: int, scale: str, result: PassResult) -> Path:
    """Commit ``result`` as the expected output for this seed/scale."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    if workload == "paper-quick":
        path = _report_path(scale)
        path.write_text(result.text)
        return path
    if scale != "full":
        raise ValueError("cluster expectations are recorded at full scale")
    path = _cluster_path(workload)
    data = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
    data["seeds"][str(seed)] = {
        "journal_sha256": result.digest,
        "counters": {name: result.counters[name] for name in COUNTERS},
        "epochs": [d[:SHORT] for d in result.op_digests],
    }
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path
