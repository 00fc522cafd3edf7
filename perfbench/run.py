#!/usr/bin/env python3
"""Repository benchmark: fleet-day, control-plane and paper-quick.

    python3 perfbench/run.py --workload fleet-day --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` tree.  Every metric is printed as ``metric <name> <value>
<unit>``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` makes ``round(seconds / pass)`` untraced passes (at
  least one) of identical work and reports the end-to-end metrics:
  wall time and epoch percentiles from each epoch's fastest pass, and
  the median of several set-up samples (each pass's own plus replays
  of its set-up).
* ``--trace 1`` makes one untraced and one traced pass and reports the
  per-layer table from the traced one; both passes must produce the
  same output byte for byte.

``--record`` stores the first pass's output as the committed expected
output for the seed (``perfbench/expected/``).  ``--scale toy`` and
``--inject`` exist for ``perfbench/smoke.py``.  See
``perfbench/NOTES.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program() -> str | None:
    """Import ``repro`` from this checkout's ``src``; error text or None."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program source at {SRC / 'repro'}"
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        return f"cannot import repro from {SRC}: {exc}"
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        return f"repro imported from {origin}, not from {SRC}"
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_revision() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        return out[1]
    return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(args, passes: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git": _git_revision(),
        "src_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "passes": passes,
    }


def percentile(values: list[float], pct: int, weighted: bool) -> float:
    """The ``pct``-th percentile of ``values``; ``weighted`` takes it over
    time instead of over samples (the value below which ``pct`` % of
    the summed time lies)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    if not weighted:
        return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    ordered = sorted(values)
    target = pct / 100.0 * sum(ordered)
    total = 0.0
    for value in ordered:
        total += value
        if total >= target:
            return value
    return ordered[-1]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fastest(passes) -> tuple[float, list[float]]:
    """Wall seconds and per-epoch ms, each epoch at its fastest pass.

    Passes of one run repeat identical work, so epoch ``i`` of every
    pass did the same thing; a host slowdown only ever adds time, and
    the fastest pass of each epoch is the least disturbed estimate of
    it (``timeit``'s best-of-N, taken per epoch).  Time outside epochs
    is likewise taken from the fastest pass.  With one pass this is
    simply that pass's wall and epochs.
    """
    series = [p.epoch_ms for p in passes]
    if len({len(s) for s in series}) != 1:
        return statistics.median(p.wall_s for p in passes), series[0]
    epochs = [min(column) for column in zip(*series)]
    outside = min(p.wall_s - sum(p.epoch_ms) / 1e3 for p in passes)
    return outside + sum(epochs) / 1e3, epochs


def end_to_end(passes, setups, weighted) -> dict[str, tuple[float, str]]:
    wall_s, epochs = fastest(passes)
    return {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "epoch_ms_p50": (percentile(epochs, 50, weighted), "ms"),
        "epoch_ms_p90": (percentile(epochs, 90, weighted), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(untraced, traced, recorder) -> dict[str, tuple[float, str]]:
    from layers import LAYERS

    # host seconds of the traced pass outside reference-kernel bursts
    wall = traced.host_s - recorder.excluded_s
    out: dict[str, tuple[float, str]] = {}
    layer_self = 0.0
    for layer in LAYERS:
        if layer == "python.gc":
            calls, self_s = recorder.gc_collections, recorder.gc_pause_s
            incl_s = self_s
        else:
            stats = recorder.stats(layer)
            calls, self_s, incl_s = stats.calls, stats.self_s, stats.incl_s
            layer_self += self_s
        out[f"{layer}.calls"] = (float(calls), "count")
        out[f"{layer}.self_pct"] = (100.0 * self_s / wall, "%")
        out[f"{layer}.us_per_call"] = (
            1e6 * incl_s / calls if calls else 0.0, "us"
        )
    other = wall - (recorder.top_s - recorder.excluded_in_spans_s)
    out["sim.chip.scalar_ticks"] = (
        float(recorder.stats("sim.chip.scalar").units), "count"
    )
    out["cluster.runtime.other.self_pct"] = (100.0 * other / wall, "%")
    out["trace.layer_sum_pct"] = (100.0 * (layer_self + other) / wall, "%")
    out["trace.overhead_pct"] = (
        100.0 * (traced.total_s / untraced.total_s - 1.0), "%"
    )
    out["trace.wall_s"] = (traced.total_s, "s")
    units = {
        "sim.node_s_per_host_s": "s/s",
        "cluster.transport.delivered_ratio": "ratio",
        "fleet.arbiter.reuse_ratio": "ratio",
        "cluster.trust.violations": "count",
        "cluster.journal.bytes": "bytes",
    }
    for name, unit in units.items():
        out[name] = (untraced.extras.get(name, 0.0), unit)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--inject", choices=("cap-sum", "report-table"))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    error = _import_program()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import checks
    from spans import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload; known: {', '.join(WORKLOADS)}")

    def attempt(recorder=None, first=False):
        try:
            return workload.run_pass(
                args.seed, args.scale, recorder=recorder, inject=args.inject,
                first=first,
            )
        except Exception:  # an operation that raises is counted failed
            traceback.print_exc()
            return None
        finally:
            gc.collect()

    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        passes = [attempt(first=True), attempt(recorder)]
    else:
        count = max(1, round(args.seconds / workload.pass_s))
        passes = [attempt(first=i == 0) for i in range(count)]
    done = [p for p in passes if p is not None]

    if workload.epochs is None:
        verdict = checks.judge_report(args.scale, passes)
    else:
        verdict = checks.judge_cluster(
            args.workload, args.seed, args.scale, passes,
            workload.epochs(args.scale),
        )

    metrics: dict[str, tuple[float, str]] = {}
    if len(done) == len(passes):
        if args.trace:
            metrics = per_layer(done[0], done[1], recorder)
        else:
            setups = [p.setup_s for p in done] + [
                workload.replay_setup(args.seed, args.scale, done[-1])
                for _ in range(workload.setup_samples - len(done))
            ]
            metrics = end_to_end(done, setups, workload.weighted_epochs)
            print(f"samples epochs={len(done[0].epoch_ms)} x {len(done)} "
                  f"passes, setups={len(setups)}")
            print("counters " + json.dumps(done[0].counters, sort_keys=True))
    if args.record and verdict.failed == 0 and done:
        path = checks.record(args.workload, args.seed, args.scale, done[0])
        print(f"recorded {path.relative_to(ROOT)}")

    print("fingerprint " + json.dumps(fingerprint(args, len(passes))))
    for problem in verdict.problems:
        print(f"problem {problem}")
    failed_frac = verdict.failed / verdict.attempted if verdict.attempted else 1.0
    print(f"failed_frac {failed_frac:.6g} ({verdict.failed}/{verdict.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": verdict.correct and bool(metrics),
        "attempted": max(verdict.attempted, 1),
        "failed": verdict.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
