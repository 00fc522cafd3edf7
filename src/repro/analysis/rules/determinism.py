"""Determinism rule: no wall-clock or filesystem-order reads.

The reproduction's core contracts — byte-identical serial/stacked
steppers, content-addressed result caching, seeded fault replay — all
assume a simulated run is a pure function of its config.  Wall-clock
and filesystem-order reads break that silently: results still look
plausible, they just stop being reproducible.

RNG checks used to live here as per-file heuristics; they are now
owned by the interprocedural ``rng-provenance`` rule
(:mod:`repro.analysis.rules.rng_provenance`), which traces seeds
across call boundaries instead of guessing from one file.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, dotted_name
from repro.analysis.source import SourceFile

#: directories where simulated results are produced or aggregated;
#: wall-clock and filesystem-order reads are banned here.
DETERMINISTIC_SCOPES = ("/sim/", "/cluster/", "/fleet/", "/experiments/")

#: exact ``time`` module calls that read the host clock.
WALL_CLOCK_CALLS = frozenset(
    f"time.{name}" for name in (
        "time", "monotonic", "perf_counter", "process_time",
        "time_ns", "monotonic_ns", "perf_counter_ns", "clock_gettime",
    )
)

#: ``datetime``-style constructors reading the host clock.
DATE_ATTRS = frozenset({"now", "utcnow", "today"})

#: filesystem enumerations whose order is platform-dependent.
FS_ORDER_CALLS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})


def _sorted_wrapped(tree: ast.Module) -> set[int]:
    """ids of call nodes appearing directly inside ``sorted(...)``."""
    wrapped: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
        ):
            for arg in node.args:
                if isinstance(arg, ast.Call):
                    wrapped.add(id(arg))
    return wrapped


class DeterminismRule(Rule):
    name = "determinism"
    contract = (
        "Simulated results are pure functions of their config: code under "
        "sim/, cluster/, fleet/, and experiments/ must not read the host "
        "clock (time.time & friends, datetime.now) or enumerate the "
        "filesystem in platform order (os.listdir, glob) without sorting. "
        "RNG provenance is enforced by the rng-provenance rule."
    )
    design_ref = "DESIGN.md §10.2"
    hint = (
        "pass timestamps in as config; "
        "wrap filesystem listings in sorted(...)"
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        scoped = any(seg in f"/{src.path}" for seg in DETERMINISTIC_SCOPES)
        wrapped = _sorted_wrapped(src.tree) if scoped else set()
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if not dotted:
                continue
            if scoped and dotted in WALL_CLOCK_CALLS:
                yield self.finding(
                    src, node,
                    f"wall-clock read {dotted}() in a deterministic scope "
                    "(sim/cluster/experiments) — results must not depend "
                    "on host time",
                )
            elif (
                scoped
                and "." in dotted
                and dotted.rsplit(".", 1)[1] in DATE_ATTRS
                and "date" in dotted.rsplit(".", 1)[0].lower()
            ):
                yield self.finding(
                    src, node,
                    f"wall-clock read {dotted}() in a deterministic scope "
                    "(sim/cluster/experiments)",
                )
            elif (
                scoped
                and dotted in FS_ORDER_CALLS
                and id(node) not in wrapped
            ):
                yield self.finding(
                    src, node,
                    f"{dotted}() enumerates the filesystem in platform "
                    "order — wrap it in sorted(...)",
                )
