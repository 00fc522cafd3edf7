"""Span recording from outside the program: wrap public calls, aggregate.

The benchmark measures each layer without touching ``src/``: it
replaces a function or method with a timing wrapper at the place the
caller looks it up (a module attribute or a class attribute) and puts
the original back afterwards.  Spans are aggregated as they close, so
memory stays constant however many calls a run makes:

* **self time** of a span is its duration minus the time its child
  spans cover, so the self times of all layers partition the time spent
  inside top-level spans;
* **calls** and **inclusive time** count only the outermost span of a
  layer, so a layer that re-enters itself (a subclass calling
  ``super()``, ``Chip.advance_ticks`` calling ``Chip.tick``) is counted
  once per entry from another layer.

:class:`Probe` is the untraced run's lighter hook: it timestamps epoch
boundaries and times set-up calls, which every run needs.

:class:`Speedometer` makes those timestamps comparable across runs on a
shared host whose speed drifts by tens of percent within minutes.
About every half second it times a fixed pure-Python reference kernel
and advances a *reference clock* at ``REFERENCE_KERNEL_S / measured``
per host second: a second of host time while the kernel runs at its
reference speed counts as one second, and half a second when the host
runs at half speed.  Bursts themselves do not advance the clock.
"""

from __future__ import annotations

import bisect
import functools
import gc
import importlib
import time
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Iterator

clock = time.perf_counter


def resolve(module: str, attr: str) -> tuple[Any, str]:
    """The object holding ``attr`` (``"Class.method"`` or ``"name"``)."""
    owner: Any = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def patched(replacements: list[tuple[Any, str, Callable]]) -> Iterator[None]:
    """Install ``(owner, name, wrapper)`` replacements; always restore."""
    saved = []
    try:
        for owner, name, wrapper in replacements:
            saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, wrapper)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


#: host seconds the reference kernel takes at reference speed.
REFERENCE_KERNEL_S = 0.004

#: host seconds between reference-kernel bursts.
CALIBRATION_PERIOD_S = 0.5


def reference_kernel() -> int:
    """Fixed pure-Python work; its speed stands in for the host's."""
    total = 0
    for i in range(60000):
        total += i * i % 7
    return total


class Speedometer:
    """A clock that runs at the host's speed relative to reference."""

    def __init__(self, recorder: "SpanRecorder | None" = None) -> None:
        #: (host time, reference time, reference s per host s) at each
        #: burst end; the clock is linear between bursts.
        self._points: list[tuple[float, float, float]] = []
        self._starts: list[float] = []
        self.recorder = None
        self.calibrate()
        # bursts are kept out of span self times from here on
        self.recorder = recorder

    def at(self, host_t: float) -> float:
        """Reference seconds on this clock at host time ``host_t``."""
        i = max(bisect.bisect_right(self._starts, host_t) - 1, 0)
        start, ref, scale = self._points[i]
        return ref + (host_t - start) * scale

    def now(self) -> float:
        return self.at(clock())

    def calibrate(self) -> None:
        begin = clock()
        ref = self.at(begin) if self._points else 0.0
        best = float("inf")
        for _ in range(2):
            t0 = clock()
            reference_kernel()
            best = min(best, clock() - t0)
        end = clock()
        self._points.append((end, ref, REFERENCE_KERNEL_S / best))
        self._starts.append(end)
        if self.recorder is not None:
            self.recorder.exclude(end - begin)

    def tick(self) -> None:
        """Calibrate if the last burst is a period old."""
        if clock() - self._starts[-1] >= CALIBRATION_PERIOD_S:
            self.calibrate()

    def beat(self, fn: Callable) -> Callable:
        """Wrap a frequently called function to calibrate on schedule."""
        tick = self.tick

        @functools.wraps(fn)
        def beating(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return beating


class LayerStats:
    __slots__ = ("calls", "self_s", "incl_s", "units", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        #: extra work count some layers report (scalar ticks).
        self.units = 0
        #: open spans of this layer on the stack (re-entry guard).
        self.depth = 0


class SpanRecorder:
    """Per-layer aggregates of every span closed while installed."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        #: child time accumulated by each open span, innermost last.
        self._stack: list[list[float]] = []
        #: summed duration of spans with no parent.
        self.top_s = 0.0
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0
        #: host seconds spent in reference-kernel bursts, all of them
        #: and those that ran inside some span.
        self.excluded_s = 0.0
        self.excluded_in_spans_s = 0.0

    def exclude(self, seconds: float) -> None:
        """Keep a reference-kernel burst out of every layer's self time."""
        self.excluded_s += seconds
        if self._stack:
            self._stack[-1][0] += seconds
            self.excluded_in_spans_s += seconds

    def stats(self, layer: str) -> LayerStats:
        return self.layers.setdefault(layer, LayerStats())

    def wrap(
        self,
        layer: str,
        fn: Callable,
        units: Callable[..., int] | None = None,
    ) -> Callable:
        stats = self.stats(layer)
        stack = self._stack
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = stats.depth == 0
            frame = [0.0]
            stack.append(frame)
            stats.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stats.depth -= 1
                stack.pop()
                stats.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    recorder.top_s += duration
                if outer:
                    stats.calls += 1
                    stats.incl_s += duration
                    if units is not None:
                        stats.units += units(*args, **kwargs)

        return traced

    # -- garbage collector pauses (they overlap whatever span is open) --------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
        else:
            self.gc_pause_s += clock() - self._gc_start
            self.gc_collections += 1

    @contextmanager
    def gc_watch(self) -> Iterator[None]:
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)


class Probe:
    """Epoch timestamps and set-up timing for every run, traced or not.

    ``setup_s`` sums the outermost set-up calls and ``setup_calls``
    keeps them (function and arguments) so the set-up can be replayed;
    ``marks`` holds one ``(time, setup_s so far)`` pair per epoch start,
    so an epoch's time can exclude the set-up that fell inside it.  All
    times are read from the speedometer's reference clock.
    """

    def __init__(self, speed: Speedometer) -> None:
        self.speed = speed
        self.setup_s = 0.0
        self.setup_calls: list[tuple[Callable, tuple, dict]] = []
        self._in_setup = False
        self.marks: list[tuple[float, float]] = []
        #: per-receiver epoch marks (one series per daemon instance).
        self.keyed: list[list[tuple[float, float]]] = []

    def setup(self, fn: Callable) -> Callable:
        probe = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if probe._in_setup:
                return fn(*args, **kwargs)
            probe._in_setup = True
            start = probe.speed.now()
            try:
                return fn(*args, **kwargs)
            finally:
                probe.setup_s += probe.speed.now() - start
                probe._in_setup = False
                probe.setup_calls.append((fn, args, kwargs))

        return timed

    def epoch(self, fn: Callable) -> Callable:
        marks = self.marks
        probe = self

        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            marks.append((probe.speed.now(), probe.setup_s))
            return fn(*args, **kwargs)

        return stamped

    def keyed_epoch(self, fn: Callable) -> Callable:
        """Stamp per receiver: ``fn`` is a method, one series per ``self``
        (a dead receiver's ``id`` may be reused, so identity is checked
        through a weak reference)."""
        live: dict[int, tuple[weakref.ref, list]] = {}
        probe = self

        @functools.wraps(fn)
        def stamped(owner, *args, **kwargs):
            entry = live.get(id(owner))
            if entry is None or entry[0]() is not owner:
                entry = (weakref.ref(owner), [])
                live[id(owner)] = entry
                probe.keyed.append(entry[1])
            entry[1].append((probe.speed.now(), probe.setup_s))
            return fn(owner, *args, **kwargs)

        return stamped

    def replay_setup(self) -> float:
        """Re-run every recorded set-up call; reference seconds taken."""
        start = self.speed.now()
        for fn, args, kwargs in self.setup_calls:
            fn(*args, **kwargs)
            self.speed.tick()
        return self.speed.now() - start


def intervals_ms(
    marks: list[tuple[float, float]], end: tuple[float, float]
) -> list[float]:
    """Milliseconds between successive marks (the last closes at
    ``end``), each net of the set-up time that fell inside it."""
    points = marks + [end]
    return [
        1e3 * ((t1 - t0) - (s1 - s0))
        for (t0, s0), (t1, s1) in zip(points, points[1:])
    ]
