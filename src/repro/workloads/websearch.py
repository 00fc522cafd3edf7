"""CloudSuite-websearch-like latency-sensitive workload.

The paper's unfair-throttling and latency experiments (sections 3.2 and
6.4, Figs 5, 12, 13) co-locate *websearch* — a multithreaded,
latency-sensitive service loaded with 300 users for 600 s — with the
*cpuburn* power virus, and report normalized 90th-percentile latencies.

We model websearch as a **closed-loop interactive cluster**: ``n_users``
users repeatedly think (exponential think time), submit a search request,
and wait for its response.  Requests queue FCFS onto the serving cores;
service demand is split into a frequency-scaled CPU part and a fixed
memory part, so throttling the serving cores inflates service times and,
through queueing, blows up the latency tail — the convex degradation
Fig 5 shows below 40 W.

The closed loop is essential: an open Poisson stream would diverge to
infinite latency under throttling, while 300 closed users saturate
gracefully exactly as the measured system does.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import percentile


@dataclass(frozen=True)
class WebsearchConfig:
    """Tunables for the websearch cluster.

    Defaults are calibrated so nine serving cores at 3 GHz draw roughly
    the 44 W the paper reports and run at moderate utilization, leaving
    latency healthy at 85 W and collapsing below ~40 W package limits.
    """

    n_users: int = 300
    #: mean think time between a user's requests, seconds.
    think_time_s: float = 1.0
    #: mean CPU service demand per request at the reference frequency, s.
    service_cpu_s: float = 0.010
    #: frequency-invariant (memory/IO) part of each request, seconds.
    service_mem_s: float = 0.008
    #: reference frequency for the CPU part, MHz.
    reference_mhz: float = 3000.0
    #: effective capacitance while serving (low demand per core).
    c_eff: float = 0.62
    base_ipc: float = 1.1
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.n_users <= 0:
            raise ConfigError("websearch needs at least one user")
        if min(self.think_time_s, self.service_cpu_s) <= 0:
            raise ConfigError("think and CPU service times must be positive")
        if self.service_mem_s < 0:
            raise ConfigError("memory service time cannot be negative")

    def service_time_s(self, frequency_mhz: float) -> float:
        """Mean request service time on a core at ``frequency_mhz``."""
        return (
            self.service_cpu_s * self.reference_mhz / frequency_mhz
            + self.service_mem_s
        )


@dataclass
class _Request:
    submitted_at: float
    #: remaining CPU work, expressed in reference-frequency seconds.
    cpu_work_s: float
    #: remaining memory work, in wall seconds.
    mem_work_s: float


@dataclass
class _CoreState:
    current: _Request | None = None
    busy_time_s: float = 0.0
    instructions: float = 0.0
    #: lifetime busy seconds; unlike ``busy_time_s`` this survives
    #: :meth:`WebsearchCluster.take_core_sample`.
    total_busy_s: float = 0.0


class WebsearchCluster:
    """Closed-loop request-serving cluster spread over a set of cores.

    Drive it from the simulation by calling :meth:`advance` every tick
    with the current per-core frequencies; attach its per-core loads to
    simulated cores via :meth:`core_load` (see
    :class:`repro.sim.core.ClusterCoreLoad`).
    """

    def __init__(self, core_ids: list[int], config: WebsearchConfig | None = None):
        if not core_ids:
            raise ConfigError("websearch cluster needs serving cores")
        if len(set(core_ids)) != len(core_ids):
            raise ConfigError("duplicate serving core ids")
        self.config = config or WebsearchConfig()
        self.core_ids = list(core_ids)
        self._rng = random.Random(self.config.seed)
        self._queue: list[_Request] = []
        self._cores: dict[int, _CoreState] = {c: _CoreState() for c in core_ids}
        #: (core id, state) in serving order, for the per-tick loop
        self._serving = [(c, self._cores[c]) for c in self.core_ids]
        #: (wakeup_time, sequence) heap of thinking users.
        self._thinkers: list[tuple[float, int]] = []
        self._think_seq = 0
        self._latencies: list[float] = []
        self._completed = 0
        self._now = 0.0
        for _ in range(self.config.n_users):
            self._schedule_think(0.0)

    # -- internal helpers ----------------------------------------------------

    def _schedule_think(self, now: float) -> None:
        wake = now + self._rng.expovariate(1.0 / self.config.think_time_s)
        heapq.heappush(self._thinkers, (wake, self._think_seq))
        self._think_seq += 1

    def _new_request(self, now: float) -> _Request:
        cfg = self.config
        cpu = self._rng.expovariate(1.0 / cfg.service_cpu_s)
        mem = (
            self._rng.expovariate(1.0 / cfg.service_mem_s)
            if cfg.service_mem_s > 0
            else 0.0
        )
        return _Request(submitted_at=now, cpu_work_s=cpu, mem_work_s=mem)

    def _admit_arrivals(self, until: float) -> None:
        while self._thinkers and self._thinkers[0][0] <= until:
            wake, _seq = heapq.heappop(self._thinkers)
            self._queue.append(self._new_request(max(wake, self._now)))

    # -- simulation interface --------------------------------------------------

    def advance(self, dt_s: float, core_freqs_mhz: dict[int, float]) -> None:
        """Advance the cluster by ``dt_s`` at the given core frequencies.

        Requests in service consume frequency-scaled CPU work then fixed
        memory work; a core may complete several short requests within one
        tick.  Completed requests record their latency and put the user
        back to thinking.
        """
        if dt_s <= 0:
            raise ConfigError("dt must be positive")
        end = self._now + dt_s
        thinkers = self._thinkers
        queue = self._queue
        if thinkers and thinkers[0][0] <= end:
            self._admit_arrivals(end)
        cfg = self.config
        reference_mhz = cfg.reference_mhz
        base_ipc = cfg.base_ipc
        latencies = self._latencies
        for core_id, state in self._serving:
            freq = core_freqs_mhz.get(core_id)
            if freq is None or freq <= 0:
                continue  # core parked: requests wait in queue
            req = state.current
            if req is None and not queue:
                continue  # nothing to serve
            budget = dt_s
            scale = reference_mhz / freq  # CPU seconds -> wall seconds
            while budget > 1e-12:
                if req is None:
                    if not queue:
                        break
                    req = state.current = queue.pop(0)
                # serve CPU part first, then memory part
                cpu_wall = req.cpu_work_s * scale
                if cpu_wall > budget:
                    consumed_cpu = budget / scale
                    req.cpu_work_s -= consumed_cpu
                    state.busy_time_s += budget
                    state.total_busy_s += budget
                    state.instructions += base_ipc * freq * 1e6 * budget
                    budget = 0.0
                    break
                budget -= cpu_wall
                state.busy_time_s += cpu_wall
                state.total_busy_s += cpu_wall
                state.instructions += base_ipc * freq * 1e6 * cpu_wall
                req.cpu_work_s = 0.0
                mem_wall = req.mem_work_s
                if mem_wall > budget:
                    req.mem_work_s = mem_wall - budget
                    state.busy_time_s += budget
                    state.total_busy_s += budget
                    budget = 0.0
                    break
                budget -= mem_wall
                state.busy_time_s += mem_wall
                state.total_busy_s += mem_wall
                finish_time = end - budget
                # sub-tick approximation: arrivals admitted mid-tick can
                # be served by budget that notionally preceded them;
                # completion cannot precede submission, so clamp
                latency = max(finish_time - req.submitted_at, 1e-9)
                latencies.append(latency)
                self._completed += 1
                self._schedule_think(finish_time)
                req = state.current = None
                if thinkers and thinkers[0][0] <= end:
                    self._admit_arrivals(end)
        self._now = end

    # -- results ---------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def completed_requests(self) -> int:
        return self._completed

    def queue_length(self) -> int:
        return len(self._queue)

    def latency_percentile(self, pct: float = 90.0) -> float:
        """Percentile of completed-request latency, seconds."""
        if not self._latencies:
            raise ConfigError("no completed requests yet")
        return percentile(self._latencies, pct)

    def throughput(self) -> float:
        """Completed requests per second since the start."""
        if self._now <= 0:
            return 0.0
        return self._completed / self._now

    def core_utilization(self, core_id: int) -> float:
        """Lifetime busy fraction of one serving core."""
        if self._now <= 0:
            return 0.0
        return self._cores[core_id].total_busy_s / self._now

    def take_core_sample(self, core_id: int) -> tuple[float, float]:
        """Consume and return (busy_seconds, instructions) accumulated on a
        core since the last call.  Used by the per-core load adapter."""
        state = self._cores[core_id]
        sample = (state.busy_time_s, state.instructions)
        state.busy_time_s = 0.0
        state.instructions = 0.0
        return sample

    def reset_latency_window(self) -> None:
        """Discard recorded latencies (e.g. to drop warm-up samples)."""
        self._latencies.clear()

    def latencies(self) -> list[float]:
        return list(self._latencies)
