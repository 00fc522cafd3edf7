"""Integration tests: parallel executor, cache round trip, fast path.

The contract under test is byte-identical results: a pool of workers, a
cache hit, or the array engine must each return *exactly* what a plain
serial run on the scalar engine returns.
"""

import dataclasses

import pytest

from repro.config import AppSpec, ExperimentConfig, build_stack
from repro.core.types import Priority
from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    ExperimentTask,
    resolve_jobs,
    run_tasks,
)
from repro.experiments.runner import run_steady

DURATION, WARMUP = 4.0, 1.0


def make_tasks():
    configs = [
        ExperimentConfig(
            platform="skylake",
            policy="frequency-shares",
            limit_w=limit,
            apps=(
                AppSpec("povray", shares=80.0),
                AppSpec("lbm", shares=20.0, priority=Priority.LOW),
            ),
            tick_s=5e-3,
        )
        for limit in (45.0, 55.0, 65.0)
    ]
    return [ExperimentTask(c, DURATION, WARMUP) for c in configs]


class TestRunTasks:
    def test_parallel_equals_serial(self):
        tasks = make_tasks()
        serial = run_tasks(tasks)
        parallel = run_tasks(tasks, jobs=2)
        assert serial == parallel  # dataclass equality: floats exact

    def test_results_are_input_ordered(self):
        tasks = make_tasks()
        results = run_tasks(tasks, jobs=2)
        assert [r.config for r in results] == [t.config for t in tasks]

    def test_rejects_non_tasks(self):
        with pytest.raises(ConfigError):
            run_tasks([make_tasks()[0].config])

    def test_cache_round_trip_is_exact(self, tmp_path):
        tasks = make_tasks()
        cache = ResultCache(root=tmp_path)
        first = run_tasks(tasks, cache=cache)
        assert cache.stats.stores == len(tasks)
        warm = run_tasks(tasks, jobs=2, cache=cache)
        assert warm == first
        assert cache.stats.hits == len(tasks)

    def test_partial_cache_mixes_hit_and_fresh(self, tmp_path):
        tasks = make_tasks()
        cache = ResultCache(root=tmp_path)
        run_tasks(tasks[:1], cache=cache)
        results = run_tasks(tasks, cache=cache)
        assert cache.stats.hits == 1
        assert results == run_tasks(tasks)


class TestResolveJobs:
    def test_default_is_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1

    def test_negative_means_all_cores(self):
        assert resolve_jobs(-1) >= 1

    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3


class TestFastPathFullStack:
    def test_fast_path_matches_reference_stack(self):
        """run_steady through the array engine equals the same config
        on the scalar engine, the reference, on a real policy stack."""
        results = []
        for engine in ("array", "scalar"):
            config = dataclasses.replace(
                make_tasks()[0].config, engine=engine
            )
            results.append(
                run_steady(
                    config, duration_s=DURATION, warmup_s=WARMUP,
                    stack=build_stack(config),
                )
            )
        fast, slow = results
        assert dataclasses.replace(fast, config=slow.config) == slow
