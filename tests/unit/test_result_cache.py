"""Tests for the on-disk experiment result cache."""

import json

import pytest

from repro.config import AppSpec, ExperimentConfig
from repro.core.types import Priority
from repro.experiments.cache import (
    CACHE_VERSION,
    ResultCache,
    cache_disabled_by_env,
    cache_key,
    cluster_cache_key,
)
from repro.experiments.cluster_exp import default_cluster_config
from repro.experiments.runner import SteadyAppResult, SteadyRunResult


def make_config(**overrides):
    base = dict(
        platform="skylake",
        policy="frequency-shares",
        limit_w=45.0,
        apps=(
            AppSpec("leela", shares=60.0),
            AppSpec("lbm", shares=40.0, priority=Priority.LOW),
        ),
        tick_s=5e-3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def make_result(config):
    # awkward floats on purpose: the cache must round-trip them exactly
    return SteadyRunResult(
        config=config,
        mean_package_power_w=0.1 + 0.2,
        apps=(
            SteadyAppResult(
                label="leela#0",
                mean_frequency_mhz=2199.9999999999998,
                mean_ips=1.23e9 / 3.0,
                mean_power_w=None,
                normalized_performance=2.0 / 3.0,
                parked_fraction=0.0,
            ),
            SteadyAppResult(
                label="lbm#1",
                mean_frequency_mhz=1400.0,
                mean_ips=7.7e8,
                mean_power_w=6.25,
                normalized_performance=0.5,
                parked_fraction=1.0 / 3.0,
            ),
        ),
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path)


class TestRoundTrip:
    def test_miss_then_exact_hit(self, cache):
        config = make_config()
        assert cache.get(config, 10.0, 2.0) is None
        result = make_result(config)
        cache.put(config, 10.0, 2.0, result)
        hit = cache.get(config, 10.0, 2.0)
        assert hit == result  # dataclass equality: every float exact
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1

    def test_none_power_survives(self, cache):
        config = make_config()
        cache.put(config, 10.0, 2.0, make_result(config))
        hit = cache.get(config, 10.0, 2.0)
        assert hit.apps[0].mean_power_w is None
        assert hit.apps[1].mean_power_w == 6.25


class TestKeying:
    def test_key_is_stable(self):
        assert cache_key(make_config(), 10.0, 2.0) == cache_key(
            make_config(), 10.0, 2.0
        )

    @pytest.mark.parametrize(
        "change",
        [
            dict(limit_w=50.0),
            dict(policy="performance-shares"),
            dict(platform="ryzen"),
            dict(tick_s=1e-3),
            dict(apps=(AppSpec("leela", shares=61.0),
                       AppSpec("lbm", shares=40.0, priority=Priority.LOW))),
            dict(apps=(AppSpec("leela", shares=60.0),
                       AppSpec("lbm", shares=40.0))),
            dict(faults="full-storm"),
        ],
    )
    def test_config_change_changes_key(self, change):
        assert cache_key(make_config(), 10.0, 2.0) != cache_key(
            make_config(**change), 10.0, 2.0
        )

    def test_duration_and_warmup_change_key(self):
        base = cache_key(make_config(), 10.0, 2.0)
        assert cache_key(make_config(), 11.0, 2.0) != base
        assert cache_key(make_config(), 10.0, 2.5) != base

    def test_distinct_configs_do_not_collide(self, cache):
        a, b = make_config(), make_config(limit_w=50.0)
        cache.put(a, 10.0, 2.0, make_result(a))
        assert cache.get(b, 10.0, 2.0) is None


class TestCorruption:
    def _entry_path(self, cache, config):
        cache.put(config, 10.0, 2.0, make_result(config))
        paths = list(cache.root.rglob("*.json"))
        assert len(paths) == 1
        return paths[0]

    def test_corrupt_entry_is_dropped(self, cache):
        config = make_config()
        path = self._entry_path(cache, config)
        path.write_text("{not json")
        assert cache.get(config, 10.0, 2.0) is None
        assert not path.exists()

    def test_schema_mismatch_is_dropped(self, cache):
        config = make_config()
        path = self._entry_path(cache, config)
        data = json.loads(path.read_text())
        data["schema"] = -1
        path.write_text(json.dumps(data))
        assert cache.get(config, 10.0, 2.0) is None
        assert not path.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[]",  # JSON, but not an entry
            # a single-socket entry's shape: no cluster kind
            json.dumps({"schema": CACHE_VERSION, "result": {}}),
        ],
    )
    def test_corrupt_cluster_entry_is_dropped(self, cache, text):
        config = default_cluster_config(n_nodes=2)
        path = cache._path(cluster_cache_key(config, 10.0, 2.0))
        path.parent.mkdir(parents=True)
        path.write_text(text)
        assert cache.get_cluster(config, 10.0, 2.0) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0
        assert not path.exists()


class TestEnvironment:
    def test_no_cache_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert cache_disabled_by_env()
        assert ResultCache.from_env() is None

    def test_falsy_env_values_keep_cache(self, monkeypatch):
        for value in ("", "0", "false"):
            monkeypatch.setenv("REPRO_NO_CACHE", value)
            assert not cache_disabled_by_env()

    def test_caller_disable_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert ResultCache.from_env(enabled=False) is None

    def test_cache_dir_env_relocates(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = ResultCache.from_env()
        assert cache is not None
        config = make_config()
        cache.put(config, 10.0, 2.0, make_result(config))
        assert list((tmp_path / "alt").rglob("*.json"))
