"""Tests for the declarative cluster configuration."""

import pytest

from repro.cluster import ClusterSim
from repro.cluster.config import (
    ClusterConfig,
    NodeSpec,
    cluster_config_from_jsonable,
    cluster_config_to_jsonable,
)
from repro.config import AppSpec
from repro.errors import ConfigError
from repro.fleet import DomainSpec
from repro.fleet.topology import rack_of_map

APPS = (AppSpec("leela", shares=50.0), AppSpec("cactusBSSN", shares=50.0))


def node(name="n0", **kwargs):
    return NodeSpec(name=name, apps=APPS, **kwargs)


class TestNodeSpec:
    def test_defaults(self):
        spec = node()
        assert spec.platform == "skylake"
        assert spec.policy == "frequency-shares"
        assert spec.shares == 1.0

    def test_max_cap_defaults_to_platform_tdp(self):
        from repro.hw.platform import get_platform

        assert node().resolved_max_cap_w() == pytest.approx(
            get_platform("skylake").power.tdp_watts
        )
        assert node(max_cap_w=33.0).resolved_max_cap_w() == 33.0

    def test_rejects_empty_name_and_apps(self):
        with pytest.raises(ConfigError):
            NodeSpec(name="", apps=APPS)
        with pytest.raises(ConfigError):
            NodeSpec(name="n0", apps=())

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            node(policy="telepathy")

    def test_rejects_unknown_fault_scenario(self):
        with pytest.raises(ConfigError):
            node(faults="not-a-scenario")

    def test_rejects_bad_cap_range(self):
        with pytest.raises(ConfigError):
            node(min_cap_w=0.0)
        with pytest.raises(ConfigError):
            node(min_cap_w=30.0, max_cap_w=20.0)

    def test_rejects_bad_lifecycle(self):
        with pytest.raises(ConfigError):
            node(joins_at_s=-1.0)
        with pytest.raises(ConfigError, match="not after"):
            node(joins_at_s=10.0, leaves_at_s=10.0)
        with pytest.raises(ConfigError, match="not after"):
            node(joins_at_s=10.0, crashes_at_s=5.0)
        with pytest.raises(ConfigError, match="both leave and crash"):
            node(leaves_at_s=20.0, crashes_at_s=30.0)


class TestClusterConfig:
    def test_epoch_seconds(self):
        config = ClusterConfig(budget_w=100.0, nodes=(node(),),
                               epoch_ticks=10, interval_s=1.0)
        assert config.epoch_s == 10.0

    def test_node_lookup(self):
        config = ClusterConfig(
            budget_w=100.0, nodes=(node("a"), node("b"))
        )
        assert config.node("b").name == "b"
        with pytest.raises(ConfigError):
            config.node("ghost")

    def test_rejects_duplicate_node_names(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ClusterConfig(budget_w=100.0, nodes=(node("a"), node("a")))

    def test_rejects_overcommitted_floors(self):
        with pytest.raises(ConfigError, match="floors"):
            ClusterConfig(
                budget_w=20.0,
                nodes=(node("a", min_cap_w=15.0),
                       node("b", min_cap_w=15.0)),
            )

    def test_rejects_bad_scalars(self):
        with pytest.raises(ConfigError):
            ClusterConfig(budget_w=0.0, nodes=(node(),))
        with pytest.raises(ConfigError):
            ClusterConfig(budget_w=100.0, nodes=())
        with pytest.raises(ConfigError):
            ClusterConfig(budget_w=100.0, nodes=(node(),), epoch_ticks=0)
        with pytest.raises(ConfigError):
            ClusterConfig(budget_w=100.0, nodes=(node(),), seed=-1)

    def test_topology_references_validated(self):
        # a hierarchy is a topology: the config rejects one that names
        # an unknown node, leaves a node out, or repeats a domain
        def config(*domains):
            return ClusterConfig(
                budget_w=100.0,
                nodes=(node("a"), node("b")),
                topology=DomainSpec("root", children=domains),
            )

        config(DomainSpec("prod", nodes=("a",)),
               DomainSpec("batch", nodes=("b",)))
        with pytest.raises(ConfigError, match="unknown nodes"):
            config(DomainSpec("prod", nodes=("a", "b", "ghost")))
        with pytest.raises(ConfigError, match="does not place"):
            config(DomainSpec("prod", nodes=("a",)))
        with pytest.raises(ConfigError, match="duplicate domain"):
            config(DomainSpec("prod", nodes=("a",)),
                   DomainSpec("prod", nodes=("b",)))

    def test_two_level_group_shares(self):
        # two pools are two child domains under one root: the config
        # keeps each pool's shares and the nodes it places in it
        config = ClusterConfig(
            budget_w=100.0,
            nodes=(node("a"), node("b")),
            topology=DomainSpec(
                "root",
                children=(
                    DomainSpec("prod", shares=3.0, nodes=("a",)),
                    DomainSpec("batch", nodes=("b",)),
                ),
            ),
        )
        pools = config.topology.children
        assert {d.name: d.shares for d in pools} == {
            "prod": 3.0, "batch": 1.0,
        }
        assert rack_of_map(config.topology) == {"a": "prod", "b": "batch"}

    def test_sim_accepts_only_in_process_jobs(self):
        config = ClusterConfig(budget_w=100.0, nodes=(node(),))
        for jobs in (None, 0, 1):
            ClusterSim(config, jobs=jobs)
        for jobs in (2, -1):
            with pytest.raises(ConfigError, match=f"jobs={jobs}"):
                ClusterSim(config, jobs=jobs)


class TestFaultSeeds:
    def test_distinct_per_node_derivation(self):
        config = ClusterConfig(
            budget_w=100.0, nodes=(node("a"), node("b")), seed=5
        )
        seeds = {config.node_fault_seed(i) for i in range(2)}
        assert len(seeds) == 2

    def test_explicit_seed_wins(self):
        config = ClusterConfig(
            budget_w=100.0, nodes=(node("a", fault_seed=99),)
        )
        assert config.node_fault_seed(0) == 99

    def test_different_cluster_seeds_differ(self):
        one = ClusterConfig(budget_w=100.0, nodes=(node(),), seed=1)
        two = ClusterConfig(budget_w=100.0, nodes=(node(),), seed=2)
        assert one.node_fault_seed(0) != two.node_fault_seed(0)


class TestJsonRoundTrip:
    def test_full_fidelity(self):
        config = ClusterConfig(
            budget_w=120.0,
            nodes=(
                node("a", shares=2.0, faults="flaky-msr"),
                node("b", joins_at_s=20.0,
                     crashes_at_s=50.0, max_cap_w=40.0),
            ),
            topology=DomainSpec(
                "facility",
                children=(
                    DomainSpec("prod", shares=2.0, nodes=("a",)),
                    DomainSpec("batch", nodes=("b",), ceiling_w=60.0),
                ),
            ),
            epoch_ticks=5,
            seed=7,
        )
        data = cluster_config_to_jsonable(config)
        import json

        json.dumps(data)  # must be pure JSON
        assert cluster_config_from_jsonable(data) == config
