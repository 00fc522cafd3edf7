"""Determinism sanitizer: canonical digests, divergence attribution.

The unit layer pins the digest format (exact float reprs, sorted
containers, stable hashing) and the attribution order (epoch, then
node, then field).  The last test injects a real divergence into a
live cluster run — a perturbed node report at one epoch — and asserts
the sanitizer names exactly that epoch, node, and field.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.sanitizer import (
    SANITIZE_ENV,
    StateDigest,
    canonical,
    compare_all,
    digest_fields,
    first_divergence,
    sanitize_enabled,
)
from repro.cluster.runtime import ClusterSim, run_cluster
from repro.experiments.cluster_exp import default_cluster_config


class TestCanonical:
    def test_floats_keep_exact_repr(self):
        assert canonical(0.1 + 0.2) == "0.30000000000000004"
        assert canonical(0.3) == "0.3"
        assert canonical(0.1 + 0.2) != canonical(0.3)

    def test_numpy_scalars_canonicalise_like_python_floats(self):
        assert canonical(np.float64(1.5)) == canonical(1.5)

    def test_bool_is_not_treated_as_int_or_float(self):
        assert canonical(True) is True
        assert canonical(1) == 1

    def test_mappings_sort_keys_and_recurse(self):
        assert canonical({"b": 2.0, "a": 1.0}) == {"a": "1.0", "b": "2.0"}

    def test_sets_become_sorted_lists(self):
        assert canonical({3, 1, 2}) == ["1", "2", "3"]

    def test_dataclasses_flatten_to_field_maps(self):
        @dataclasses.dataclass
        class Point:
            x: float
            y: float

        assert canonical(Point(1.0, 2.0)) == {"x": "1.0", "y": "2.0"}
        assert digest_fields(Point(1.0, 2.0)) == {"x": "1.0", "y": "2.0"}

    def test_sanitize_enabled_env_semantics(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert not sanitize_enabled()
        monkeypatch.setenv(SANITIZE_ENV, "0")
        assert not sanitize_enabled()
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert sanitize_enabled()


class TestStateDigest:
    def recording(self, label, power=10.0):
        digest = StateDigest(label)
        for epoch in range(3):
            for node in ("node0", "node1"):
                digest.record(
                    epoch, node, {"power": power, "epoch": epoch}
                )
        return digest

    def test_identical_recordings_agree(self):
        a = self.recording("serial")
        b = self.recording("fork")
        assert a.digest() == b.digest()
        assert first_divergence(a, b) is None
        assert compare_all([a, b]) is None

    def test_digest_is_insensitive_to_record_order(self):
        a = StateDigest("fwd")
        a.record(0, "n", {"x": 1.0})
        a.record(1, "n", {"x": 2.0})
        b = StateDigest("rev")
        b.record(1, "n", {"x": 2.0})
        b.record(0, "n", {"x": 1.0})
        assert a.digest() == b.digest()

    def test_first_divergence_names_epoch_node_field(self):
        a = self.recording("serial")
        b = self.recording("fork")
        b.record(1, "node1", {"power": 10.5, "epoch": 1})
        d = first_divergence(a, b)
        assert d is not None
        assert (d.epoch, d.node, d.field) == (1, "node1", "power")
        assert d.left == "10.0" and d.right == "10.5"
        assert "epoch 1" in d.describe()
        assert "'node1'" in d.describe()
        assert "'power'" in d.describe()

    def test_attribution_orders_epoch_before_node_before_field(self):
        a = self.recording("serial")
        b = self.recording("fork")
        # perturb a later epoch AND an earlier one: the earlier wins
        b.record(2, "node0", {"power": 9.0, "epoch": 2})
        b.record(1, "node0", {"power": 8.0, "epoch": 1})
        d = first_divergence(a, b)
        assert (d.epoch, d.node) == (1, "node0")

    def test_missing_row_uses_sentinel(self):
        a = self.recording("serial")
        b = self.recording("fork")
        rows = b.rows
        b._rows.pop((2, "node1"))
        d = first_divergence(a, b)
        assert (d.epoch, d.node, d.field) == (2, "node1", "<row>")
        assert d.right == "<missing>"
        assert rows  # the .rows property is a defensive copy
        assert (2, "node1") in rows

    def test_missing_field_uses_sentinel(self):
        a = StateDigest("l")
        b = StateDigest("r")
        a.record(0, "n", {"x": 1.0, "y": 2.0})
        b.record(0, "n", {"x": 1.0})
        d = first_divergence(a, b)
        assert d.field == "y"
        assert d.right == "<missing>"

    def test_compare_all_checks_everything_against_first(self):
        a = self.recording("ref")
        b = self.recording("same")
        c = self.recording("off", power=11.0)
        d = compare_all([a, b, c])
        assert d is not None
        assert d.right_label == "off"
        assert compare_all([]) is None
        assert compare_all([a]) is None


class TestClusterInjection:
    """The sanitizer catches a real injected divergence, attributed."""

    def config(self):
        return default_cluster_config(n_nodes=2, seed=7)

    def test_clean_runs_produce_identical_digests(self):
        left = run_cluster(self.config(), 30.0, sanitize=True)
        right = run_cluster(self.config(), 30.0, sanitize=True)
        assert left.sanitizer is not None
        assert len(left.sanitizer) == 6  # 3 epochs x 2 nodes
        assert compare_all([left.sanitizer, right.sanitizer]) is None

    def test_injected_report_perturbation_is_attributed(self):
        clean = run_cluster(self.config(), 30.0, sanitize=True)

        sim = ClusterSim(self.config(), sanitize=True)
        stepper = sim._ensure_stepper()
        true_step = stepper.step

        def perturbed_step(epoch, t0, t1, caps, safe, down, restarts,
                           idle):
            reports = true_step(
                epoch, t0, t1, caps, safe, down, restarts, idle
            )
            if epoch == 1:
                reports["node1"] = dataclasses.replace(
                    reports["node1"],
                    mean_power_w=reports["node1"].mean_power_w + 0.5,
                )
            return reports

        stepper.step = perturbed_step
        try:
            dirty = sim.run(30.0)
        finally:
            sim.close()

        d = first_divergence(clean.sanitizer, dirty.sanitizer)
        assert d is not None
        assert (d.epoch, d.node, d.field) == (1, "node1", "mean_power_w")
        assert "mean_power_w" in d.describe()

    def test_sanitizer_off_by_default(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        run = run_cluster(self.config(), 10.0)
        assert run.sanitizer is None
