"""Unit tests for the untrusted-telemetry defense layer.

:mod:`repro.cluster.trust` in isolation: the demand validator's model
envelope (seeding, clamping, consistency, staleness), the exactness of
the vectorized screen against per-report validation on adversarial
batches, trust decay/probation/recovery and the documented quarantine
bound, and the brownout ladder's hysteresis and shedding order.  Two
arbiter-level checks: one drives the arbiters' report ingest against an
oracle that validates every report, one pins BROWNOUT1 claims on both
arbiters.
"""

import dataclasses
import math
import random

import pytest

from repro.cluster import ClusterArbiter, ClusterConfig, DEMAND_SLACK, NodeSpec
from repro.cluster.node import NodeEpochReport
from repro.cluster.trust import (
    BOOT_FLOOR_FACTOR,
    BROWNOUT_ENTER_EPOCHS,
    BROWNOUT_EXIT_EPOCHS,
    BROWNOUT_FLOOR_FRACTION,
    BROWNOUT_LEVELS,
    BrownoutController,
    CAP_OVERAGE,
    DemandValidator,
    PLATFORM_MARGIN,
    QUARANTINE_THRESHOLD,
    RATE_GROWTH,
    TRUST_DECAY,
    TRUST_PROBATION_EPOCHS,
    TRUST_RECOVERY,
    TrustBook,
    brownout_claim_bounds,
)
from repro.config import AppSpec
from repro.experiments.fleet_exp import fleet_config
from repro.fleet.arbiter import FleetArbiter

FLOOR_W = 12.0
MAX_CAP_W = 95.0


def report(
    name="n0",
    epoch=1,
    cap_w=45.0,
    power=30.0,
    throttle=0.2,
    headroom=None,
    samples=10,
):
    if headroom is None:
        headroom = max(cap_w - power, 0.0)
    return NodeEpochReport(
        name=name,
        epoch=epoch,
        t_end_s=epoch * 10.0,
        cap_w=cap_w,
        mean_power_w=power,
        throttle_pressure=throttle,
        headroom_w=headroom,
        parked_cores=0,
        quarantined_cores=0,
        samples=samples,
    )


def validate(validator, rep, *, epoch=None, granted=45.0):
    return validator.validate(
        rep,
        epoch=rep.epoch if epoch is None else epoch,
        floor_w=FLOOR_W,
        max_cap_w=MAX_CAP_W,
        granted_w=granted,
    )


class TestDemandValidator:
    def test_clean_report_passes_byte_identical(self):
        v = DemandValidator(3)
        rep = report()
        checked, broken = validate(v, rep)
        assert broken == ()
        assert checked == rep

    def test_first_report_held_only_to_platform_bound(self):
        # boot overshoot above the granted cap is plausible; above the
        # platform envelope is not.
        v = DemandValidator(3)
        hot = report(power=MAX_CAP_W * PLATFORM_MARGIN - 1.0,
                     cap_w=MAX_CAP_W)
        _, broken = validate(v, hot, granted=None)
        assert broken == ()
        v2 = DemandValidator(3)
        impossible = report(power=MAX_CAP_W * PLATFORM_MARGIN + 5.0)
        checked, broken = validate(v2, impossible, granted=None)
        assert "exceeds-platform" in broken
        assert checked.mean_power_w <= MAX_CAP_W * PLATFORM_MARGIN

    def test_rate_limit_engages_after_seeding(self):
        v = DemandValidator(3)
        validate(v, report(epoch=1, power=30.0))
        jump = report(epoch=2, power=80.0, cap_w=45.0)
        checked, broken = validate(v, jump)
        assert "implausible-demand" in broken
        ceiling = max(
            45.0 * CAP_OVERAGE,
            FLOOR_W * BOOT_FLOOR_FACTOR,
            30.0 * RATE_GROWTH,
        )
        assert checked.mean_power_w == pytest.approx(ceiling)

    def test_throttle_range_clamped(self):
        v = DemandValidator(3)
        checked, broken = validate(v, report(throttle=1.7))
        assert "throttle-range" in broken
        assert checked.throttle_pressure == 1.0

    def test_inconsistent_headroom_flagged(self):
        v = DemandValidator(3)
        _, broken = validate(v, report(power=30.0, headroom=40.0))
        assert "inconsistent-headroom" in broken

    def test_non_finite_falls_back_to_last_accepted(self):
        v = DemandValidator(3)
        validate(v, report(epoch=1, power=30.0))
        checked, broken = validate(
            v, report(epoch=2, power=math.nan, headroom=math.nan)
        )
        assert "non-finite" in broken
        assert checked.mean_power_w == 30.0
        assert math.isfinite(checked.headroom_w)

    def test_stale_payload_flagged_past_ttl(self):
        v = DemandValidator(3)
        _, broken = validate(v, report(epoch=1), epoch=5)
        assert "stale-payload" in broken
        v2 = DemandValidator(3)
        _, broken = validate(v2, report(epoch=2), epoch=5)
        assert broken == ()

    def test_restore_keeps_anchors(self):
        v = DemandValidator(3)
        validate(v, report(epoch=1, power=30.0))
        state = v.snapshot()
        fresh = DemandValidator(3)
        fresh.restore(state)
        # the anchor survives: the rate limit still binds
        _, broken = validate(fresh, report(epoch=2, power=80.0))
        assert "implausible-demand" in broken


def _adversarial_report(rng, name, epoch):
    power = rng.choice(
        [
            rng.uniform(5.0, 90.0),
            rng.uniform(90.0, 400.0),
            -rng.uniform(0.0, 20.0),
            math.nan,
            math.inf,
        ]
    )
    cap = rng.choice(
        [rng.uniform(10.0, 95.0), rng.uniform(95.0, 300.0), -5.0]
    )
    throttle = rng.choice(
        [rng.uniform(0.0, 1.0), 1.5, -0.2, math.nan]
    )
    headroom = rng.choice(
        [
            max(cap - power, 0.0)
            if math.isfinite(cap - power)
            else 0.0,
            rng.uniform(0.0, 50.0),
            math.nan,
        ]
    )
    return report(
        name=name,
        epoch=rng.choice([epoch, epoch, epoch, epoch - 5]),
        cap_w=cap,
        power=power,
        throttle=throttle,
        headroom=headroom,
    )


class TestScreenEquivalence:
    """The screen's promise: screening is *exactly* per-report
    validation — verdicts, clamped reports, validator state, and trust
    state all byte-identical on adversarial batches."""

    @pytest.mark.parametrize("seed", [0xBEEF, 7, 2026])
    def test_screen_plus_validate_matches_validate_all(self, seed):
        rng = random.Random(seed)
        n_nodes, n_epochs = 150, 10
        names = [f"n{i:04d}" for i in range(n_nodes)]
        floors = {n: FLOOR_W for n in names}
        maxes = {n: MAX_CAP_W for n in names}
        screened = DemandValidator(3)
        reference = DemandValidator(3)
        trust_a, trust_b = TrustBook(), TrustBook()
        #: node -> its last reading accepted with no violation
        last_clean = {}

        for epoch in range(n_epochs):
            granted = {n: rng.uniform(10.0, 90.0) for n in names}
            reports = []
            for name in names:
                if (
                    epoch > 0
                    and rng.random() < 0.7
                    and name in last_clean
                ):
                    # a settled node repeating its last clean reading
                    t = last_clean[name]
                    reports.append(
                        report(
                            name=name,
                            epoch=epoch,
                            cap_w=t.cap_w,
                            power=t.mean_power_w,
                            throttle=t.throttle_pressure,
                            headroom=t.headroom_w,
                        )
                    )
                else:
                    reports.append(
                        _adversarial_report(rng, name, epoch)
                    )

            # path A: screen, then validate only the residue
            outs_a = list(reports)
            viols_a = {}
            residue = screened.screen(
                reports,
                names,
                epoch=epoch,
                floors=floors,
                maxes=maxes,
                granted=granted,
            )
            for i in residue:
                checked, broken = screened.validate(
                    reports[i],
                    epoch=epoch,
                    floor_w=floors[names[i]],
                    max_cap_w=maxes[names[i]],
                    granted_w=granted.get(names[i]),
                )
                trust_a.observe(names[i], bool(broken))
                if broken:
                    viols_a[names[i]] = broken
                outs_a[i] = checked
            trust_a.observe_clean(
                names, skip={names[i] for i in residue}
            )

            # path B: validate every report individually
            outs_b = []
            viols_b = {}
            for rep in reports:
                checked, broken = reference.validate(
                    rep,
                    epoch=epoch,
                    floor_w=floors[rep.name],
                    max_cap_w=maxes[rep.name],
                    granted_w=granted.get(rep.name),
                )
                trust_b.observe(rep.name, bool(broken))
                outs_b.append(checked)
                if broken:
                    viols_b[rep.name] = broken
                    last_clean.pop(rep.name, None)
                else:
                    last_clean[rep.name] = rep

            assert viols_a == viols_b
            for a, b in zip(outs_a, outs_b):
                assert _reports_equal(a, b), (epoch, a, b)
            assert screened.snapshot() == reference.snapshot()
            assert trust_a.snapshot() == trust_b.snapshot()


def _reports_equal(a, b):
    if a == b:
        return True
    if a.name != b.name:
        return False
    # NaN-tolerant channel comparison (NaN != NaN under ==)
    for x, y in (
        (a.mean_power_w, b.mean_power_w),
        (a.throttle_pressure, b.throttle_pressure),
        (a.headroom_w, b.headroom_w),
    ):
        if not ((x != x and y != y) or x == y):
            return False
    return True


class _ValidateEvery(DemandValidator):
    """The oracle validator: its screen proves nothing clean, so every
    fresh report goes through :meth:`DemandValidator.validate`."""

    def screen(self, reports, names, **kwargs):
        return range(len(reports))


def _validating_every_report(arbiter):
    """``arbiter`` with its validator swapped for the oracle, anchors
    kept."""
    oracle = _ValidateEvery(arbiter.lease_ttl)
    oracle.restore(arbiter.validator.snapshot())
    arbiter.validator = oracle
    return arbiter


def _recovered(arbiter):
    """A fresh arbiter rebuilt from ``arbiter``'s snapshot."""
    fresh = type(arbiter)(arbiter.config)
    fresh.restore(arbiter.snapshot())
    return fresh


def _ingest_epoch(rng, names, epoch, caps, clean, stuck, frozen):
    """One epoch of reports: settled repeats, movers, NaN garbage,
    inflators, out-of-range throttle, empty epochs, silence, and stuck
    sensors whose frozen payload outlives the lease TTL."""
    reports = {}
    for name in names:
        cap = caps.get(name, 30.0)
        onset = stuck.get(name)
        if onset is not None and epoch >= onset - 1:
            # a clean reading the epoch before onset, then frozen
            frozen.setdefault(
                name,
                report(name=name, epoch=epoch, cap_w=cap, power=0.5 * cap),
            )
            reports[name] = frozen[name]
            continue
        roll = rng.random()
        if roll < 0.06:
            continue  # silent this epoch
        if roll < 0.10:
            rep = report(name=name, epoch=epoch, cap_w=cap, samples=0)
        elif roll < 0.55 and name in clean:
            # settled: the node's last clean reading, verbatim
            rep = dataclasses.replace(
                clean[name], epoch=epoch, t_end_s=epoch * 10.0
            )
        elif roll < 0.60:
            rep = report(
                name=name, epoch=epoch, cap_w=cap, power=math.nan,
                headroom=math.nan,
            )
        elif roll < 0.65:
            rep = report(name=name, epoch=epoch, cap_w=cap, power=3.0 * cap)
        elif roll < 0.69:
            rep = report(
                name=name, epoch=epoch, cap_w=cap,
                throttle=rng.choice([1.5, -0.2]),
            )
        else:
            rep = report(
                name=name, epoch=epoch, cap_w=cap,
                power=rng.uniform(0.2, 1.05) * cap,
                throttle=rng.uniform(0.0, 1.0),
            )
        reports[name] = rep
    return reports


class TestIngestEquivalence:
    """The arbiters' ingest — one screen, :meth:`DemandValidator.
    validate` on whatever it cannot prove clean — grants exactly what
    validating every report grants, across a snapshot/restore."""

    EPOCHS = 30

    @pytest.mark.parametrize("kind", ["flat", "fleet"])
    def test_ingest_matches_validating_every_report(self, kind):
        if kind == "flat":
            apps = tuple(AppSpec("cactusBSSN", shares=50.0) for _ in range(4))
            config = ClusterConfig(
                budget_w=720.0,
                nodes=tuple(
                    NodeSpec(
                        name=f"n{i:02d}", apps=apps, min_cap_w=10.0,
                        max_cap_w=60.0,
                    )
                    for i in range(24)
                ),
            )
            arbiter = ClusterArbiter(config)
        else:
            config = fleet_config(2, 2, 10, schedule=None)
            arbiter = FleetArbiter(config)
        names = [spec.name for spec in config.nodes]
        oracle = _validating_every_report(type(arbiter)(config))
        arbiter.admit(names)
        oracle.admit(names)
        rng = random.Random(19)
        stuck = {names[3]: 4, names[-5]: 13}  # node -> onset epoch
        frozen = {}
        clean = {}
        caps = {}
        for epoch in range(self.EPOCHS):
            if epoch == self.EPOCHS // 2:
                arbiter = _recovered(arbiter)
                oracle = _validating_every_report(_recovered(oracle))
            reports = _ingest_epoch(
                rng, names, epoch, caps, clean, stuck, frozen
            )
            got = arbiter.rebalance(epoch, dict(reports))
            want = oracle.rebalance(epoch, dict(reports))
            assert got.caps_w == want.caps_w, epoch
            assert got.trust_violations == want.trust_violations, epoch
            assert got.quarantined == want.quarantined, epoch
            assert arbiter.snapshot() == oracle.snapshot(), epoch
            caps = want.caps_w
            for name, rep in reports.items():
                if rep.samples <= 0:
                    continue
                if name in want.trust_violations:
                    clean.pop(name, None)
                else:
                    clean[name] = rep
        # the stream exercised what it claims to
        assert any(
            "stale-payload" in reasons
            for reasons in want.trust_violations.values()
        )
        assert want.quarantined


class TestTrustBook:
    def test_quarantine_within_two_violating_epochs(self):
        # the documented bound: decay 0.5 against threshold 0.3
        book = TrustBook()
        book.observe("liar", True)
        assert not book.quarantined("liar")
        book.observe("liar", True)
        assert book.quarantined("liar")
        assert book.score("liar") == TRUST_DECAY * TRUST_DECAY
        assert book.quarantined_names() == ("liar",)

    def test_probation_delays_recovery(self):
        book = TrustBook()
        book.observe("n", True)
        for _ in range(TRUST_PROBATION_EPOCHS):
            book.observe("n", False)
        assert book.score("n") == TRUST_DECAY  # still on probation
        book.observe("n", False)
        assert book.score("n") == pytest.approx(
            TRUST_DECAY + TRUST_RECOVERY
        )

    def test_full_recovery_forgets_the_node(self):
        book = TrustBook()
        book.observe("n", True)
        for _ in range(30):
            book.observe("n", False)
        assert book.score("n") == 1.0
        assert not book.scores  # indistinguishable from never-violated

    def test_violation_resets_the_streak(self):
        book = TrustBook()
        book.observe("n", True)
        book.observe("n", False)
        book.observe("n", True)
        for _ in range(TRUST_PROBATION_EPOCHS):
            book.observe("n", False)
        assert book.score("n") == TRUST_DECAY * TRUST_DECAY

    def test_observe_clean_honors_skip_set(self):
        book = TrustBook()
        book.observe("a", True)
        book.observe("b", True)
        for _ in range(TRUST_PROBATION_EPOCHS + 1):
            book.observe_clean(["a", "b"], skip={"b"})
        assert book.score("a") > TRUST_DECAY
        assert book.score("b") == TRUST_DECAY

    def test_discount_hi_full_trust_is_identity(self):
        book = TrustBook()
        assert book.discount_hi("n", 12.0, 40.0) == 40.0

    def test_discount_hi_interpolates_and_quarantines(self):
        book = TrustBook()
        book.observe("n", True)  # score 0.5
        assert book.discount_hi("n", 12.0, 40.0) == pytest.approx(
            12.0 + 28.0 * TRUST_DECAY
        )
        book.observe("n", True)  # below the threshold
        assert book.score("n") < QUARANTINE_THRESHOLD
        assert book.discount_hi("n", 12.0, 40.0) == 12.0

    def test_snapshot_roundtrip(self):
        book = TrustBook()
        book.observe("a", True)
        book.observe("a", False)
        clone = TrustBook()
        clone.restore(book.snapshot())
        assert clone.snapshot() == book.snapshot()
        assert clone.score("a") == book.score("a")


class TestBrownoutLadder:
    def test_steps_up_after_sustained_overload(self):
        ladder = BrownoutController()
        for i in range(BROWNOUT_ENTER_EPOCHS - 1):
            assert ladder.observe(110.0, 100.0) == 0
        assert ladder.observe(110.0, 100.0) == 1
        assert ladder.level_name == "brownout1"

    def test_single_spike_does_not_step(self):
        ladder = BrownoutController()
        ladder.observe(110.0, 100.0)
        ladder.observe(90.0, 100.0)  # calm resets the over-streak
        ladder.observe(110.0, 100.0)
        assert ladder.level == 0

    def test_exit_needs_longer_calm_run(self):
        ladder = BrownoutController()
        for _ in range(BROWNOUT_ENTER_EPOCHS):
            ladder.observe(110.0, 100.0)
        assert ladder.level == 1
        for _ in range(BROWNOUT_EXIT_EPOCHS - 1):
            assert ladder.observe(90.0, 100.0) == 1
        assert ladder.observe(90.0, 100.0) == 0

    def test_hysteresis_band_holds_level(self):
        ladder = BrownoutController()
        for _ in range(BROWNOUT_ENTER_EPOCHS):
            ladder.observe(110.0, 100.0)
        # between exit (1.0) and enter (1.02) ratios: hold forever
        for _ in range(20):
            assert ladder.observe(101.0, 100.0) == 1

    def test_ladder_saturates_at_shed(self):
        ladder = BrownoutController()
        for _ in range(10 * BROWNOUT_ENTER_EPOCHS):
            ladder.observe(200.0, 100.0)
        assert ladder.level == len(BROWNOUT_LEVELS) - 1
        assert ladder.level_name == "shed"

    def test_snapshot_roundtrip(self):
        ladder = BrownoutController()
        ladder.observe(110.0, 100.0)
        clone = BrownoutController()
        clone.restore(ladder.snapshot())
        assert clone.snapshot() == ladder.snapshot()
        # the cloned streak continues where the original left off
        assert clone.observe(110.0, 100.0) == 1


class TestBrownoutClaimBounds:
    FLOOR, SHARES, TOP = 12.0, 1.0, 2.0

    def bounds(self, level, *, hi, shares=None):
        return brownout_claim_bounds(
            level,
            floor_w=self.FLOOR,
            raw_hi_w=hi,
            shares=self.SHARES if shares is None else shares,
            top_shares=self.TOP,
        )

    def test_level0_is_identity(self):
        assert self.bounds(0, hi=40.0) == (12.0, 40.0)
        assert self.bounds(0, hi=5.0) == (12.0, 12.0)

    def test_level1_collapses_idle_floors(self):
        # a node demanding below its floor loses the full-floor hold
        lo, hi = self.bounds(1, hi=8.0)
        assert (lo, hi) == (8.0, 8.0)
        # but never below the idle fraction of the floor
        lo, _ = self.bounds(1, hi=1.0)
        assert lo == BROWNOUT_FLOOR_FRACTION * self.FLOOR
        # busy nodes keep their full floor
        assert self.bounds(1, hi=40.0) == (12.0, 40.0)

    def test_level2_pins_best_effort_at_floor(self):
        assert self.bounds(2, hi=40.0) == (12.0, 12.0)
        # top-share nodes still grow
        assert self.bounds(2, hi=40.0, shares=self.TOP) == (12.0, 40.0)

    def test_level3_sheds_best_effort_floors(self):
        lo, hi = self.bounds(3, hi=40.0)
        assert lo == hi == BROWNOUT_FLOOR_FRACTION * self.FLOOR
        # even top-share nodes are pinned at their floors
        assert self.bounds(3, hi=40.0, shares=self.TOP) == (12.0, 12.0)

    @pytest.mark.parametrize("level", range(len(BROWNOUT_LEVELS)))
    def test_lo_never_exceeds_hi(self, level):
        for hi in (0.0, 1.0, 8.0, 12.0, 40.0):
            for shares in (1.0, 2.0):
                lo, cap_hi = self.bounds(level, hi=hi, shares=shares)
                assert lo <= cap_hi


class TestBrownoutArbiterClaims:
    """Both arbiters build their claims in one method, so BROWNOUT1
    collapses an idle node's floor the same way on either path: a node
    reporting below its floor is claimed at ``max(demand x slack, 0.6 x
    floor)``, not held at its full floor."""

    @pytest.mark.parametrize("kind", ["flat", "fleet"])
    def test_brownout1_claims_idle_nodes_at_their_demand(self, kind):
        config = fleet_config(1, 1, 4, schedule=None)
        if kind == "flat":
            config = dataclasses.replace(config, topology=None)
            arbiter = ClusterArbiter(config)
        else:
            arbiter = FleetArbiter(config)
        names = [spec.name for spec in config.nodes]
        floor = config.nodes[0].min_cap_w
        arbiter.admit(names)
        arbiter.rebalance(0, {})
        arbiter.brownout.restore({"level": 1, "over": 0, "under": 0})
        demand = {names[0]: 4.0, names[1]: 6.4, names[2]: 30.0}
        reports = {
            name: report(name=name, epoch=1, cap_w=30.0, power=power,
                         throttle=0.0)
            for name, power in demand.items()
        }
        grant = arbiter.rebalance(1, reports)
        assert grant.brownout == 1
        # 4 W x 1.25 = 5 W is under 0.6 x 10 W: the idle fraction binds
        assert grant.caps_w[names[0]] == pytest.approx(
            BROWNOUT_FLOOR_FRACTION * floor
        )
        # 6.4 W x 1.25 = 8 W: the claim collapses to the demand
        assert grant.caps_w[names[1]] == pytest.approx(6.4 * DEMAND_SLACK)
        # a busy node keeps its full floor and more
        assert grant.caps_w[names[2]] > floor
