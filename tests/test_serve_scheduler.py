"""Tests for the fleet scheduling policies."""

import pytest

from repro.serve.engine import FleetChip
from repro.serve.scheduler import (
    POLICIES,
    AccuracyWeightedPolicy,
    DriftAwarePolicy,
    EnergyAwarePolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.variability.sampler import ChipVariation


def _fleet(count=4, qualities=None):
    chips = [
        FleetChip(i, f"chip{i:02d}", ChipVariation(0.0, 0.0, seed=i))
        for i in range(count)
    ]
    if qualities is not None:
        for chip, quality in zip(chips, qualities):
            chip.quality = quality
    return chips


def _serve(policy, chips, batches, batch_size=8):
    """Dispatch ``batches`` equal batches, mirroring the engine's accounting."""
    trace = []
    for _ in range(batches):
        chip = policy.choose(None, chips)
        chip.served_samples += batch_size
        chip.served_batches += 1
        trace.append(chip.chip_id)
    return trace


class TestRegistry:
    def test_registry_names(self):
        assert set(POLICIES) == {
            "round-robin", "least-loaded", "accuracy-weighted", "drift-aware",
            "energy-aware", "latency-aware",
        }

    def test_make_policy(self):
        assert isinstance(make_policy("round-robin"), RoundRobinPolicy)
        assert isinstance(make_policy("least-loaded"), LeastLoadedPolicy)
        assert isinstance(make_policy("accuracy-weighted"), AccuracyWeightedPolicy)
        assert isinstance(make_policy("drift-aware"), DriftAwarePolicy)
        assert isinstance(make_policy("energy-aware"), EnergyAwarePolicy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            make_policy("fortune-teller")

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_needs_quality_matches_what_choose_reads(self, name):
        """Sessions probe the fleet only for ``needs_quality`` policies, so
        the flag must be exactly "probed quality changes the dispatch"."""
        unprobed = _serve(make_policy(name), _fleet(), batches=8)
        probed = _serve(make_policy(name), _fleet(qualities=[0.1, 0.9, 0.1, 0.9]), batches=8)
        assert (probed != unprobed) == POLICIES[name].needs_quality


class TestRoundRobin:
    def test_cycles_in_index_order(self):
        chips = _fleet(3)
        trace = _serve(RoundRobinPolicy(), chips, 7)
        assert trace == ["chip00", "chip01", "chip02"] * 2 + ["chip00"]

    def test_reset_restarts_cycle(self):
        policy, chips = RoundRobinPolicy(), _fleet(3)
        policy.choose(None, chips)
        policy.reset()
        assert policy.choose(None, chips).chip_id == "chip00"


class TestLeastLoaded:
    def test_balances_served_samples(self):
        chips = _fleet(4)
        _serve(LeastLoadedPolicy(), chips, 12)
        assert {chip.served_samples for chip in chips} == {24}

    def test_prefers_lagging_chip(self):
        chips = _fleet(3)
        chips[0].served_samples = 100
        chips[2].served_samples = 100
        assert LeastLoadedPolicy().choose(None, chips).chip_id == "chip01"

    def test_tie_breaks_by_index(self):
        assert LeastLoadedPolicy().choose(None, _fleet(3)).chip_id == "chip00"


class TestAccuracyWeighted:
    def test_traffic_proportional_to_quality(self):
        chips = _fleet(2, qualities=[0.9, 0.3])
        _serve(AccuracyWeightedPolicy(), chips, 40, batch_size=1)
        ratio = chips[0].served_samples / chips[1].served_samples
        assert 2.0 <= ratio <= 4.0  # ~3x quality => ~3x traffic

    def test_no_chip_starves(self):
        chips = _fleet(3, qualities=[0.99, 0.5, 0.01])
        _serve(AccuracyWeightedPolicy(), chips, 200, batch_size=1)
        assert all(chip.served_samples > 0 for chip in chips)

    def test_unprobed_fleet_degrades_to_balance(self):
        chips = _fleet(4)  # quality=None on every chip
        _serve(AccuracyWeightedPolicy(), chips, 16, batch_size=1)
        assert {chip.served_samples for chip in chips} == {4}

    def test_deterministic_trace(self):
        first = _serve(AccuracyWeightedPolicy(), _fleet(3, [0.7, 0.5, 0.6]), 20)
        second = _serve(AccuracyWeightedPolicy(), _fleet(3, [0.7, 0.5, 0.6]), 20)
        assert first == second

    def test_zero_quality_uses_floor(self):
        chips = _fleet(2, qualities=[0.0, 0.0])
        trace = _serve(AccuracyWeightedPolicy(), chips, 4, batch_size=1)
        assert trace == ["chip00", "chip01", "chip00", "chip01"]


class TestDriftAware:
    def test_degraded_chip_gets_no_traffic(self):
        """Greedy accuracy-first: a measurably worse chip is starved."""
        chips = _fleet(3, qualities=[0.95, 0.6, 0.94])
        _serve(DriftAwarePolicy(), chips, 30, batch_size=1)
        assert chips[1].served_samples == 0
        assert chips[0].served_samples > 0 and chips[2].served_samples > 0

    def test_near_equal_chips_balance_least_loaded(self):
        chips = _fleet(4)  # quality=None on every chip => all weight 1.0
        _serve(DriftAwarePolicy(), chips, 16, batch_size=1)
        assert {chip.served_samples for chip in chips} == {4}

    def test_tie_margin_groups_close_qualities(self):
        chips = _fleet(2, qualities=[0.900, 0.895])  # inside the 0.01 margin
        _serve(DriftAwarePolicy(), chips, 10, batch_size=1)
        assert chips[0].served_samples == chips[1].served_samples == 5

    def test_age_discounts_stale_quality(self):
        chips = _fleet(2, qualities=[0.9, 0.7])
        chips[0].age = 50.0  # great quality signal, but measured long ago
        _serve(DriftAwarePolicy(age_discount=0.5), chips, 40, batch_size=1)
        assert chips[0].served_samples == 0
        assert chips[1].served_samples == 40

    def test_recalibrated_chip_regains_traffic(self):
        chips = _fleet(2, qualities=[0.8, 0.8])
        chips[0].age = 30.0
        policy = DriftAwarePolicy(age_discount=0.5)
        _serve(policy, chips, 20, batch_size=1)
        assert chips[0].served_samples == 0  # stale: starved
        chips[0].age = 0.0  # lifecycle recalibrated it
        _serve(policy, chips, 20, batch_size=1)
        assert chips[0].served_samples == 20  # catches back up to its peer

    def test_quality_recovery_restores_traffic(self):
        chips = _fleet(2, qualities=[0.5, 0.9])
        policy = DriftAwarePolicy()
        _serve(policy, chips, 10, batch_size=1)
        assert chips[0].served_samples == 0
        chips[0].quality = 0.9  # recalibration probe restored it
        _serve(policy, chips, 10, batch_size=1)
        assert chips[0].served_samples == 10

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            DriftAwarePolicy(age_discount=-0.1)
        with pytest.raises(ValueError):
            DriftAwarePolicy(tie_margin=-0.01)

    def test_deterministic_trace(self):
        def run():
            chips = _fleet(3, qualities=[0.7, 0.5, 0.6])
            chips[1].age = 5.0
            return _serve(DriftAwarePolicy(), chips, 20)

        assert run() == run()


class TestEnergyAware:
    def _serve_with_energy(self, policy, chips, batches, cost_per_batch):
        """Dispatch batches, accruing each chip's per-batch energy cost."""
        trace = []
        for _ in range(batches):
            chip = policy.choose(None, chips)
            chip.served_samples += 8
            chip.served_batches += 1
            chip.energy_uj += cost_per_batch[chip.index]
            trace.append(chip.chip_id)
        return trace

    def test_cheapest_adequate_chip_wins(self):
        """Equal quality, unequal cost: traffic drains to the cheap chip."""
        chips = _fleet(2, qualities=[0.9, 0.9])
        self._serve_with_energy(EnergyAwarePolicy(), chips, 24, [3.0, 1.0])
        # chip01 serves ~3 batches for each of chip00's (cost ratio 3:1).
        assert chips[1].served_batches >= 2.5 * chips[0].served_batches

    def test_quality_still_gates_dispatch(self):
        """A measurably degraded chip gets no traffic however cheap it is."""
        chips = _fleet(2, qualities=[0.9, 0.5])
        self._serve_with_energy(EnergyAwarePolicy(), chips, 10, [5.0, 0.1])
        assert chips[1].served_samples == 0

    def test_costless_backend_degrades_to_least_loaded(self):
        """Zero accumulated energy everywhere => balance like least-loaded."""
        chips = _fleet(4)
        self._serve_with_energy(EnergyAwarePolicy(), chips, 16, [0.0] * 4)
        assert {chip.served_samples for chip in chips} == {32}

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            EnergyAwarePolicy(tie_margin=-0.01)

    def test_deterministic_trace(self):
        def run():
            chips = _fleet(3, qualities=[0.9, 0.9, 0.9])
            return self._serve_with_energy(
                EnergyAwarePolicy(), chips, 20, [2.0, 1.0, 3.0]
            )

        assert run() == run()
