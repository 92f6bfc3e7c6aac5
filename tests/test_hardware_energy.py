"""Tests for the energy / battery-lifetime analysis (repro.hardware.energy)."""

import pytest

from repro.bespoke import BespokeConfig, synthesize
from repro.hardware.energy import (
    DEFAULT_PRINTED_BATTERY_MWH,
    battery_life_comparison,
    energy_per_inference,
    energy_profile,
    max_inference_rate,
    power_breakdown,
)
from repro.nn import build_mlp


@pytest.fixture(scope="module")
def reports():
    model = build_mlp(6, (5,), 3, seed=0)
    baseline = synthesize(model, BespokeConfig(input_bits=4, weight_bits=8))
    minimized = synthesize(model, BespokeConfig(input_bits=4, weight_bits=3))
    return baseline, minimized


class TestEnergyPerInference:
    def test_energy_formula(self, reports):
        baseline, _ = reports
        assert energy_per_inference(baseline) == pytest.approx(
            baseline.power * baseline.delay / 1e6
        )

    def test_minimized_design_uses_less_energy(self, reports):
        baseline, minimized = reports
        assert energy_per_inference(minimized) < energy_per_inference(baseline)

    def test_max_inference_rate(self, reports):
        baseline, _ = reports
        rate = max_inference_rate(baseline)
        assert rate == pytest.approx(1e6 / baseline.delay)


class TestEnergyProfile:
    def test_profile_fields_consistent(self, reports):
        baseline, _ = reports
        profile = energy_profile(baseline, inferences_per_second=1.0)
        assert 0.0 < profile.duty_cycle < 1.0
        assert profile.standby_power < baseline.power
        assert profile.average_power <= baseline.power
        assert profile.average_power >= profile.standby_power
        assert profile.battery_life_hours > 0
        assert profile.inferences_per_second == 1.0

    def test_lower_rate_longer_battery_life(self, reports):
        baseline, _ = reports
        slow = energy_profile(baseline, inferences_per_second=0.1)
        fast = energy_profile(baseline, inferences_per_second=5.0)
        assert slow.battery_life_hours > fast.battery_life_hours

    def test_bigger_battery_longer_life(self, reports):
        baseline, _ = reports
        small = energy_profile(baseline, battery_mwh=DEFAULT_PRINTED_BATTERY_MWH)
        large = energy_profile(baseline, battery_mwh=10 * DEFAULT_PRINTED_BATTERY_MWH)
        assert large.battery_life_hours == pytest.approx(10 * small.battery_life_hours, rel=1e-6)

    def test_unreachable_rate_rejected(self, reports):
        baseline, _ = reports
        too_fast = 2.0 * max_inference_rate(baseline)
        with pytest.raises(ValueError):
            energy_profile(baseline, inferences_per_second=too_fast)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"inferences_per_second": 0.0},
            {"battery_mwh": 0.0},
            {"standby_fraction": 1.5},
        ],
    )
    def test_invalid_arguments(self, reports, kwargs):
        baseline, _ = reports
        with pytest.raises(ValueError):
            energy_profile(baseline, **kwargs)

    def test_as_dict_keys(self, reports):
        baseline, _ = reports
        data = energy_profile(baseline).as_dict()
        assert "energy_per_inference_uj" in data
        assert "battery_life_hours" in data


class TestComparisons:
    def test_power_breakdown_sums_to_one(self, reports):
        baseline, _ = reports
        breakdown = power_breakdown(baseline)
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_battery_life_comparison(self, reports):
        baseline, minimized = reports
        comparison = battery_life_comparison(minimized, baseline, inferences_per_second=0.5)
        assert comparison["lifetime_gain"] > 1.0
        assert comparison["minimized_hours"] > comparison["baseline_hours"]
