"""Energy and battery-lifetime analysis for printed bespoke classifiers.

The paper's motivation is that printed devices must "operate under tight
battery requirements": area is the headline metric, but the same bespoke
designs are also evaluated for power. This module turns the synthesis
reports' power/delay figures into the quantities a printed-system designer
actually budgets:

* energy per classification (power x critical-path delay, the circuits are
  combinational and can be power-gated between samples),
* average power at a given classification rate plus standby leakage,
* lifetime on a printed battery of a given capacity,
* power breakdowns and battery-lifetime gains relative to the baseline design.

Printed energy sources are tiny: the defaults below follow the printed
battery / energy-harvesting figures used in the printed-classifier
literature (a few mWh of capacity, sub-mW harvesting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..bespoke.report import SynthesisReport

#: Capacity of a typical small printed battery, in milliwatt-hours.
DEFAULT_PRINTED_BATTERY_MWH: float = 10.0

#: Fraction of the active power a power-gated bespoke circuit still draws
#: when idle (printed transistors leak comparatively little; the interface
#: registers dominate standby consumption).
DEFAULT_STANDBY_FRACTION: float = 0.02


@dataclass(frozen=True)
class EnergyProfile:
    """Energy behaviour of one synthesized design at a given duty cycle.

    Attributes:
        energy_per_inference: energy of one classification in µJ.
        average_power: average power in µW at the requested rate.
        inferences_per_second: the classification rate the profile assumes.
        duty_cycle: fraction of time the circuit is actively evaluating.
        battery_life_hours: lifetime on the configured printed battery.
        standby_power: idle power in µW.
    """

    energy_per_inference: float
    average_power: float
    inferences_per_second: float
    duty_cycle: float
    battery_life_hours: float
    standby_power: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "energy_per_inference_uj": self.energy_per_inference,
            "average_power_uw": self.average_power,
            "inferences_per_second": self.inferences_per_second,
            "duty_cycle": self.duty_cycle,
            "battery_life_hours": self.battery_life_hours,
            "standby_power_uw": self.standby_power,
        }


def energy_per_inference(report: SynthesisReport) -> float:
    """Energy of one classification in µJ (power µW x delay µs / 1e6)."""
    return report.power * report.delay / 1e6


def energy_profile(
    report: SynthesisReport,
    inferences_per_second: float = 1.0,
    battery_mwh: float = DEFAULT_PRINTED_BATTERY_MWH,
    standby_fraction: float = DEFAULT_STANDBY_FRACTION,
) -> EnergyProfile:
    """Compute the energy profile of a design at a given classification rate.

    Args:
        report: synthesis report of the design.
        inferences_per_second: how often the classifier is evaluated. Printed
            sensor applications are slow (one evaluation per second or less).
        battery_mwh: printed-battery capacity in mWh.
        standby_fraction: idle power as a fraction of active power.

    Raises:
        ValueError: if the requested rate cannot be sustained (the circuit's
            critical path is longer than the sample period) or arguments are
            out of range.
    """
    if inferences_per_second <= 0:
        raise ValueError("inferences_per_second must be positive")
    if battery_mwh <= 0:
        raise ValueError("battery_mwh must be positive")
    if not 0.0 <= standby_fraction <= 1.0:
        raise ValueError("standby_fraction must be in [0, 1]")

    period_us = 1e6 / inferences_per_second
    if report.delay > period_us:
        raise ValueError(
            f"Classification rate {inferences_per_second} /s is unreachable: "
            f"critical path is {report.delay:.0f} us but the period is {period_us:.0f} us"
        )
    duty_cycle = report.delay / period_us
    standby_power = report.power * standby_fraction
    average_power = report.power * duty_cycle + standby_power * (1.0 - duty_cycle)
    battery_uwh = battery_mwh * 1000.0
    battery_life_hours = battery_uwh / average_power if average_power > 0 else float("inf")
    return EnergyProfile(
        energy_per_inference=energy_per_inference(report),
        average_power=average_power,
        inferences_per_second=inferences_per_second,
        duty_cycle=duty_cycle,
        battery_life_hours=battery_life_hours,
        standby_power=standby_power,
    )


def max_inference_rate(report: SynthesisReport) -> float:
    """Highest sustainable classification rate (1 / critical-path delay), in Hz."""
    if report.delay <= 0:
        return float("inf")
    return 1e6 / report.delay


def power_breakdown(report: SynthesisReport) -> Dict[str, float]:
    """Fraction of total power per component kind."""
    if report.power <= 0:
        return {kind: 0.0 for kind in report.by_kind}
    return {kind: cost.power / report.power for kind, cost in report.by_kind.items()}


def battery_life_comparison(
    minimized: SynthesisReport,
    baseline: SynthesisReport,
    inferences_per_second: float = 1.0,
    battery_mwh: float = DEFAULT_PRINTED_BATTERY_MWH,
) -> Dict[str, float]:
    """Battery lifetime (hours) of both designs at the same classification rate."""
    baseline_profile = energy_profile(
        baseline, inferences_per_second=inferences_per_second, battery_mwh=battery_mwh
    )
    minimized_profile = energy_profile(
        minimized, inferences_per_second=inferences_per_second, battery_mwh=battery_mwh
    )
    return {
        "baseline_hours": baseline_profile.battery_life_hours,
        "minimized_hours": minimized_profile.battery_life_hours,
        "lifetime_gain": (
            minimized_profile.battery_life_hours / baseline_profile.battery_life_hours
            if baseline_profile.battery_life_hours > 0
            else float("inf")
        ),
    }
