"""Hardware cost records.

Every cost model in :mod:`repro.hardware` and every circuit block in
:mod:`repro.bespoke` returns a :class:`HardwareCost`: area, power, delay and
a gate-count breakdown. Costs compose with ``+`` (parallel composition: areas
and powers add, delays take the max unless combined serially with
:meth:`HardwareCost.serial`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping


@dataclass(frozen=True)
class HardwareCost:
    """Area / power / delay / gate-count bundle.

    Attributes:
        area: silicon (printed foil) area in mm².
        power: total power in µW.
        delay: propagation delay in µs along the block's critical path.
        gate_counts: number of standard-cell instances per cell name.
    """

    area: float = 0.0
    power: float = 0.0
    delay: float = 0.0
    gate_counts: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.area < 0 or self.power < 0 or self.delay < 0:
            raise ValueError(
                f"HardwareCost components must be non-negative, got "
                f"area={self.area}, power={self.power}, delay={self.delay}"
            )
        object.__setattr__(self, "gate_counts", dict(self.gate_counts))

    # -- composition -----------------------------------------------------------

    def __add__(self, other: "HardwareCost") -> "HardwareCost":
        """Parallel composition: areas and powers add, delay is the max."""
        if not isinstance(other, HardwareCost):
            return NotImplemented
        return HardwareCost(
            area=self.area + other.area,
            power=self.power + other.power,
            delay=max(self.delay, other.delay),
            gate_counts=sum_gate_counts((self.gate_counts, other.gate_counts)),
        )

    def __radd__(self, other: object) -> "HardwareCost":
        # Allows ``sum(costs)`` which starts from the int 0.
        if other == 0:
            return self
        return NotImplemented  # pragma: no cover - defensive

    def serial(self, other: "HardwareCost") -> "HardwareCost":
        """Serial composition: areas, powers *and* delays add."""
        return HardwareCost(
            area=self.area + other.area,
            power=self.power + other.power,
            delay=self.delay + other.delay,
            gate_counts=sum_gate_counts((self.gate_counts, other.gate_counts)),
        )

    def scaled(self, factor: float) -> "HardwareCost":
        """Replicate the block ``factor`` times in parallel (delay unchanged)."""
        if factor < 0:
            raise ValueError(f"Scale factor must be non-negative, got {factor}")
        return HardwareCost(
            area=self.area * factor,
            power=self.power * factor,
            delay=self.delay,
            gate_counts={k: int(round(v * factor)) for k, v in self.gate_counts.items()},
        )

    # -- queries ----------------------------------------------------------------

    @property
    def total_gates(self) -> int:
        """Total number of standard-cell instances."""
        return int(sum(self.gate_counts.values()))

    def is_zero(self) -> bool:
        """True when the block contributes no hardware at all."""
        return self.area == 0.0 and self.power == 0.0 and self.total_gates == 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "area": self.area,
            "power": self.power,
            "delay": self.delay,
            "gate_counts": dict(self.gate_counts),
        }

    @staticmethod
    def zero() -> "HardwareCost":
        """The identity element for composition."""
        return HardwareCost()


def sum_gate_counts(gate_counts: Iterable[Mapping[str, int]]) -> Dict[str, int]:
    """Gate-count mappings added up; cells keep the order they first appear in."""
    total: Dict[str, int] = {}
    for counts in gate_counts:
        for cell, count in counts.items():
            total[cell] = total.get(cell, 0) + count
    return total
