"""Weight quantizers.

A quantizer is a callable mapping a float tensor to its fake-quantized
version (floats restricted to the representable grid). The same object also
exposes the integer view used by the bespoke circuit generator, via the
shared :mod:`repro.hardware.fixed_point` helpers, so training-time accuracy
and hardware-time area are computed from identical coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hardware.fixed_point import (
    FixedPointFormat,
    derive_format,
    derive_scale,
    max_symmetric_level,
)


class Quantizer:
    """Base quantizer interface."""

    bits: int

    def __call__(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def integer_levels(self, values: np.ndarray) -> np.ndarray:
        """Integer levels the circuit hard-wires for ``values``."""
        raise NotImplementedError


@dataclass
class SymmetricQuantizer(Quantizer):
    """Symmetric fixed-point quantizer with a frozen or dynamic scale.

    Args:
        bits: total bit-width (sign bit included).
        scale: value of one integer step. When ``None`` the scale is derived
            from each tensor it quantizes (dynamic, the QAT default); a fixed
            scale is used when the quantizer is calibrated once
            (:meth:`calibrate`) and then frozen for deployment.
    """

    bits: int
    scale: Optional[float] = None

    def __post_init__(self) -> None:
        if self.bits < 2:
            raise ValueError(f"bits must be >= 2, got {self.bits}")
        if self.scale is not None and self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        self._max_level = max_symmetric_level(self.bits)

    # -- calibration ------------------------------------------------------------

    def calibrate(self, values: np.ndarray) -> "SymmetricQuantizer":
        """Freeze the scale so the largest |value| maps to the top level."""
        fmt = derive_format(np.asarray(values), self.bits)
        self.scale = fmt.scale
        return self

    def format_for(self, values: np.ndarray) -> FixedPointFormat:
        """The fixed-point format used for ``values`` under current settings."""
        if self.scale is not None:
            return FixedPointFormat(bits=self.bits, scale=self.scale)
        return derive_format(np.asarray(values), self.bits)

    # -- quantization -----------------------------------------------------------

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        # Single-pass fake quantization on the QAT hot path: derive the scale
        # (same arithmetic as :func:`derive_format`), then round/clip/rescale
        # with raw ufuncs — the same float operations as
        # ``fmt.to_floats(fmt.to_integers(values))`` without the int64
        # round-trip (integral float64 levels convert exactly), the
        # ``FixedPointFormat`` allocation and the ``np.round``/``np.clip``
        # dispatch wrappers. Bit-identical to the reference path
        # (``np.round(x) == np.rint(x)`` and ``clip == minimum(maximum())``
        # elementwise), which the property tests assert.
        max_level = self._max_level
        scale = self.scale
        if scale is None:
            max_abs = float(np.abs(values).max()) if values.size else 0.0
            scale = derive_scale(max_abs, max_level)
        levels = values / scale
        np.rint(levels, out=levels)
        np.maximum(levels, -max_level, out=levels)
        np.minimum(levels, max_level, out=levels)
        # The int64 round-trip normalizes -0.0 to +0.0; adding 0.0 does the
        # same (x + 0.0 == x exactly for every other value) so the result is
        # byte-identical to the reference.
        levels += 0.0
        levels *= scale
        return levels

    def integer_levels(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        fmt = self.format_for(values)
        return fmt.to_integers(values)

    @property
    def max_level(self) -> int:
        return max_symmetric_level(self.bits)


def quantize_tensor(values: np.ndarray, bits: int) -> np.ndarray:
    """Convenience function: symmetric fake-quantization with a dynamic scale."""
    return SymmetricQuantizer(bits=bits)(values)
