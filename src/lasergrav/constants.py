"""Physical constants (CODATA 2018) and the unit conversions used at the
package boundary.

Everything downstream works in SI; Gaussian-convention polarizability
volumes (cm^3-style quantities, stored in m^3) appear only here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants in SI units. ``h`` is exactly ``2*pi*hbar``."""

    hbar: float = 1.054571817e-34  # J s
    c: float = 299792458.0         # m/s
    eps0: float = 8.8541878128e-12  # F/m

    @property
    def h(self) -> float:
        return 2.0 * math.pi * self.hbar


CONSTANTS = PhysicalConstants()

# scale factors to W/m^2 for the intensity units that appear in practice
_INTENSITY_SCALE = {
    "W/m^2": 1.0,
    "W/cm^2": 1.0e4,
    "mW/cm^2": 1.0e1,
}


def polarizability_si(alpha_volume: float) -> float:
    """Convert a Gaussian-convention polarizability volume (m^3) to SI (C m^2/V)."""
    return 4.0 * math.pi * CONSTANTS.eps0 * alpha_volume


def polarizability_volume(alpha_si: float) -> float:
    """Inverse of :func:`polarizability_si`."""
    return alpha_si / (4.0 * math.pi * CONSTANTS.eps0)


def _scale(unit: str) -> float:
    try:
        return _INTENSITY_SCALE[unit]
    except KeyError:
        raise ValueError(
            f"unknown intensity unit {unit!r}; expected one of {sorted(_INTENSITY_SCALE)}"
        ) from None


def intensity_si(value: float, unit: str = "W/m^2") -> float:
    """Convert a non-negative intensity to W/m^2.

    ``unit`` must be one of ``W/m^2``, ``W/cm^2``, ``mW/cm^2``; the scaling is
    an exact power of ten.
    """
    if not value >= 0.0:
        raise ValueError(f"intensity must be non-negative, got {value}")
    return value * _scale(unit)


def intensity_in(value_si: float, unit: str) -> float:
    """Express an intensity given in W/m^2 in ``unit``."""
    return value_si / _scale(unit)
