"""Aperture and acceptance-cone conversions.

Conventions used throughout the package:

- numerical aperture NA = sin(theta) of the marginal-ray half-angle,
  dimensionless, in [0, 1] (emission into vacuum/air, n = 1);
- cone half-angles in radians, in [0, pi];
- all lengths in meters.

Functions accept and return plain floats; invariants are enforced here
so downstream modules can assume valid values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import require


@dataclass(frozen=True)
class LensGeometry:
    """Focal length and clear aperture of a lens, both in meters."""

    focal_length: float
    clear_aperture_diameter: float

    def __post_init__(self):
        for name in ("focal_length", "clear_aperture_diameter"):
            require(getattr(self, name) > 0, name, "> 0", getattr(self, name))

    @property
    def f_number(self) -> float:
        """Focal length over aperture diameter."""
        return self.focal_length / self.clear_aperture_diameter


def check_na(na: float) -> None:
    """Validate a numerical aperture value."""
    require(0.0 <= na <= 1.0, "numerical aperture", "in [0, 1]", na)


def check_cone_angle(theta: float) -> None:
    """Validate a cone half-angle [rad]."""
    require(0.0 <= theta <= math.pi, "cone half-angle", "in [0, pi]", theta)


def na_from_geometry(geometry: LensGeometry) -> float:
    """Exact numerical aperture of a lens from its geometry.

    Returns the sine of the marginal-ray half-angle,
    (D/2) / sqrt(f^2 + (D/2)^2), identical to 1/sqrt(1 + 4 (F/#)^2).
    """
    half_aperture = geometry.clear_aperture_diameter / 2.0
    return half_aperture / math.hypot(geometry.focal_length, half_aperture)


def na_small_angle(f_number: float) -> float:
    """Catalog small-angle estimate NA ~ 1/(2 F/#), clamped to 1.

    Overstates the true NA for fast lenses; for F/# >= 2 it is within
    about 3% of the exact value from na_from_geometry. Use only in the
    small-angle regime.
    """
    require(f_number > 0, "f_number", "> 0", f_number)
    return min(1.0, 1.0 / (2.0 * f_number))


def solid_angle_fraction(na: float) -> float:
    """Fraction of the full 4 pi sphere subtended by a cone of given NA.

    (1 - cos(asin NA)) / 2; maps [0, 1] onto [0, 0.5].
    """
    check_na(na)
    # 1 - cos(asin x) = 1 - sqrt(1 - x^2), stable as written for x <= 1
    return (1.0 - math.sqrt(1.0 - na * na)) / 2.0


def cone_from_na(na: float) -> float:
    """Half-angle [rad] of the acceptance cone with the given NA."""
    check_na(na)
    return math.asin(na)


def na_from_cone(theta: float) -> float:
    """NA of an acceptance cone of half-angle theta [rad].

    Restricted to theta <= pi/2 so that the pair (cone_from_na,
    na_from_cone) is an exact inverse on [0, pi/2].
    """
    check_cone_angle(theta)
    require(theta <= math.pi / 2, "theta", "<= pi/2 for an invertible mapping", theta)
    return math.sin(theta)
