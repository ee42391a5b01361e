"""Scalability estimates for lens arrays over segmented trap arrays.

A surface trap with inter-electrode distance d needs about seven
segments of length d/2 per site to shuttle and hold a measured ion, and
only a fraction of sites are measured simultaneously. Diluting the
measured sites over a 2-D array stretches the pitch between detection
regions by 1/sqrt(fraction):

    spacing = segments_per_site x segment_length_factor x d / sqrt(fraction)

which for the defaults (7, 1/2, 1/5) gives 7.83 d. That spacing is the
clear aperture available to each collection lens; with focal length
3 d the geometric NA is 0.79. The sqrt-dilution rule is a
reconstruction consistent with the quoted spacing, not an independently
derived layout.

Entanglement rates between remote ions scale as the square of the
coherent coupling, so rate comparisons enter as (p_new / p_ref)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import require, require_finite_fields
from .dipole import POLAR_SIGMA, collection_probability
from .geometry import LensGeometry, check_na, cone_from_na, na_from_geometry

DEFAULT_REQUIRED_P_COLL = 0.05


@dataclass(frozen=True)
class TrapArraySpec:
    """Geometry of a segmented trap array with integrated lenses.

    electrode_distance d in meters. Each measured site occupies
    segments_per_site segments of length segment_length_factor x d;
    measured_site_fraction of all sites are read out at once; each lens
    sits focal_length_factor x d above its ion.
    """

    electrode_distance: float
    segments_per_site: int = 7
    segment_length_factor: float = 0.5
    measured_site_fraction: float = 0.2
    focal_length_factor: float = 3.0

    def __post_init__(self):
        require_finite_fields(self)
        for name in ("electrode_distance", "segment_length_factor", "focal_length_factor"):
            require(getattr(self, name) > 0, name, "> 0", getattr(self, name))
        n = self.segments_per_site
        require(isinstance(n, int) and n > 0, "segments_per_site", "a positive integer", n)
        fraction = self.measured_site_fraction
        require(0.0 < fraction <= 1.0, "measured_site_fraction", "in (0, 1]", fraction)


@dataclass(frozen=True)
class DetectorSpec:
    """Photon detector characterized by its quantum efficiency."""

    quantum_efficiency: float = 0.2

    def __post_init__(self):
        require_finite_fields(self)
        efficiency = self.quantum_efficiency
        require(0.0 < efficiency <= 1.0, "quantum_efficiency", "in (0, 1]", efficiency)


def detection_site_spacing(spec: TrapArraySpec) -> float:
    """Pitch between detection regions [m] after 2-D site dilution."""
    site_pitch = (
        spec.segments_per_site * spec.segment_length_factor * spec.electrode_distance
    )
    return site_pitch / math.sqrt(spec.measured_site_fraction)


def achievable_array_na(spec: TrapArraySpec) -> float:
    """NA of a lens filling the whole detection pitch at f = factor x d."""
    geometry = LensGeometry(
        focal_length=spec.focal_length_factor * spec.electrode_distance,
        clear_aperture_diameter=detection_site_spacing(spec),
    )
    return na_from_geometry(geometry)


def fault_tolerance_check(
    na: float,
    eta_diff: float,
    detector: DetectorSpec,
    required_p_coll: float = DEFAULT_REQUIRED_P_COLL,
) -> dict:
    """Readout budget of one site against a collection threshold.

    p_coll is the polar-sigma collection probability at the given NA
    and lens efficiency; the threshold applies before detector quantum
    efficiency, which only scales the reported detected_fraction.
    """
    check_na(na)
    require(0.0 < required_p_coll <= 1.0, "required_p_coll", "in (0, 1]", required_p_coll)
    p_coll = collection_probability(POLAR_SIGMA, cone_from_na(na), eta_diff)
    return {
        "p_coll": p_coll,
        "detected_fraction": p_coll * detector.quantum_efficiency,
        "pass": p_coll >= required_p_coll,
    }


def entanglement_rate_gain(p_coh_new: float, p_coh_ref: float) -> float:
    """Remote-entanglement rate ratio implied by two coupling values.

    Rates scale as the square of the coherent coupling, so the gain is
    (p_coh_new / p_coh_ref)^2.
    """
    require(0.0 < p_coh_new <= 1.0, "p_coh_new", "in (0, 1]", p_coh_new)
    require(0.0 < p_coh_ref <= 1.0, "p_coh_ref", "in (0, 1]", p_coh_ref)
    ratio = p_coh_new / p_coh_ref
    # before squaring: ** on Python floats raises OverflowError where * gives inf
    rule = "small enough to square (below 1.34e+154)"
    require(ratio * ratio < math.inf, "p_coh_new / p_coh_ref", rule, f"{p_coh_new:g} / {p_coh_ref:g}")
    return ratio**2
