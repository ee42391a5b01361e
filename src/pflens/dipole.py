"""Dipole-emission collection, fiber coupling, and polarization fidelity.

An atomic dipole radiates sigma (circular, quantization-axis
transverse) or pi (linear, axis-parallel) patterns. A collection lens
on the quantization axis sees the "polar" view; a lens perpendicular to
it sees the "equatorial" view. For a cone of half-angle theta_m about
the optical axis, the captured fractions of total emission are, with
c = cos(theta_m),

    polar sigma, equatorial pi: 1/2 - (3/8) c - (1/8) c^3
    polar pi:                   (2 + c) sin^4(theta_m / 2)
    equatorial sigma:           1/2 - (9/16) c + (1/16) c^3

each normalized so the full sphere gives 1. Small-aperture series in
NA = sin(theta_m) are provided alongside for comparison; the polar
sigma series tracks its exact form within 2% below NA = 0.8, the
equatorial sigma series below NA = 0.72, and the pi series is looser.

Coupling into a single-mode fiber replaces the hard aperture with the
fiber's accepted Gaussian cone: the collected fraction is evaluated at
the effective divergence theta / (M sqrt(2)), the top-hat equivalent of
the Gaussian acceptance. Against a quadrature of the Gaussian overlap,
the shortcut is within about 2% on the sigma channels below a 0.65 rad
divergence and within 2.4% below 0.93 rad.

Polarization purity: light collected at polar angle theta projects
onto the target circular polarization with amplitude fidelity
sqrt(1 - sin^2(theta)/2); averaging over the sigma pattern inside the
aperture gives the collected fidelity, 0.832 at NA = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import csv_text
from .errors import require, require_finite_fields
from .geometry import check_cone_angle, check_na, cone_from_na

_POLARIZATIONS = ("sigma_plus", "sigma_minus", "pi")
_ORIENTATIONS = ("polar", "equatorial")
M_CONVENTIONS = ("sqrt", "unity")  # M = sqrt(m2) or M = 1 in effective_divergence

# 12 nodes put the fidelity ratio at rounding: its integrands are analytic
# in an ellipse of Bernstein radius about 4.6 around the interval
_FIDELITY_NODES, _FIDELITY_WEIGHTS = np.polynomial.legendre.leggauss(12)


@dataclass(frozen=True)
class EmissionChannel:
    """One dipole transition viewed along a particular axis.

    polarization is the emitted component (sigma_plus, sigma_minus, or
    pi); orientation is the lens axis relative to the quantization
    axis (polar = parallel, equatorial = perpendicular). sigma_plus and
    sigma_minus behave identically here; the sign matters only to
    downstream frequency filtering.
    """

    polarization: str
    orientation: str

    def __post_init__(self):
        for name, allowed in (("polarization", _POLARIZATIONS), ("orientation", _ORIENTATIONS)):
            value = getattr(self, name)
            require(value in allowed, name, f"one of {allowed}", repr(value))

    @property
    def is_sigma(self) -> bool:
        return self.polarization != "pi"

    @property
    def label(self) -> str:
        kind = "sigma" if self.is_sigma else "pi"
        return f"{self.orientation}_{kind}"


POLAR_SIGMA = EmissionChannel("sigma_plus", "polar")
POLAR_PI = EmissionChannel("pi", "polar")
EQUATORIAL_SIGMA = EmissionChannel("sigma_plus", "equatorial")
EQUATORIAL_PI = EmissionChannel("pi", "equatorial")


@dataclass(frozen=True)
class BeamQuality:
    """Far-field divergence half-angle [rad] and propagation factor m2."""

    divergence_half_angle: float
    m2: float = 1.0

    def __post_init__(self):
        theta = self.divergence_half_angle
        require(0.0 < theta <= math.pi / 2, "divergence_half_angle", "in (0, pi/2]", theta)
        require(self.m2 >= 1.0, "m2", ">= 1", self.m2)
        require_finite_fields(self)


@dataclass(frozen=True)
class CouplingBudget:
    """Collected and coherently coupled photon fractions for one channel.

    eta_diff is the lens diffraction efficiency folded into both
    probabilities. Invariant: p_coh <= p_coll <= eta_diff, since the
    fiber-accepted cone is contained in the collection cone.
    """

    p_coll: float
    p_coh: float
    eta_diff: float
    channel: EmissionChannel

    def __post_init__(self):
        require(0.0 < self.eta_diff <= 1.0, "eta_diff", "in (0, 1]", self.eta_diff)
        p_coll, p_coh = self.p_coll, self.p_coh
        require(0.0 <= p_coll <= self.eta_diff * (1 + 1e-12), "p_coll", "in [0, eta_diff]", p_coll)
        require(0.0 <= p_coh <= p_coll * (1 + 1e-12), "p_coh", "in [0, p_coll]", p_coh)


# ---------------------------------------------------------------------------
# radiation patterns and collection fractions


def radiation_pattern(channel: EmissionChannel, theta, phi=0.0):
    """Normalized dipole intensity per solid angle, integrating to 1.

    theta is the polar angle from the optical axis, phi the azimuth
    measured from the projected quantization axis (relevant only for
    equatorial views).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if channel.orientation == "polar":
        if channel.is_sigma:
            return 3.0 / (16.0 * math.pi) * (1.0 + np.cos(theta) ** 2)
        return 3.0 / (8.0 * math.pi) * np.sin(theta) ** 2
    # equatorial view: the dipole axis lies along (theta = pi/2, phi = 0)
    axis_cosine = np.sin(theta) * np.cos(phi)
    if channel.is_sigma:
        return 3.0 / (16.0 * math.pi) * (1.0 + axis_cosine**2)
    return 3.0 / (8.0 * math.pi) * (1.0 - axis_cosine**2)


def collection_fraction(channel: EmissionChannel, theta_max: float) -> float:
    """Fraction of total emission inside a cone of half-angle theta_max.

    Exact closed forms from integrating radiation_pattern over the
    cone; 0 at theta_max = 0, 1/2 at pi/2, 1 at pi for every channel.
    """
    check_cone_angle(theta_max)
    c = math.cos(theta_max)
    if channel.orientation == "polar" and not channel.is_sigma:
        return (2.0 + c) * math.sin(theta_max / 2.0) ** 4
    if channel.orientation == "equatorial" and channel.is_sigma:
        return 0.5 - (9.0 / 16.0) * c + (1.0 / 16.0) * c**3
    # polar sigma and equatorial pi share one form
    return 0.5 - (3.0 / 8.0) * c - (1.0 / 8.0) * c**3


def collection_fraction_series(channel: EmissionChannel, na: float) -> float:
    """Small-aperture polynomial in NA for the collection fraction.

    Relative agreement with the exact forms (for 0.05 <= NA): within 2%
    below NA = 0.8 on polar sigma, below NA = 0.72 on equatorial sigma
    (4.2% by 0.8), and below NA = 0.5 on polar pi.
    """
    check_na(na)
    if channel.orientation == "polar" and not channel.is_sigma:
        return (3.0 / 16.0) * na**4 + (1.0 / 16.0) * na**6
    if channel.orientation == "equatorial" and channel.is_sigma:
        return (3.0 / 16.0) * na**2 + (3.0 / 32.0) * na**4 + (5.0 / 128.0) * na**6
    return (3.0 / 8.0) * na**2 + (1.0 / 64.0) * na**6


def collection_probability(
    channel: EmissionChannel, theta_max: float, eta_diff: float
) -> float:
    """Photon collection probability: captured fraction times efficiency.

    eta_diff = 0 is allowed as the lossless-limit complement: no
    diffracted power, no collected photons.
    """
    require(0.0 <= eta_diff <= 1.0, "eta_diff", "in [0, 1]", eta_diff)
    return collection_fraction(channel, theta_max) * eta_diff


# ---------------------------------------------------------------------------
# single-mode coupling


def effective_divergence(quality: BeamQuality, m_convention: str = "sqrt") -> float:
    """Top-hat cone half-angle equivalent to a Gaussian acceptance.

    theta_e = theta / (M sqrt(2)) with M = sqrt(m2). Passing
    m_convention="unity" evaluates the historical simplification M = 1,
    which ignores the measured beam quality; both conventions appear in
    published estimates, so the choice is explicit.
    """
    rule = " or ".join(map(repr, M_CONVENTIONS))
    require(m_convention in M_CONVENTIONS, "m_convention", rule, repr(m_convention))
    m_factor = math.sqrt(quality.m2) if m_convention == "sqrt" else 1.0
    return quality.divergence_half_angle / (m_factor * math.sqrt(2.0))


def coherent_coupling(
    channel: EmissionChannel,
    quality: BeamQuality,
    eta_diff: float,
    m_convention: str = "sqrt",
) -> float:
    """Probability of collecting a photon into the single spatial mode.

    The collection fraction evaluated at the effective divergence,
    times the diffraction efficiency. Always bounded by the full-cone
    collection probability at the same divergence.
    """
    require(0.0 <= eta_diff <= 1.0, "eta_diff", "in [0, 1]", eta_diff)
    theta_e = effective_divergence(quality, m_convention)
    return collection_fraction(channel, theta_e) * eta_diff


def coupling_budget(
    channel: EmissionChannel,
    quality: BeamQuality,
    eta_diff: float,
    m_convention: str = "sqrt",
) -> CouplingBudget:
    """Collection and coherent-coupling probabilities for one channel."""
    return CouplingBudget(
        p_coll=collection_probability(
            channel, quality.divergence_half_angle, eta_diff
        ),
        p_coh=coherent_coupling(channel, quality, eta_diff, m_convention),
        eta_diff=eta_diff,
        channel=channel,
    )


# ---------------------------------------------------------------------------
# polarization fidelity


def polarization_fidelity_single(theta: float) -> float:
    """Fidelity of light emitted at polar angle theta [rad].

    sqrt(1 - sin^2(theta) / 2): the projection of the far-field
    polarization at that angle onto the target circular state.
    """
    require(0.0 <= theta <= math.pi / 2, "theta", "in [0, pi/2]", theta)
    return math.sqrt(1.0 - 0.5 * math.sin(theta) ** 2)


def polarization_fidelity_collected(na: float) -> float:
    """Average fidelity of all sigma light collected within an aperture.

    polarization_fidelity_single weighted by the sigma emission
    pattern, (1 + cos^2 theta) sin theta, over the cone of the given
    NA and normalized by the captured fraction. Strictly decreasing,
    from 1 at NA -> 0 down to 0.832 at NA = 1.

    With c = cos theta both integrands are polynomials in c times
    sqrt((1 + c^2) / 2), analytic well beyond [0, 1], so a fixed
    Gauss-Legendre rule on [cos theta_max, 1] reaches rounding. The
    interval length, 1 - cos theta_max = NA^2 / (1 + sqrt(1 - NA^2)),
    cancels from the ratio; where it underflows every node is c = 1.
    """
    check_na(na)
    half_length = 0.5 * na * na / (1.0 + math.sqrt(1.0 - na * na))
    c = 1.0 - half_length * (1.0 - _FIDELITY_NODES)
    weight = _FIDELITY_WEIGHTS * (1.0 + c * c)
    return float(np.sum(weight * np.sqrt(0.5 * (1.0 + c * c))) / np.sum(weight))


def fidelity_series(na: float) -> float:
    """Polynomial approximation of the collected fidelity.

    1 - NA^2/8 - NA^4/96 - 7 NA^6/1536; within 1% of the integral for
    NA < 0.95.
    """
    check_na(na)
    return 1.0 - na**2 / 8.0 - na**4 / 96.0 - 7.0 * na**6 / 1536.0


# ---------------------------------------------------------------------------
# curve export

_CURVE_CHANNELS = (POLAR_SIGMA, EQUATORIAL_SIGMA, POLAR_PI)
# points per exported curve, from 0 to the curve's end inclusive
DEFAULT_CURVE_STEPS = 101


def collection_curve_csv_text(n_steps: int = DEFAULT_CURVE_STEPS) -> str:
    """Collection fraction vs NA from 0 to 1 for the three channels (plot data)."""
    require(n_steps >= 2, "n_steps", ">= 2", n_steps)
    rows = []
    for na in np.linspace(0.0, 1.0, n_steps):
        theta = cone_from_na(float(na))
        rows.append([na] + [collection_fraction(channel, theta) for channel in _CURVE_CHANNELS])
    return csv_text(["na"] + [channel.label for channel in _CURVE_CHANNELS], rows)


def fidelity_curve_csv_text(n_steps: int = DEFAULT_CURVE_STEPS) -> str:
    """Collected polarization fidelity vs NA from 0 to 1, integral and series."""
    require(n_steps >= 2, "n_steps", ">= 2", n_steps)
    rows = (
        (na, polarization_fidelity_collected(na), fidelity_series(na))
        for na in map(float, np.linspace(0.0, 1.0, n_steps))
    )
    return csv_text(["na", "fidelity", "fidelity_series"], rows)
