"""Nonparaxial scalar propagation of radially symmetric fields.

Fields are sampled on the Bessel-zero collocation grid of a
HankelTransform. Propagation happens in the angular spectrum: the
order-zero Hankel transform of the field is multiplied by
exp(i z sqrt(k^2 - k_r^2)) and transformed back. The square root is
taken with a positive imaginary part for k_r > k, so evanescent
components decay instead of being truncated; propagating components are
phase-shifted only and their energy is conserved.

Spot sizes are extracted with a virtual knife edge: the intensity is
integrated over a half plane as a function of blade position and the
resulting power curve is fitted with the same error-function model used
for measured data (see the beamfit module). This matches what a blade
measurement reports, which for focal fields with sidelobes differs from
a second-moment width (the second moment diverges for Airy-like tails).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .beamfit import KnifeEdgeScan, fit_scan
from .design import ZoneLayout
from .errors import DomainError, ResolutionError
from .hankel import HankelTransform

# fraction of the propagating k range treated as the aliasing guard band,
# and the maximum relative power allowed there before propagation is
# refused. Sharp zone edges scatter a broadband tail of order 1e-3 into
# any such band; folded power from an under-resolved phase profile is
# orders of magnitude larger.
_GUARD_BAND_FRACTION = 0.02
_GUARD_BAND_MAX_POWER = 1e-2


@dataclass(frozen=True)
class RadialField:
    """Complex field samples on the collocation grid of a HankelTransform.

    A field is (transform, amplitude, wavelength). amplitude[n] is the
    field at transform.radii[n]; the transform is the only copy of the
    grid. wavelength in meters.
    """

    transform: HankelTransform
    amplitude: np.ndarray
    wavelength: float

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=complex)
        object.__setattr__(self, "amplitude", amp)
        if amp.shape != (self.transform.n_points,):
            raise DomainError(
                f"amplitude must have shape ({self.transform.n_points},), got {amp.shape}"
            )
        if not (self.wavelength > 0):
            raise DomainError(f"wavelength must be > 0, got {self.wavelength}")
        if not np.all(np.isfinite(amp)):
            raise DomainError("amplitude samples must be finite")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    def power(self) -> float:
        """Total power 2 pi int |E|^2 r dr on the collocation grid."""
        return self.transform.radial_power(self.amplitude)

    def with_amplitude(self, amplitude: np.ndarray) -> "RadialField":
        return RadialField(self.transform, amplitude, self.wavelength)


def plane_wave(transform: HankelTransform, wavelength: float, amplitude: float = 1.0) -> RadialField:
    """Uniform field of the given amplitude on the whole grid."""
    values = np.full(transform.n_points, amplitude, dtype=complex)
    return RadialField(transform, values, wavelength)


def gaussian_beam(transform: HankelTransform, waist: float, wavelength: float) -> RadialField:
    """Collimated unit-amplitude Gaussian beam at its waist: E(r) = exp(-r^2 / w^2)."""
    if not (waist > 0):
        raise DomainError(f"waist must be > 0, got {waist}")
    values = np.exp(-((transform.radii / waist) ** 2)).astype(complex)
    return RadialField(transform, values, wavelength)


def _grid_max_spacing(grid: np.ndarray) -> float:
    return float(np.max(np.diff(grid)))


def apply_binary_pfl(field: RadialField, layout: ZoneLayout) -> RadialField:
    """Transmit a field through a phase Fresnel lens layout.

    The listed ring radii are the full-period contours of the lens phase
    profile; the profile between them is reconstructed from the focal
    length implied by the first ring and quantized to the layout's phase
    level count. For a binary layout this multiplies the amplitude by
    -1 on the half-period annuli (every level boundary midway between
    consecutive rings and at each ring). The field is zeroed outside the
    clear aperture.

    Raises ResolutionError when the grid provides fewer than 4 samples
    across the outermost ring period.
    """
    transform = field.transform
    if transform.max_radius < layout.aperture_radius * (1 - 1e-12):
        raise DomainError(
            "field grid must cover the layout aperture: grid extends to "
            f"{transform.max_radius:.6g} m, aperture radius is {layout.aperture_radius:.6g} m"
        )

    r = transform.radii
    inside = r <= layout.aperture_radius
    amplitude = np.where(inside, field.amplitude, 0.0)

    if layout.zone_count == 0:
        return field.with_amplitude(amplitude)

    if layout.zone_count >= 2:
        outer_pitch = float(layout.ring_radii[-1] - layout.ring_radii[-2])
        samples_per_zone = outer_pitch / _grid_max_spacing(r)
        if samples_per_zone < 4.0:
            raise ResolutionError(
                f"grid under-samples the outermost zone: {samples_per_zone:.2f} "
                "samples per zone period, need at least 4"
            )

    focal_length = layout.focal_length()
    lam = layout.design_wavelength
    levels = layout.phase_levels
    path_excess = np.sqrt(focal_length**2 + r**2) - focal_length
    cycle_fraction = np.mod(path_excess / lam, 1.0)
    level_index = np.minimum(np.floor(cycle_fraction * levels), levels - 1)
    phase = np.exp(-2j * math.pi * level_index / levels)
    return field.with_amplitude(amplitude * np.where(inside, phase, 1.0))


def apply_ideal_lens(
    field: RadialField,
    focal_length: float,
    aperture_radius: float,
    paraxial: bool = False,
) -> RadialField:
    """Transmit through an aberration-free lens of the given focal length.

    Applies the full (nonparaxial) converging phase
    exp(-i k (sqrt(f^2 + r^2) - f)) inside the aperture and zeroes the
    field outside. This is the continuous profile that a phase Fresnel
    lens quantizes. paraxial=True instead applies the textbook thin-lens
    phase exp(-i k r^2 / 2f); paired with paraxial propagation this
    reproduces closed-form Gaussian-beam focusing.
    """
    if not (focal_length > 0 and aperture_radius > 0):
        raise DomainError("focal_length and aperture_radius must be > 0")
    r = field.transform.radii
    # steepest phase gradient (at the rim) must stay below grid Nyquist
    if paraxial:
        rim_gradient = field.wavenumber * aperture_radius / focal_length
    else:
        rim_gradient = (
            field.wavenumber * aperture_radius / math.hypot(focal_length, aperture_radius)
        )
    nyquist = math.pi / _grid_max_spacing(r)
    if rim_gradient > nyquist:
        raise ResolutionError(
            f"lens phase oscillates at {rim_gradient:.3g} rad/m at the rim "
            f"but the grid resolves only {nyquist:.3g} rad/m"
        )
    inside = r <= aperture_radius
    if paraxial:
        path_excess = r**2 / (2.0 * focal_length)
    else:
        path_excess = np.sqrt(focal_length**2 + r**2) - focal_length
    phase = np.exp(-1j * field.wavenumber * path_excess)
    return field.with_amplitude(np.where(inside, field.amplitude * phase, 0.0))


def _check_spectrum_resolved(
    transform: HankelTransform, spectrum: np.ndarray, wavenumber: float
) -> None:
    """Verify the propagating part of the angular spectrum is resolved.

    An under-resolved phase profile folds power across the whole k
    range, so significant power just inside the light cone (or at the
    grid's k limit when that is smaller) flags aliasing. Components
    beyond the light cone are evanescent and decay within a wavelength,
    so physical edge-diffraction tails out there are ignored.
    """
    weights = transform.spectral_power_weights
    power = weights * np.abs(spectrum) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return
    k_limit = min(wavenumber, float(transform.k_radial[-1]))
    band = (transform.k_radial >= (1.0 - _GUARD_BAND_FRACTION) * k_limit) & (
        transform.k_radial <= k_limit
    )
    edge = float(np.sum(power[band]))
    if edge > _GUARD_BAND_MAX_POWER * total:
        raise ResolutionError(
            "angular spectrum carries "
            f"{edge / total:.2e} of the power within {_GUARD_BAND_FRACTION:.0%} of "
            "the propagation limit; the grid is too coarse for the field's "
            "numerical aperture"
        )


def _propagator_phase(
    transform: HankelTransform, wavenumber: float, distance: float, paraxial: bool = False
) -> np.ndarray:
    """Angular-spectrum transfer phase for one propagation step.

    The default is the exact nonparaxial kernel exp(i z sqrt(k^2 - kr^2))
    with evanescent decay; paraxial=True selects the Fresnel kernel
    exp(i z (k - kr^2 / 2k)) under which Gaussian-beam theory is exact.
    """
    if paraxial:
        return np.exp(
            1j * distance * (wavenumber - transform.k_radial**2 / (2.0 * wavenumber))
        )
    kz_sq = wavenumber**2 - transform.k_radial**2
    kz = np.sqrt(kz_sq.astype(complex))
    return np.exp(1j * distance * kz)


def propagate(field: RadialField, distance: float, paraxial: bool = False) -> RadialField:
    """Propagate a field forward by the given distance [m]."""
    if distance < 0:
        raise DomainError(f"distance must be >= 0, got {distance}")
    transform = field.transform
    spectrum = transform.forward(field.amplitude)
    _check_spectrum_resolved(transform, spectrum, field.wavenumber)
    if distance == 0.0:
        return field
    out = transform.inverse(
        spectrum * _propagator_phase(transform, field.wavenumber, distance, paraxial)
    )
    return field.with_amplitude(out)


# ---------------------------------------------------------------------------
# virtual knife edge
# ---------------------------------------------------------------------------


def knife_edge_power_curve(
    radii: np.ndarray, intensity: np.ndarray, blade_positions: np.ndarray
) -> np.ndarray:
    """Transmitted power versus blade position for a radial intensity.

    The blade occupies the half plane x < blade position. A ring of
    radius r transmits the arc |phi| < arccos(x / r), so

        P(x) = int I(r) r 2 arccos(clip(x / r, -1, 1)) dr.

    Radii must be increasing; the integral uses the trapezoid rule.
    """
    radii = np.asarray(radii, dtype=float)
    intensity = np.asarray(intensity, dtype=float)
    blade_positions = np.asarray(blade_positions, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = blade_positions[:, None] / radii[None, :]
    # r = 0 contributes nothing (weight r); silence the 0/0 sample
    ratio = np.nan_to_num(ratio, nan=0.0, posinf=1.0, neginf=-1.0)
    arc = 2.0 * np.arccos(np.clip(ratio, -1.0, 1.0))
    integrand = intensity * radii * arc
    return np.trapezoid(integrand, radii, axis=1)


def _composite_radial_intensity(
    field_values: np.ndarray,
    transform: HankelTransform,
    spectrum: np.ndarray,
    fine_max_radius: float,
    resampler: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Intensity on a grid refined near the axis.

    The inner region [0, fine_max_radius] is evaluated by Fourier-Bessel
    resummation of the angular spectrum through resampler, the
    transform's resample_matrix on evenly spaced radii over that region;
    outside it the native collocation samples are used.
    """
    fine_r = np.linspace(0.0, fine_max_radius, resampler.shape[0])
    fine_values = resampler @ spectrum.real + 1j * (resampler @ spectrum.imag)
    outer = transform.radii > fine_max_radius
    radii = np.concatenate([fine_r, transform.radii[outer]])
    intensity = np.concatenate(
        [np.abs(fine_values) ** 2, np.abs(field_values[outer]) ** 2]
    )
    return radii, intensity


def _median_radius(radii: np.ndarray, intensity: np.ndarray) -> float:
    """Radius enclosing half the power of a radial intensity profile."""
    cumulative = np.concatenate(
        [[0.0], np.cumsum(np.diff(radii) * 0.5 * ((intensity * radii)[1:] + (intensity * radii)[:-1]))]
    )
    total = cumulative[-1]
    if total <= 0:
        raise DomainError("field carries no power")
    return float(np.interp(0.5 * total, cumulative, radii))


def _spot_radius_estimate(radii: np.ndarray, intensity: np.ndarray) -> float:
    """1/e^2 radius estimate of the central lobe.

    Walks outward from the intensity peak to the first crossing below
    peak/e^2. Unlike the half-power radius this stays anchored to the
    focal spot when a diffuse multi-order halo carries most of the
    power. Falls back to the half-power radius when the profile never
    drops below the threshold (near-uniform illumination).
    """
    i_peak = int(np.argmax(intensity))
    threshold = intensity[i_peak] / math.e**2
    below = np.nonzero(intensity[i_peak:] < threshold)[0]
    if below.size == 0:
        return _median_radius(radii, intensity)
    j = i_peak + int(below[0])
    # interpolate the crossing between the last sample above and first below
    r_lo, r_hi = radii[j - 1], radii[j]
    i_lo, i_hi = intensity[j - 1], intensity[j]
    frac = (i_lo - threshold) / (i_lo - i_hi) if i_lo > i_hi else 1.0
    crossing = r_lo + frac * (r_hi - r_lo)
    return max(float(crossing - radii[i_peak]), float(radii[1] - radii[0]))


def measure_waist_knife_edge(
    field: RadialField,
    spectrum: np.ndarray | None = None,
    n_blade_positions: int = 81,
    fine_points: int = 512,
    fine_resampler: tuple[float, np.ndarray] | None = None,
) -> tuple[float, float]:
    """1/e^2 intensity radius of a field via a virtual knife edge.

    Returns (waist, 1 sigma uncertainty from the fit). The blade curve
    is generated over +-2.5 half-power radii and fitted with the same
    error-function model applied to measured scans.
    """
    transform = field.transform
    values = field.amplitude
    native_intensity = np.abs(values) ** 2

    w_est = _spot_radius_estimate(transform.radii, native_intensity)
    spacing = _grid_max_spacing(transform.radii)
    if w_est < 25 * spacing:
        if spectrum is None:
            spectrum = transform.forward(values)
        if fine_resampler is not None:
            fine_max, resampler = fine_resampler
        else:
            fine_max = min(max(8 * w_est, 12 * spacing), transform.max_radius)
            resampler = transform.resample_matrix(np.linspace(0.0, fine_max, fine_points))
        radii, intensity = _composite_radial_intensity(
            values, transform, spectrum, fine_max, resampler
        )
        w_est = _spot_radius_estimate(radii, intensity)
    else:
        radii, intensity = transform.radii, native_intensity

    blade_span = 2.5 * w_est
    blade = np.linspace(-blade_span, blade_span, n_blade_positions)
    trans = knife_edge_power_curve(radii, intensity, blade)
    scan = KnifeEdgeScan(z=0.0, blade_positions=blade, powers=trans, direction="in")
    point = fit_scan(scan)
    return point.w, point.w_uncertainty


# ---------------------------------------------------------------------------
# focal scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FocalScanResult:
    """Waist versus axial position, plus encircled power at best focus.

    encircled_radii / encircled_power give the cumulative power within a
    radius at the best-focus plane, in absolute units matching
    input_power. transmitted_power is the power just after the lens.
    """

    z_positions: np.ndarray
    fitted_waists: np.ndarray
    waist_uncertainties: np.ndarray
    encircled_radii: np.ndarray
    encircled_power: np.ndarray
    input_power: float
    transmitted_power: float

    def __post_init__(self):
        z = np.asarray(self.z_positions, dtype=float)
        w = np.asarray(self.fitted_waists, dtype=float)
        s = np.asarray(self.waist_uncertainties, dtype=float)
        if not (z.shape == w.shape == s.shape):
            raise DomainError("z, waists and uncertainties must have equal length")
        if np.any(w <= 0):
            raise DomainError("fitted waists must be positive")
        object.__setattr__(self, "z_positions", z)
        object.__setattr__(self, "fitted_waists", w)
        object.__setattr__(self, "waist_uncertainties", s)
        object.__setattr__(self, "encircled_radii", np.asarray(self.encircled_radii, dtype=float))
        object.__setattr__(self, "encircled_power", np.asarray(self.encircled_power, dtype=float))

    @property
    def best_focus_index(self) -> int:
        return int(np.argmin(self.fitted_waists))

    @property
    def best_focus_z(self) -> float:
        return float(self.z_positions[self.best_focus_index])

    @property
    def best_waist(self) -> float:
        return float(self.fitted_waists[self.best_focus_index])

    def has_interior_minimum(self) -> bool:
        """Whether the minimum waist lies strictly inside the scanned range."""
        i = self.best_focus_index
        return 0 < i < len(self.z_positions) - 1


def _encircled_power_curve(
    transform: HankelTransform,
    field_values: np.ndarray,
    fine_radii: np.ndarray,
    fine_intensity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative power within a radius at one plane.

    The resampled core is integrated with the trapezoid rule; beyond it
    the curve switches to partial sums of the transform's quadrature
    weights, whose total equals the plane power exactly. (Trapezoid
    sums on the native grid lose percent-level power to near-Nyquist
    halo fringes; the quadrature weights integrate the band-limited
    series exactly.)
    """
    integrand = 2.0 * math.pi * fine_intensity * fine_radii
    core = np.concatenate(
        [[0.0], np.cumsum(np.diff(fine_radii) * 0.5 * (integrand[1:] + integrand[:-1]))]
    )
    outer = transform.radii > fine_radii[-1]
    if not np.any(outer):
        return fine_radii, core
    plane_power = transform.radial_power(field_values)
    ring_power = transform.power_weights[outer] * np.abs(field_values[outer]) ** 2
    beyond = np.cumsum(ring_power[::-1])[::-1] - ring_power
    outer_curve = plane_power - beyond
    radii = np.concatenate([fine_radii, transform.radii[outer]])
    curve = np.concatenate([core, outer_curve])
    return radii, np.maximum.accumulate(curve)


def scan_field(
    transmitted: RadialField,
    z_positions: np.ndarray,
    input_power: float | None = None,
    n_blade_positions: int = 81,
    fine_points: int = 512,
    paraxial: bool = False,
) -> FocalScanResult:
    """Waist-versus-z scan of an already-transmitted field.

    z positions are measured from the transmitted plane. The forward
    transform is computed once; each plane applies the propagator phase
    and inverts.
    """
    transform = transmitted.transform
    z_positions = np.asarray(z_positions, dtype=float)
    if z_positions.size < 1 or np.any(np.diff(z_positions) <= 0):
        raise DomainError("z_positions must be increasing and non-empty")
    if np.any(z_positions < 0):
        raise DomainError("z_positions must be non-negative (measured from the lens)")

    spectrum = transform.forward(transmitted.amplitude)
    _check_spectrum_resolved(transform, spectrum, transmitted.wavenumber)
    transmitted_power = transform.radial_power(transmitted.amplitude)
    if input_power is None:
        input_power = transmitted_power

    # one fine-resampling operator reused across planes
    spacing = _grid_max_spacing(transform.radii)
    fine_max = min(60 * spacing, transform.max_radius)
    fine_grid = np.linspace(0.0, fine_max, fine_points)
    resampler = transform.resample_matrix(fine_grid)

    waists = np.empty_like(z_positions)
    sigmas = np.empty_like(z_positions)
    fields_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i, z in enumerate(z_positions):
        spec_z = spectrum * _propagator_phase(transform, transmitted.wavenumber, z, paraxial)
        values = transform.inverse(spec_z)
        plane = transmitted.with_amplitude(values)
        w, s = measure_waist_knife_edge(
            plane,
            spectrum=spec_z,
            n_blade_positions=n_blade_positions,
            fine_points=fine_points,
            fine_resampler=(fine_max, resampler),
        )
        waists[i] = w
        sigmas[i] = s
        fields_cache[i] = (spec_z, values)

    best = int(np.argmin(waists))
    spec_best, values_best = fields_cache[best]
    radii, intensity = _composite_radial_intensity(
        values_best, transform, spec_best, fine_max, resampler
    )
    enc_r, enc_p = _encircled_power_curve(
        transform, values_best, radii[:fine_points], intensity[:fine_points]
    )

    return FocalScanResult(
        z_positions=z_positions,
        fitted_waists=waists,
        waist_uncertainties=sigmas,
        encircled_radii=enc_r,
        encircled_power=enc_p,
        input_power=float(input_power),
        transmitted_power=float(transmitted_power),
    )


def focal_scan(
    field: RadialField,
    layout: ZoneLayout,
    z_range: tuple[float, float],
    n_steps: int,
    fine_points: int = 512,
) -> FocalScanResult:
    """Transmit a field through a lens layout and scan waists over z.

    z_range is absolute distance from the lens plane and should bracket
    the design focus.
    """
    z_lo, z_hi = z_range
    if not (0 <= z_lo < z_hi):
        raise DomainError(f"invalid z range {z_range}")
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    input_power = field.power()
    transmitted = apply_binary_pfl(field, layout)
    z_positions = np.linspace(z_lo, z_hi, n_steps)
    return scan_field(
        transmitted,
        z_positions,
        input_power=input_power,
        fine_points=fine_points,
    )


def efficiency_into_focus(
    scan: FocalScanResult,
    input_power: float | None = None,
    capture_radius_multiplier: float = 3.0,
) -> float:
    """Fraction of the input power inside the focal capture radius.

    The capture radius is capture_radius_multiplier times the fitted
    waist at best focus; capture_radius_multiplier=math.inf returns the
    full power transmitted to the focal plane. The scalar propagation
    model is lossless through interfaces, so surface losses (see
    design.fresnel_plate_transmission) are not included.
    """
    if input_power is None:
        input_power = scan.input_power
    if not (input_power > 0):
        raise DomainError("input_power must be > 0")
    if not (capture_radius_multiplier > 0):
        raise DomainError("capture_radius_multiplier must be > 0")
    if math.isinf(capture_radius_multiplier):
        captured = float(scan.encircled_power[-1])
    else:
        capture_radius = capture_radius_multiplier * scan.best_waist
        captured = float(
            np.interp(capture_radius, scan.encircled_radii, scan.encircled_power)
        )
    return captured / input_power


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

FOCAL_SCAN_CSV_HEADER = ["z_m", "waist_m"]


def focal_scan_csv_text(scan: FocalScanResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FOCAL_SCAN_CSV_HEADER)
    for z, w in zip(scan.z_positions, scan.fitted_waists):
        writer.writerow([f"{z:.17g}", f"{w:.17g}"])
    return buf.getvalue()
