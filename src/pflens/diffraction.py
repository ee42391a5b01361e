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

import math
from dataclasses import dataclass

import numpy as np

from ._csv import csv_text
from .beamfit import KnifeEdgeScan, fit_scan, fit_scans
from .design import ZoneLayout, path_excess
from .errors import DomainError, FitError, ResolutionError, require
from .hankel import HankelTransform, _check_fine_points, _check_light_cone

# fraction of the propagating k range treated as the aliasing guard band,
# and the maximum relative power allowed there before propagation is
# refused. Sharp zone edges scatter a broadband tail of order 1e-3 into
# any such band; folded power from an under-resolved phase profile is
# orders of magnitude larger.
_GUARD_BAND_FRACTION = 0.02
_GUARD_BAND_MAX_POWER = 1e-2
# scan defaults, which the config's keys of the same names start from:
# near-axis fine-grid radii, blade positions per knife-edge curve, and the
# capture radius of efficiency_into_focus in best-focus waists
DEFAULT_FINE_POINTS = 512
DEFAULT_BLADE_POSITIONS = 81
DEFAULT_CAPTURE_RADIUS_MULTIPLIER = 3.0
# knife_edge_power_curve expands arccos(x / r) in powers of x / r on radii
# beyond this multiple of the largest blade offset, keeping the first
# _KNIFE_EDGE_FAR_TERMS terms (truncation below 5.3e-18 rad; see there)
_KNIFE_EDGE_FAR_RATIO = 8.0
_KNIFE_EDGE_FAR_TERMS = 8
# arcsin(u) = sum_k c_k u^(2k+1), c_k = C(2k, k) / (4^k (2k + 1))
_ARCSIN_COEFFICIENTS = np.array(
    [math.comb(2 * k, k) / (4**k * (2 * k + 1)) for k in range(_KNIFE_EDGE_FAR_TERMS)]
)


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
        require(self.wavelength > 0, "wavelength", "> 0", self.wavelength)
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
    require(waist > 0, "waist", "> 0", waist)
    values = np.exp(-((transform.radii / waist) ** 2)).astype(complex)
    return RadialField(transform, values, wavelength)


def apply_binary_pfl(field: RadialField, layout: ZoneLayout) -> RadialField:
    """Transmit a field through a phase Fresnel lens layout.

    Multiplies the amplitude by layout.pupil, sampled at each grid
    radius: the layout's quantized phase profile inside the clear
    aperture, zero outside it.

    Raises DomainError when the grid does not cover the aperture, and
    ResolutionError when its band j_{N+1} / R is below the field's
    wavenumber k: the grid's spectrum then stops inside the light cone.
    """
    transform = field.transform
    if transform.max_radius < layout.aperture_radius * (1 - 1e-12):
        raise DomainError(
            "field grid must cover the layout aperture: grid extends to "
            f"{transform.max_radius:.6g} m, aperture radius is {layout.aperture_radius:.6g} m"
        )
    if layout.zone_count >= 2:
        _check_light_cone(transform, field.wavelength)
    return field.with_amplitude(field.amplitude * layout.pupil(transform.radii))


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
    require(focal_length > 0, "focal_length", "> 0", focal_length)
    require(aperture_radius > 0, "aperture_radius", "> 0", aperture_radius)
    transform = field.transform
    r = transform.radii
    # steepest phase gradient (at the rim) must stay below grid Nyquist
    rim_distance = focal_length if paraxial else math.hypot(focal_length, aperture_radius)
    rim_gradient = field.wavenumber * aperture_radius / rim_distance
    nyquist = math.pi / transform.max_spacing
    if rim_gradient > nyquist:
        raise ResolutionError(
            f"lens phase oscillates at {rim_gradient:.3g} rad/m at the rim "
            f"but the grid resolves only {nyquist:.3g} rad/m"
        )
    inside = r <= aperture_radius
    excess = r**2 / (2.0 * focal_length) if paraxial else path_excess(focal_length, r)
    phase = np.exp(-1j * field.wavenumber * excess)
    return field.with_amplitude(np.where(inside, field.amplitude * phase, 0.0))


def _guard_band(transform: HankelTransform, wavenumber: float) -> slice:
    """Rows within _GUARD_BAND_FRACTION of the light cone, or of the grid's k limit if smaller."""
    k_limit = min(wavenumber, float(transform.k_radial[-1]))
    return slice(
        int(np.searchsorted(transform.k_radial, (1.0 - _GUARD_BAND_FRACTION) * k_limit)),
        int(np.searchsorted(transform.k_radial, k_limit, side="right")),
    )


def _check_spectrum_resolved(
    transform: HankelTransform, spectrum: np.ndarray, wavenumber: float
) -> None:
    """Verify the propagating part of the angular spectrum is resolved.

    An under-resolved phase profile folds power across the whole k
    range, so significant power just inside the light cone (or at the
    grid's k limit when that is smaller) flags aliasing. Components
    beyond the light cone are evanescent and decay within a wavelength,
    so physical edge-diffraction tails out there are ignored.

    forward_inverse's spectrum stops at the light cone (the row bound in
    pflens.hankel's module docstring), at or beyond the guard band's top,
    so the band's power is unchanged and the total is never larger than
    over all rows: any field refused unbounded is refused.
    """
    power = transform.spectral_power_weights * np.abs(spectrum) ** 2
    total = float(np.sum(power))
    edge = float(np.sum(power[_guard_band(transform, wavenumber)]))
    if edge > _GUARD_BAND_MAX_POWER * total:
        raise ResolutionError(
            "angular spectrum carries "
            f"{edge / total:.2e} of the power within {_GUARD_BAND_FRACTION:.0%} of "
            "the propagation limit; the grid is too coarse for the field's "
            "numerical aperture"
        )


def _transfer_wavenumber(
    transform: HankelTransform, wavenumber: float, paraxial: bool = False
) -> np.ndarray:
    """kz of the angular-spectrum transfer phase exp(i z kz) over a step z.

    The default is the exact nonparaxial sqrt(k^2 - kr^2), imaginary
    beyond the light cone (evanescent decay); paraxial=True selects the
    Fresnel k - kr^2 / 2k, under which Gaussian-beam theory is exact.
    """
    if paraxial:
        return wavenumber - transform.k_radial**2 / (2.0 * wavenumber)
    return np.sqrt((wavenumber**2 - transform.k_radial**2).astype(complex))


def _planes(field: RadialField, z_positions: np.ndarray, paraxial: bool) -> np.ndarray:
    """kz (_transfer_wavenumber) for propagating the field to z_positions [m].

    Refuses, in this order, planes not finite or with k z past 2^52 rad,
    planes out of increasing order (one plane never is) or none, and
    negative planes.
    """
    # beyond 2^52 rad floats are a radian or more apart: exp(i k z) is unresolved
    z_limit = 2.0**52 / field.wavenumber
    unresolved = z_positions[~(np.abs(z_positions) <= z_limit)]
    if unresolved.size:
        raise DomainError(
            f"z_positions must be finite and at most {z_limit:.3g} m, where the "
            f"propagation phase k z reaches 2^52 rad; got {unresolved[0]}"
        )
    if z_positions.size < 1 or np.any(np.diff(z_positions) <= 0):
        raise DomainError("z_positions must be increasing and non-empty")
    if np.any(z_positions < 0):
        raise DomainError("z_positions must be non-negative (measured from the lens)")
    return _transfer_wavenumber(field.transform, field.wavenumber, paraxial)


def _transfer(kz: np.ndarray, z_positions: np.ndarray) -> np.ndarray:
    """(N, Z) propagator phases exp(i z kz), one column per plane, built in place.

    Beyond the light cone the exact propagator underflows to 0, where
    forward_inverse's pass stops.
    """
    transfer = np.multiply.outer(kz, 1j * z_positions)
    return np.exp(transfer, out=transfer)


def _propagated(field: RadialField, transfer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(spectrum, fields) of the field propagated by transfer's columns, in one
    kernel pass (HankelTransform.forward_inverse), after which the
    spectrum's guard band is checked (_check_spectrum_resolved)."""
    transform = field.transform
    spectrum, fields = transform.forward_inverse(field.amplitude, transfer)
    _check_spectrum_resolved(transform, spectrum, field.wavenumber)
    return spectrum, fields


def propagate(field: RadialField, distance: float, paraxial: bool = False) -> RadialField:
    """Propagate a field forward by the given distance [m], at most 2^52 / k."""
    require(distance >= 0, "distance", ">= 0", distance)
    z = np.array([distance], dtype=float)
    _, fields = _propagated(field, _transfer(_planes(field, z, paraxial), z))
    return field if distance == 0.0 else field.with_amplitude(fields[:, 0])


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

    Radii must be increasing; the integral uses the trapezoid rule with
    weights tau_i. Radii up to r_c = _KNIFE_EDGE_FAR_RATIO * max|x| are
    summed directly, one arccos per blade and radius. Beyond r_c,
    |x| / r < 1/8 and arccos(x / r) = pi/2 - sum_k c_k (x / r)^(2k+1),
    c_k = C(2k, k) / (4^k (2k + 1)), so with u_i = max|x| / r_i the far
    part of the sum is

        sum_i tau_i 2 I_i r_i pi/2
            - sum_k c_k (x / max|x|)^(2k+1) sum_i tau_i 2 I_i r_i u_i^(2k+1):

    _KNIFE_EDGE_FAR_TERMS moments over the far radii, computed once per
    curve, and a few products per blade. The series is cut after k = 7;
    the remainder is below c_8 8^-17 / (1 - 8^-2) < 5.3e-18 rad per
    ring, so the truncation error of P stays below 2e-18 of the far
    rings' full-circle power. When no radius lies beyond r_c the curve
    is the direct trapezoid sum over all radii.
    """
    radii = np.asarray(radii, dtype=float)
    intensity = np.asarray(intensity, dtype=float)
    blade_positions = np.asarray(blade_positions, dtype=float)
    reach = float(np.max(np.abs(blade_positions), initial=0.0))
    near = int(np.searchsorted(radii, _KNIFE_EDGE_FAR_RATIO * reach, side="right"))
    # one (blades x near radii) buffer carries x / r, the arc and the integrand
    integrand = np.empty((blade_positions.size, near))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(blade_positions[:, None], radii[:near], out=integrand)
    # r = 0 contributes nothing (weight r); silence the 0/0 sample
    np.nan_to_num(integrand, copy=False, nan=0.0, posinf=1.0, neginf=-1.0)
    np.clip(integrand, -1.0, 1.0, out=integrand)
    np.arccos(integrand, out=integrand)
    integrand *= 2.0 * intensity[:near] * radii[:near]
    if near == radii.size:
        return np.trapezoid(integrand, radii, axis=1)

    half_steps = 0.5 * np.diff(radii)
    tau = np.zeros_like(radii)
    tau[:-1] += half_steps
    tau[1:] += half_steps
    curve = integrand @ tau[:near]
    weighted = tau[near:] * 2.0 * intensity[near:] * radii[near:]
    curve += 0.5 * math.pi * float(np.sum(weighted))
    if reach == 0.0:
        return curve
    ratio = reach / radii[near:]
    ratio_sq = ratio * ratio
    term = weighted * ratio
    moments = np.empty(_KNIFE_EDGE_FAR_TERMS)
    for k in range(_KNIFE_EDGE_FAR_TERMS):
        moments[k] = np.sum(term)
        term *= ratio_sq
    powers = np.arange(1, 2 * _KNIFE_EDGE_FAR_TERMS, 2)
    scaled = (blade_positions / reach)[:, None] ** powers
    curve -= scaled @ (_ARCSIN_COEFFICIENTS * moments)
    return curve


def _composite_radial_intensity(
    field_values: np.ndarray, transform: HankelTransform, fine_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(radii, |E|^2) on a grid refined near the axis.

    Inside the transform's fine grid (fine_radii) it takes fine_values, the
    field resampled there by transform.fine_values; beyond fine_span it
    takes the native collocation samples, the transform's last radii.
    """
    fine_r = transform.fine_radii(fine_values.shape[0])
    outer = transform.radii > transform.fine_span
    radii = np.concatenate([fine_r, transform.radii[outer]])
    intensity = np.concatenate([np.abs(fine_values) ** 2, np.abs(field_values[outer]) ** 2])
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
    field: RadialField, n_blade_positions: int = DEFAULT_BLADE_POSITIONS
) -> tuple[float, float]:
    """1/e^2 intensity radius of a field via a virtual knife edge.

    Returns (waist, 1 sigma uncertainty from the fit). The blade curve
    spans +-2.5 times the 1/e^2 spot radius estimate, on the grid
    scan_field uses by default: DEFAULT_FINE_POINTS fine-grid samples
    resampled from the field's forward transform (transform.fine_values),
    then the native ones. It is fitted with the error-function model
    applied to measured scans.
    """
    transform = field.transform
    fine_values = transform.fine_values(transform.forward(field.amplitude), DEFAULT_FINE_POINTS)
    blade, powers = _blade_curve(field, n_blade_positions, fine_values)
    point = fit_scan(KnifeEdgeScan(z=0.0, blade_positions=blade, powers=powers, direction="in"))
    return point.w, point.w_uncertainty


def _blade_curve(
    field: RadialField, n_blade_positions: int, fine_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(blade positions, transmitted powers) that measure_waist_knife_edge fits.

    fine_values are the field's samples on the transform's fine grid.
    """
    radii, intensity = _composite_radial_intensity(field.amplitude, field.transform, fine_values)
    blade_span = 2.5 * _spot_radius_estimate(radii, intensity)
    blade = np.linspace(-blade_span, blade_span, n_blade_positions)
    return blade, knife_edge_power_curve(radii, intensity, blade)


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
    transform: HankelTransform, field_values: np.ndarray, fine_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative power within a radius at one plane.

    The core, fine_values on transform.fine_radii, is integrated with the
    trapezoid rule; beyond it the curve switches to partial sums of the
    transform's quadrature weights, whose total equals the plane power
    exactly. (Trapezoid sums on the native grid lose percent-level power
    to near-Nyquist halo fringes; the quadrature weights integrate the
    band-limited series exactly.)
    """
    radii, intensity = _composite_radial_intensity(field_values, transform, fine_values)
    fine_points = fine_values.shape[0]
    fine_radii = radii[:fine_points]
    integrand = 2.0 * math.pi * intensity[:fine_points] * fine_radii
    core = np.concatenate(
        [[0.0], np.cumsum(np.diff(fine_radii) * 0.5 * (integrand[1:] + integrand[:-1]))]
    )
    outer = radii.size - fine_points
    if outer == 0:
        return fine_radii, core
    plane_power = transform.radial_power(field_values)
    ring_power = transform.power_weights[-outer:] * intensity[fine_points:]
    beyond = np.cumsum(ring_power[::-1])[::-1] - ring_power
    curve = np.concatenate([core, plane_power - beyond])
    return radii, np.maximum.accumulate(curve)


def scan_field(
    transmitted: RadialField,
    z_positions: np.ndarray,
    input_power: float | None = None,
    n_blade_positions: int = DEFAULT_BLADE_POSITIONS,
    fine_points: int = DEFAULT_FINE_POINTS,
    paraxial: bool = False,
) -> FocalScanResult:
    """Waist-versus-z scan of an already-transmitted field.

    z positions are measured from the transmitted plane, and checked as
    propagate checks its distance (_planes). The scan is one kernel pass
    (HankelTransform.forward_inverse) over every plane: the forward
    transform stops at the light cone, where the exact exp(i z kz)
    underflows to 0 just beyond k, and the propagated spectra, one column
    per plane, are inverted as one batch. Memory beside the kernel is
    O(N Z) for Z planes, and a scan that would not fit is refused first
    (HankelTransform._check_scan_fits). The guard band is checked before
    any knife edge is taken. The propagated spectra are summed on the
    transform's near-axis fine grid (transform.fine_values), and each
    plane's knife-edge curve, built on that grid joined to the native radii
    beyond it, is fitted in one stack (beamfit.fit_scans), with the waists
    measure_waist_knife_edge would give. The first plane with the smallest
    waist gives the encircled-power curve, integrated on the same joined
    grid.
    """
    transform = transmitted.transform
    z_positions = np.asarray(z_positions, dtype=float)
    # before the kernel pass, which fills kernel tiles
    _check_fine_points(fine_points)
    kz = _planes(transmitted, z_positions, paraxial)
    transform._check_scan_fits(z_positions.size)
    transmitted_power = transform.radial_power(transmitted.amplitude)
    if input_power is None:
        input_power = transmitted_power

    transfer = _transfer(kz, z_positions)
    spectrum, fields = _propagated(transmitted, transfer)
    # in place: each plane holds at most three columns of N samples (_check_scan_fits)
    spectra = np.multiply(spectrum[:, None], transfer, out=transfer)
    fine = transform.fine_values(spectra, fine_points)
    # the edge fits run as one stack; planes past one whose blade curve fails
    # are not fitted, and the first failure in z order raises. The curves are
    # copied into one array made before their temporaries: kept in arrays of
    # their own, among those temporaries, they raised the peak RSS of repeated
    # default simulations in one process by 2.7 MiB (Linux, glibc malloc)
    curves = np.empty((z_positions.size, 2, n_blade_positions))
    scans, failure = [], None
    for column in range(z_positions.size):
        field = transmitted.with_amplitude(fields[:, column])
        try:
            curves[column] = _blade_curve(field, n_blade_positions, fine[:, column])
            blade, powers = curves[column]
            scans.append(KnifeEdgeScan(z=0.0, blade_positions=blade, powers=powers))
        except DomainError as error:
            failure = error
            break
    points = fit_scans(scans)
    for point in points:
        if isinstance(point, FitError):
            raise point
    if failure is not None:
        raise failure
    waists = np.array([point.w for point in points])
    best = int(np.argmin(waists))
    enc_r, enc_p = _encircled_power_curve(transform, fields[:, best], fine[:, best])

    return FocalScanResult(
        z_positions=z_positions,
        fitted_waists=waists,
        waist_uncertainties=[point.w_uncertainty for point in points],
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
    fine_points: int = DEFAULT_FINE_POINTS,
) -> FocalScanResult:
    """Transmit a field through a lens layout and scan waists over z.

    z_range is absolute distance from the lens plane and should bracket
    the design focus.
    """
    z_lo, z_hi = z_range
    require(0 <= z_lo < z_hi, "z_range", "(z_lo, z_hi) with 0 <= z_lo < z_hi", z_range)
    require(n_steps >= 1, "n_steps", ">= 1", n_steps)
    input_power = field.power()
    transmitted = apply_binary_pfl(field, layout)
    z_positions = np.linspace(z_lo, z_hi, n_steps)
    return scan_field(transmitted, z_positions, input_power=input_power, fine_points=fine_points)


def efficiency_into_focus(
    scan: FocalScanResult,
    input_power: float | None = None,
    capture_radius_multiplier: float = DEFAULT_CAPTURE_RADIUS_MULTIPLIER,
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
    require(input_power > 0, "input_power", "> 0", input_power)
    multiplier = capture_radius_multiplier
    require(multiplier > 0, "capture_radius_multiplier", "> 0", multiplier)
    # np.interp at an infinite radius returns the last, full-power value
    capture_radius = multiplier * scan.best_waist
    captured = float(np.interp(capture_radius, scan.encircled_radii, scan.encircled_power))
    return captured / input_power


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

FOCAL_SCAN_CSV_HEADER = ["z_m", "waist_m"]


def focal_scan_csv_text(scan: FocalScanResult) -> str:
    return csv_text(FOCAL_SCAN_CSV_HEADER, zip(scan.z_positions, scan.fitted_waists))
