"""Phase-Fresnel-lens zone layouts, scalar efficiency, and chromatic limits.

A phase Fresnel lens is described here by the radii at which its phase
profile completes full 2 pi cycles,

    r_p^2 = 2 f p lam + p^2 lam^2,    p = 1 .. p_max,

together with the etch depth lam / (2 (n - 1)) that realizes a half-wave
(pi) step in a substrate of index n. The p-th ring is one full Fresnel
period; a binary lens etches an annulus inside each period.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from ._csv import csv_text, read_text
from .errors import DomainError, SchemaError, require, require_finite_fields

FUSED_SILICA_INDEX = 1.4738  # near-UV value; reproduces a 390 nm half-wave etch at 369.5 nm
# fewest phase levels a lens profile may have: binary
MIN_PHASE_LEVELS = 2
# most rings zone_layout enumerates (80 MB of radii); the reference lens has 2449
MAX_ZONE_COUNT = 10**7


@dataclass(frozen=True)
class LensDesign:
    """Parameters defining a phase Fresnel lens.

    Lengths in meters. phase_levels is the number of discrete phase
    steps N >= 2 (2 = binary). substrate_index is the refractive index
    of the lens substrate at the design wavelength.
    """

    focal_length: float
    clear_aperture_diameter: float
    design_wavelength: float
    phase_levels: int = 2
    substrate_index: float = FUSED_SILICA_INDEX

    def __post_init__(self):
        require_finite_fields(self)
        for name in ("focal_length", "clear_aperture_diameter", "design_wavelength"):
            require(getattr(self, name) > 0, name, "> 0", getattr(self, name))
        focal, aperture = self.focal_length, self.clear_aperture_diameter
        require(focal / aperture < math.inf, "the f-number", "finite", f"{focal:g} m / {aperture:g} m")
        levels = self.phase_levels
        require(
            isinstance(levels, int) and levels >= MIN_PHASE_LEVELS,
            "phase_levels",
            f"an integer >= {MIN_PHASE_LEVELS}",
            levels,
        )
        require(self.substrate_index > 1, "substrate_index", "> 1", self.substrate_index)


def path_excess(focal_length: float, radii: np.ndarray) -> np.ndarray:
    """Extra path sqrt(f^2 + r^2) - f [m] from radius r to a focus f away on the axis."""
    return np.sqrt(focal_length**2 + radii**2) - focal_length


@dataclass(frozen=True)
class ZoneLayout:
    """Realized ring radii and etch depth of a phase Fresnel lens.

    ring_radii are the full-period radii r_p in meters, strictly
    increasing and bounded by aperture_radius. The layout owns the lens
    profile: pupil gives the complex transmission the rings realize at
    the design wavelength, quantized to phase_levels steps per period.
    """

    ring_radii: np.ndarray
    etch_depth: float
    aperture_radius: float
    design_wavelength: float
    phase_levels: int = 2

    def __post_init__(self):
        radii = np.asarray(self.ring_radii, dtype=float)
        object.__setattr__(self, "ring_radii", radii)
        if radii.ndim != 1:
            raise DomainError("ring_radii must be a 1-D sequence")
        if not np.all(np.isfinite(radii)):
            raise DomainError("ring radii must be finite")
        if radii.size and not np.all(np.diff(radii) > 0):
            raise DomainError("ring_radii must be strictly increasing")
        if radii.size and not (radii[0] > 0):
            raise DomainError("ring radii must be positive")
        if radii.size and radii[-1] > self.aperture_radius * (1 + 1e-12):
            raise DomainError("ring radii must not exceed the aperture radius")
        require_finite_fields(self)
        for name in ("etch_depth", "aperture_radius", "design_wavelength"):
            require(getattr(self, name) > 0, name, "> 0", getattr(self, name))
        levels = self.phase_levels
        require(
            isinstance(levels, int) and levels >= MIN_PHASE_LEVELS,
            "phase_levels",
            f"an integer >= {MIN_PHASE_LEVELS}",
            levels,
        )

    @property
    def zone_count(self) -> int:
        return int(self.ring_radii.size)

    def focal_length(self) -> float:
        """Focal length implied by the first ring, (r_1^2 - lam^2) / (2 lam).

        Exact inversion of the ring equation at p = 1.
        """
        if self.zone_count == 0:
            raise DomainError("empty layout has no implied focal length")
        lam = self.design_wavelength
        return (float(self.ring_radii[0]) ** 2 - lam**2) / (2 * lam)

    def pupil(self, radii: np.ndarray) -> np.ndarray:
        """Complex amplitude transmission at the given radii [m].

        0 beyond aperture_radius; inside it 1 for an empty layout, else
        exp(-2 pi i l / L): the path_excess of the focal length implied by
        the first ring, in design wavelengths, quantized down to step l of
        L = phase_levels per cycle. Binary flips sign at every half cycle.
        """
        inside = radii <= self.aperture_radius
        if self.zone_count == 0:
            return inside.astype(complex)
        levels = self.phase_levels
        excess = path_excess(self.focal_length(), radii)
        cycle_fraction = np.mod(excess / self.design_wavelength, 1.0)
        level_index = np.minimum(np.floor(cycle_fraction * levels), levels - 1)
        return np.where(inside, np.exp(-2j * math.pi * level_index / levels), 0j)

    def truncated(self, radius: float) -> "ZoneLayout":
        """Layout restricted to rings within the given radius [m]."""
        require(radius > 0, "truncation radius", "> 0", radius)
        radius = min(radius, self.aperture_radius)
        keep = self.ring_radii[self.ring_radii <= radius]
        return replace(self, ring_radii=keep, aperture_radius=radius)


@dataclass(frozen=True)
class ChromaticSpec:
    """Fractional frequency detuning delta_nu / nu0, to first order -delta_lam / lam0.

    Positive for a higher frequency, that is a shorter wavelength. Valid
    only in the small-shift regime |detuning| < 1e-2 where the linear
    focal-shift model applies.
    """

    fractional_detuning: float

    def __post_init__(self):
        detuning = self.fractional_detuning
        require(abs(detuning) < 1e-2, "fractional_detuning", "in (-1e-2, 1e-2)", detuning)


def fractional_detuning_from_frequency(frequency_shift: float, wavelength: float) -> ChromaticSpec:
    """ChromaticSpec for a frequency shift [Hz] on a carrier of given wavelength [m].

    The detuning is +delta_nu / nu0: a positive shift is a shorter wavelength.
    """
    c0 = 299792458.0
    return ChromaticSpec(frequency_shift * wavelength / c0)


def zone_layout(design: LensDesign) -> ZoneLayout:
    """All ring radii of a design, with the half-wave etch depth.

    p_max is the largest integer p with r_p <= D/2, found from the
    closed-form root of r_p^2 = 2 f p lam + p^2 lam^2 and then nudged by
    direct enumeration to rule out floating-point fence-post errors at
    the aperture edge. A design with more than MAX_ZONE_COUNT rings, or
    whose ring count overflows, is refused with DomainError before any
    ring is enumerated.
    """
    f = design.focal_length
    lam = design.design_wavelength
    aperture_radius = design.clear_aperture_diameter / 2.0

    def ring_radius(p):
        # squared by a product: on a float past 1.3e154 it gives inf, where ** raises
        return np.sqrt(2 * f * p * lam + (p * lam) * (p * lam))

    # root of lam^2 p^2 + 2 f lam p - R^2 = 0, written R^2 / (hypot(f, R) + f)
    # / lam so that it neither cancels nor overflows for large f
    p_continuous = aperture_radius * aperture_radius / (math.hypot(f, aperture_radius) + f) / lam
    if not (p_continuous <= MAX_ZONE_COUNT):
        raise DomainError(
            f"design has {p_continuous:.3g} zones; zone_layout enumerates at most "
            f"{MAX_ZONE_COUNT}"
        )
    p_max = int(math.floor(p_continuous))
    while p_max >= 1 and ring_radius(p_max) > aperture_radius:
        p_max -= 1
    while ring_radius(p_max + 1) <= aperture_radius:
        p_max += 1

    radii = ring_radius(np.arange(1, p_max + 1, dtype=float)) if p_max >= 1 else np.empty(0)
    return ZoneLayout(
        ring_radii=radii,
        etch_depth=etch_depth(design),
        aperture_radius=aperture_radius,
        design_wavelength=lam,
        phase_levels=design.phase_levels,
    )


def etch_depth(design: LensDesign) -> float:
    """Substrate etch depth [m] giving a half-wave step: lam / (2 (n - 1))."""
    return _half_wave_depth(design.design_wavelength, design.substrate_index)


def _half_wave_depth(wavelength: float, substrate_index: float) -> float:
    return wavelength / (2.0 * (substrate_index - 1.0))


def multilevel_efficiency(levels: int) -> float:
    """Scalar first-order efficiency of an N-level phase grating.

    [sin(pi/N) / (pi/N)]^2, without surface losses (multiply by
    fresnel_plate_transmission for those). Approaches 1 as N grows
    (perfect blaze); equals (2/pi)^2 = 0.405 for binary.
    """
    require(isinstance(levels, int) and levels >= 2, "levels", "an integer >= 2", levels)
    x = math.pi / levels
    return (math.sin(x) / x) ** 2


def fresnel_plate_transmission(substrate_index: float) -> float:
    """Normal-incidence transmission of a two-surface plate, (1 - R)^2.

    R = ((n - 1) / (n + 1))^2 per surface; about 0.93 for fused silica.
    The index-matched limit n = 1 transmits everything.
    """
    require(substrate_index >= 1, "substrate_index", ">= 1", substrate_index)
    reflectance = ((substrate_index - 1) / (substrate_index + 1)) ** 2
    return (1 - reflectance) ** 2


def chromatic_focal_shift(design: LensDesign, chromatic: ChromaticSpec) -> float:
    """Signed focal shift [m] of a diffractive lens under a small detuning.

    Linear model: a diffractive lens has f proportional to 1 / lam, so
    delta_f = f0 * (delta_nu / nu0), to first order -f0 * (delta_lam / lam0).
    It focuses shorter wavelengths farther away and longer ones nearer:
    the shift carries the sign of the frequency detuning, opposite to
    that of the wavelength detuning.
    """
    return design.focal_length * chromatic.fractional_detuning


def rayleigh_range_gaussian(waist: float, wavelength: float) -> float:
    """Rayleigh range pi w0^2 / lam of a Gaussian beam of waist w0."""
    require(waist > 0, "waist", "> 0", waist)
    require(wavelength > 0, "wavelength", "> 0", wavelength)
    return math.pi * waist * waist / wavelength


def depth_of_focus(na: float, wavelength: float) -> float:
    """Nominal depth of focus 4 lam / (pi NA^2) of an aperture of given NA.

    This is the aperture-based convention; it differs from the
    waist-based rayleigh_range_gaussian and the two are never
    interchanged silently.
    """
    require(0 < na <= 1, "na", "in (0, 1]", na)
    require(wavelength > 0, "wavelength", "> 0", wavelength)
    return 4.0 * wavelength / (math.pi * na * na)


def max_focal_length_for_dof(na: float, chromatic: ChromaticSpec, wavelength: float) -> float:
    """Longest focal length keeping the chromatic shift within the depth of focus.

    4 lam / (pi * |detuning| * NA^2), with |detuning| = |delta_nu / nu0|,
    to first order |delta_lam / lam0|: at this focal length the linear model's shift
    (chromatic_focal_shift), nearer the lens for a longer wavelength and
    farther for a shorter one, equals the nominal depth of focus
    4 lam / (pi NA^2) in magnitude, whichever the detuning's sign.
    """
    detuning = chromatic.fractional_detuning
    require(detuning != 0, "fractional detuning", "nonzero", detuning)
    require(0 < na <= 1, "na", "in (0, 1]", na)
    require(wavelength > 0, "wavelength", "> 0", wavelength)
    return 4.0 * wavelength / (math.pi * abs(chromatic.fractional_detuning) * na * na)


ZONE_CSV_HEADER = ["p", "r_p_m"]


def zone_csv_text(layout: ZoneLayout) -> str:
    """Zone table as CSV text: columns p, r_p in meters, 17 significant digits."""
    return csv_text(ZONE_CSV_HEADER, enumerate(layout.ring_radii, start=1))


def write_zone_csv(layout: ZoneLayout, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(zone_csv_text(layout))


def read_zone_csv(
    path,
    design_wavelength: float,
    phase_levels: int = 2,
    etch_depth_m: float | None = None,
    aperture_radius: float | None = None,
    substrate_index: float = FUSED_SILICA_INDEX,
) -> ZoneLayout:
    """Reconstruct a ZoneLayout from a zone CSV.

    The CSV stores only (p, r_p); wavelength and level count must be
    supplied. The etch depth defaults to the half-wave depth for the
    given substrate index, and the aperture to the outermost ring. A file
    that is not UTF-8 text raises SchemaError naming the path.
    """
    radii = []
    reader = csv.reader(io.StringIO(read_text(path, SchemaError)))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ZONE_CSV_HEADER:
        raise SchemaError(f"expected zone CSV header {ZONE_CSV_HEADER}, got {header}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise SchemaError(f"line {lineno}: expected 2 columns, got {len(row)}")
        try:
            p = int(row[0])
            r = float(row[1])
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from exc
        if p != len(radii) + 1:
            raise SchemaError(f"line {lineno}: ring index {p} out of sequence")
        radii.append(r)
    radii = np.asarray(radii)
    if etch_depth_m is None:
        etch_depth_m = _half_wave_depth(design_wavelength, substrate_index)
    if aperture_radius is None:
        aperture_radius = float(radii[-1]) if radii.size else design_wavelength
    return ZoneLayout(
        ring_radii=radii,
        etch_depth=etch_depth_m,
        aperture_radius=aperture_radius,
        design_wavelength=design_wavelength,
        phase_levels=phase_levels,
    )
