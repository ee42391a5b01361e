"""Scalar-diffraction propagation, lens transmission, and focal metrology."""

from __future__ import annotations

import math

import numpy as np
import pytest

from scipy.special import erfc

from pflens import (
    DomainError,
    LensDesign,
    ResolutionError,
    WaistPoint,
    apply_binary_pfl,
    apply_ideal_lens,
    clear_transform_cache,
    efficiency_into_focus,
    fit_caustic,
    focal_scan,
    gaussian_beam,
    get_transform,
    knife_edge_power_curve,
    measure_waist_knife_edge,
    plane_wave,
    propagate,
    scan_field,
    zone_layout,
)
from pflens.diffraction import RadialField, focal_scan_csv_text

TOY_WAVELENGTH = 854e-9
TOY_FOCAL_LENGTH = 200e-6
TOY_APERTURE = 300e-6
TOY_GRID_RADIUS = 400e-6

# paraxial free-space reference beam
BEAM_WAVELENGTH = 369.5e-9
BEAM_WAIST = 5e-6
BEAM_RAYLEIGH = math.pi * BEAM_WAIST**2 / BEAM_WAVELENGTH
BEAM_GRID_RADIUS = 60e-6


@pytest.fixture(scope="module")
def toy_transform():
    return get_transform(2048, TOY_GRID_RADIUS)


@pytest.fixture(scope="module")
def toy_layout():
    return zone_layout(LensDesign(TOY_FOCAL_LENGTH, TOY_APERTURE, TOY_WAVELENGTH))


@pytest.fixture(scope="module")
def beam_transform():
    return get_transform(1024, BEAM_GRID_RADIUS)


def analytic_gaussian_radius(z: float) -> float:
    return BEAM_WAIST * math.sqrt(1.0 + (z / BEAM_RAYLEIGH) ** 2)


def half_period_radii(focal_length: float, wavelength: float, psi_max: float):
    """Radii where the path excess sqrt(f^2+r^2) - f crosses j lam / 2."""
    radii = []
    j = 1
    while j * 0.5 <= psi_max:
        excess = j * 0.5 * wavelength
        radii.append(math.sqrt((focal_length + excess) ** 2 - focal_length**2))
        j += 1
    return radii


class TestFieldConstructors:
    def test_gaussian_power_matches_analytic(self, beam_transform):
        field = gaussian_beam(beam_transform, BEAM_WAIST, BEAM_WAVELENGTH)
        assert field.power() == pytest.approx(math.pi * BEAM_WAIST**2 / 2, rel=1e-6)

    def test_gaussian_profile(self, beam_transform):
        field = gaussian_beam(beam_transform, BEAM_WAIST, BEAM_WAVELENGTH)
        idx = int(np.argmin(np.abs(field.transform.radii - BEAM_WAIST)))
        r = field.transform.radii[idx]
        assert abs(field.amplitude[idx]) == pytest.approx(
            math.exp(-((r / BEAM_WAIST) ** 2)), rel=1e-12
        )

    def test_plane_wave_is_uniform(self, beam_transform):
        field = plane_wave(beam_transform, BEAM_WAVELENGTH, amplitude=2.0)
        assert np.all(field.amplitude == 2.0)
        assert field.wavelength == BEAM_WAVELENGTH

    def test_field_validation(self, beam_transform):
        with pytest.raises(DomainError):
            gaussian_beam(beam_transform, -1e-6, BEAM_WAVELENGTH)
        with pytest.raises(DomainError):
            plane_wave(beam_transform, 0.0)
        with pytest.raises(DomainError):
            RadialField(
                beam_transform, np.ones(beam_transform.n_points - 1), BEAM_WAVELENGTH
            )


class TestBinaryLensTransmission:
    def test_binary_phase_flips_on_half_period_annuli(self, toy_transform):
        # two-ring layout: the transmitted sign alternates at every
        # half-period radius, independently recomputed here
        design = LensDesign(TOY_FOCAL_LENGTH, 60e-6, TOY_WAVELENGTH)
        layout = zone_layout(design)
        assert layout.zone_count == 2

        field = plane_wave(toy_transform, TOY_WAVELENGTH)
        out = apply_binary_pfl(field, layout)

        r = field.transform.radii
        inside = r <= layout.aperture_radius
        excess = np.sqrt(TOY_FOCAL_LENGTH**2 + r**2) - TOY_FOCAL_LENGTH
        psi_edge = (
            math.sqrt(TOY_FOCAL_LENGTH**2 + layout.aperture_radius**2)
            - TOY_FOCAL_LENGTH
        ) / TOY_WAVELENGTH
        flips = half_period_radii(TOY_FOCAL_LENGTH, TOY_WAVELENGTH, psi_edge)
        # sign is +1 up to the first half-period radius, then alternates
        crossings = np.searchsorted(np.asarray(flips), r[inside])
        expected = np.where(crossings % 2 == 0, 1.0, -1.0)
        np.testing.assert_allclose(out.amplitude[inside].real, expected, atol=1e-12)
        assert np.max(np.abs(out.amplitude[inside].imag)) < 1e-12

    def test_magnitude_preserved_inside_aperture(self, toy_transform, toy_layout):
        field = gaussian_beam(toy_transform, TOY_APERTURE / 4, TOY_WAVELENGTH)
        out = apply_binary_pfl(field, toy_layout)
        inside = field.transform.radii <= toy_layout.aperture_radius
        np.testing.assert_allclose(
            np.abs(out.amplitude[inside]), np.abs(field.amplitude[inside]), rtol=1e-12
        )
        assert np.all(out.amplitude[~inside] == 0.0)

    def test_empty_layout_only_truncates(self, toy_transform):
        design = LensDesign(TOY_FOCAL_LENGTH, 10e-6, TOY_WAVELENGTH)
        layout = zone_layout(design)
        assert layout.zone_count == 0
        field = gaussian_beam(toy_transform, TOY_APERTURE / 4, TOY_WAVELENGTH)
        out = apply_binary_pfl(field, layout)
        inside = field.transform.radii <= layout.aperture_radius
        np.testing.assert_array_equal(out.amplitude[inside], field.amplitude[inside])
        assert np.all(out.amplitude[~inside] == 0.0)

    def test_undersampled_zones_rejected(self, toy_layout):
        coarse = get_transform(128, TOY_GRID_RADIUS)
        field = plane_wave(coarse, TOY_WAVELENGTH)
        with pytest.raises(ResolutionError, match="samples per zone"):
            apply_binary_pfl(field, toy_layout)

    def test_grid_must_cover_aperture(self, toy_layout):
        small = get_transform(512, 100e-6)
        field = plane_wave(small, TOY_WAVELENGTH)
        with pytest.raises(DomainError, match="aperture"):
            apply_binary_pfl(field, toy_layout)

    def test_first_order_mode_fraction(self, toy_transform, toy_layout):
        # the +1 grating order carried by the binary profile is the
        # nonparaxial ideal-lens mode with amplitude 2/pi: the mode
        # overlap between the two transmitted fields is (2/pi)^2
        field = plane_wave(toy_transform, TOY_WAVELENGTH)
        binary = apply_binary_pfl(field, toy_layout)
        ideal = apply_ideal_lens(
            field, TOY_FOCAL_LENGTH, aperture_radius=toy_layout.aperture_radius
        )
        weights = toy_transform.power_weights
        overlap = np.abs(
            np.sum(weights * np.conj(ideal.amplitude) * binary.amplitude)
        ) ** 2 / (ideal.power() * binary.power())
        assert overlap == pytest.approx((2 / math.pi) ** 2, rel=0.01)


class TestIdealLens:
    def test_rim_phase_gradient_guard(self):
        coarse = get_transform(128, TOY_GRID_RADIUS)
        field = plane_wave(coarse, TOY_WAVELENGTH)
        with pytest.raises(ResolutionError, match="rim"):
            apply_ideal_lens(field, TOY_FOCAL_LENGTH, aperture_radius=150e-6)

    def test_focuses_plane_wave(self, toy_transform):
        field = plane_wave(toy_transform, TOY_WAVELENGTH)
        lensed = apply_ideal_lens(field, TOY_FOCAL_LENGTH, aperture_radius=150e-6)
        focal = propagate(lensed, TOY_FOCAL_LENGTH)
        gain = np.abs(focal.amplitude[0]) ** 2 / np.abs(field.amplitude[0]) ** 2
        assert gain > 1e3

    def test_paraxial_and_exact_agree_for_slow_lens(self):
        # f = 20 mm over a 100 um waist: NA ~ 0.006, where the quadratic
        # phase and the exact spherical phase are indistinguishable
        transform = get_transform(1024, 400e-6)
        field = gaussian_beam(transform, 100e-6, BEAM_WAVELENGTH)
        focal_length = 20e-3
        exact = propagate(
            apply_ideal_lens(field, focal_length, aperture_radius=390e-6),
            focal_length,
        )
        parax = propagate(
            apply_ideal_lens(
                field, focal_length, aperture_radius=390e-6, paraxial=True
            ),
            focal_length,
            paraxial=True,
        )
        w_exact, _ = measure_waist_knife_edge(exact)
        w_parax, _ = measure_waist_knife_edge(parax)
        assert w_parax == pytest.approx(w_exact, rel=2e-3)
        # and both sit at the Gaussian-optics focal waist lam f / (pi w_in)
        expected = BEAM_WAVELENGTH * focal_length / (math.pi * 100e-6)
        assert w_parax == pytest.approx(expected, rel=5e-3)


class TestPropagation:
    def test_zero_distance_is_identity(self, beam_transform):
        field = gaussian_beam(beam_transform, BEAM_WAIST, BEAM_WAVELENGTH)
        out = propagate(field, 0.0)
        assert np.max(np.abs(out.amplitude - field.amplitude)) < 1e-10

    def test_negative_distance_rejected(self, beam_transform):
        field = gaussian_beam(beam_transform, BEAM_WAIST, BEAM_WAVELENGTH)
        with pytest.raises(DomainError):
            propagate(field, -1e-6)

    def test_power_conserved(self, beam_transform):
        field = gaussian_beam(beam_transform, BEAM_WAIST, BEAM_WAVELENGTH)
        out = propagate(field, 2 * BEAM_RAYLEIGH)
        assert out.power() == pytest.approx(field.power(), rel=1e-6)

    def test_free_space_caustic_within_half_percent(self, beam_transform):
        field = gaussian_beam(beam_transform, BEAM_WAIST, BEAM_WAVELENGTH)
        for z in np.linspace(0.0, 2 * BEAM_RAYLEIGH, 5):
            out = propagate(field, z)
            w, _ = measure_waist_knife_edge(out)
            assert w == pytest.approx(analytic_gaussian_radius(z), rel=5e-3)

    def test_paraxial_propagator_matches_exact_for_paraxial_beam(
        self, beam_transform
    ):
        field = gaussian_beam(beam_transform, BEAM_WAIST, BEAM_WAVELENGTH)
        exact = propagate(field, BEAM_RAYLEIGH)
        parax = propagate(field, BEAM_RAYLEIGH, paraxial=True)
        w_exact, _ = measure_waist_knife_edge(exact)
        w_parax, _ = measure_waist_knife_edge(parax)
        assert w_parax == pytest.approx(w_exact, rel=1e-3)

    def test_unresolved_spectrum_rejected(self, beam_transform):
        # a ring wave whose transverse frequency sits in the outermost
        # 2 percent of the propagating range: propagation cannot be
        # trusted, the guard must fire
        k_limit = min(
            2 * math.pi / BEAM_WAVELENGTH, float(beam_transform.k_radial[-1])
        )
        ring = np.exp(1j * 0.995 * k_limit * beam_transform.radii)
        field = RadialField(beam_transform, ring, BEAM_WAVELENGTH)
        with pytest.raises(ResolutionError):
            propagate(field, BEAM_RAYLEIGH)

    def test_evanescent_components_decay(self):
        # transverse frequency beyond the free-space wavenumber: the
        # exact propagator must attenuate it, not blow up
        transform = get_transform(1024, 20e-6)
        k = 2 * math.pi / BEAM_WAVELENGTH
        assert transform.k_radial[-1] > 1.6 * k
        ring = np.exp(1j * 1.5 * k * transform.radii) * np.exp(
            -((transform.radii / 8e-6) ** 2)
        )
        field = RadialField(transform, ring, BEAM_WAVELENGTH)
        out = propagate(field, 5e-6)
        # stationary-phase tails of the chirp put a little power below
        # the light line, so the attenuation is deep but not total
        assert out.power() < 1e-3 * field.power()


class TestKnifeEdge:
    def test_power_curve_matches_error_function(self, beam_transform):
        field = gaussian_beam(beam_transform, BEAM_WAIST, BEAM_WAVELENGTH)
        intensity = np.abs(field.amplitude) ** 2
        blades = np.linspace(-2 * BEAM_WAIST, 2 * BEAM_WAIST, 41)
        curve = knife_edge_power_curve(field.transform.radii, intensity, blades)
        total = field.power()
        expected = 0.5 * total * erfc(math.sqrt(2.0) * blades / BEAM_WAIST)
        np.testing.assert_allclose(curve, expected, atol=5e-3 * total)

    def test_waist_of_gaussian_recovered(self, beam_transform):
        field = gaussian_beam(beam_transform, BEAM_WAIST, BEAM_WAVELENGTH)
        w, sigma = measure_waist_knife_edge(field)
        assert w == pytest.approx(BEAM_WAIST, rel=5e-3)
        assert sigma < 0.01 * BEAM_WAIST


# converging reference beam: 100 um Gaussian through an f = 5 mm lens
LENS_INPUT_WAIST = 100e-6
LENS_FOCAL_LENGTH = 5e-3
LENS_RAYLEIGH_IN = math.pi * LENS_INPUT_WAIST**2 / BEAM_WAVELENGTH
# Gaussian-optics focus: shifted in from f by the finite input Rayleigh range
LENS_FOCUS = LENS_FOCAL_LENGTH / (1.0 + (LENS_FOCAL_LENGTH / LENS_RAYLEIGH_IN) ** 2)
LENS_FOCAL_WAIST = BEAM_WAVELENGTH * LENS_FOCAL_LENGTH / (math.pi * LENS_INPUT_WAIST)
LENS_RAYLEIGH_OUT = math.pi * LENS_FOCAL_WAIST**2 / BEAM_WAVELENGTH


@pytest.fixture(scope="module")
def converging_beam():
    transform = get_transform(1024, 400e-6)
    field = gaussian_beam(transform, LENS_INPUT_WAIST, BEAM_WAVELENGTH)
    return apply_ideal_lens(field, LENS_FOCAL_LENGTH, aperture_radius=390e-6)


def caustic_points(scan):
    return [
        WaistPoint(z=zi, w=wi, w_uncertainty=max(si, 1e-12), direction="in")
        for zi, wi, si in zip(
            scan.z_positions, scan.fitted_waists, scan.waist_uncertainties
        )
    ]


class TestFocalScans:
    def test_gaussian_focus_scan_recovers_unit_m2(self, converging_beam):
        z = np.linspace(
            LENS_FOCUS - 2 * LENS_RAYLEIGH_OUT, LENS_FOCUS + 2 * LENS_RAYLEIGH_OUT, 11
        )
        scan = scan_field(converging_beam, z)
        fit = fit_caustic(caustic_points(scan), BEAM_WAVELENGTH)
        assert fit.m2 == pytest.approx(1.0, abs=0.01)
        assert fit.w0 == pytest.approx(LENS_FOCAL_WAIST, rel=0.01)
        assert fit.z0 == pytest.approx(LENS_FOCUS, abs=0.05 * LENS_RAYLEIGH_OUT)

    def test_asymmetric_scan_recovers_waist(self, converging_beam):
        z = np.linspace(
            LENS_FOCUS - 0.6 * LENS_RAYLEIGH_OUT,
            LENS_FOCUS + 2.2 * LENS_RAYLEIGH_OUT,
            9,
        )
        scan = scan_field(converging_beam, z)
        fit = fit_caustic(caustic_points(scan), BEAM_WAVELENGTH)
        assert fit.w0 == pytest.approx(LENS_FOCAL_WAIST, rel=0.02)

    def test_interior_minimum_detection(self, converging_beam):
        bracket = scan_field(
            converging_beam,
            np.linspace(
                LENS_FOCUS - LENS_RAYLEIGH_OUT, LENS_FOCUS + LENS_RAYLEIGH_OUT, 5
            ),
        )
        assert bracket.has_interior_minimum()
        one_sided = scan_field(
            converging_beam,
            np.linspace(
                LENS_FOCUS + LENS_RAYLEIGH_OUT, LENS_FOCUS + 3 * LENS_RAYLEIGH_OUT, 5
            ),
        )
        assert not one_sided.has_interior_minimum()

    def test_efficiency_capture_completeness(self, toy_transform, toy_layout):
        field = gaussian_beam(toy_transform, 75e-6, TOY_WAVELENGTH)
        scan = focal_scan(
            field,
            toy_layout,
            z_range=(TOY_FOCAL_LENGTH - 2e-6, TOY_FOCAL_LENGTH + 2e-6),
            n_steps=5,
        )
        transmitted_fraction = efficiency_into_focus(
            scan, capture_radius_multiplier=math.inf
        )
        # The focal plane receives the transmitted power minus the part the
        # plate scatters beyond the light line: high diffraction orders with
        # m * sin(theta) > 1 are evanescent and decay before z = f. The
        # independent oracle is the propagating-mode power of the
        # transmitted spectrum.
        transmitted = apply_binary_pfl(field, toy_layout)
        spectrum = toy_transform.forward(transmitted.amplitude)
        propagating = toy_transform.k_radial <= transmitted.wavenumber
        expected = float(
            np.sum(
                toy_transform.spectral_power_weights[propagating]
                * np.abs(spectrum[propagating]) ** 2
            )
        ) / field.power()
        assert transmitted_fraction == pytest.approx(expected, rel=1e-3)
        # the evanescent loss itself is percent-level, not negligible
        in_aperture = float(
            np.sum(
                toy_transform.power_weights * np.abs(transmitted.amplitude) ** 2
            )
        ) / field.power()
        assert 0.05 < in_aperture - expected < 0.12

        narrow = efficiency_into_focus(scan, capture_radius_multiplier=3.0)
        wide = efficiency_into_focus(scan, capture_radius_multiplier=10.0)
        assert narrow < wide <= transmitted_fraction * (1 + 1e-9)
        # binary first order plus a small halo-in-capture contribution
        assert narrow == pytest.approx((2 / math.pi) ** 2, rel=0.05)

    def test_focal_scan_finds_design_focus(self, toy_transform, toy_layout):
        field = gaussian_beam(toy_transform, 75e-6, TOY_WAVELENGTH)
        scan = focal_scan(
            field,
            toy_layout,
            z_range=(TOY_FOCAL_LENGTH - 3e-6, TOY_FOCAL_LENGTH + 3e-6),
            n_steps=7,
        )
        assert scan.has_interior_minimum()
        assert scan.best_focus_z == pytest.approx(TOY_FOCAL_LENGTH, abs=1e-6)
        csv_text = focal_scan_csv_text(scan)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "z_m,waist_m"
        assert len(lines) == 8


def teardown_module():
    clear_transform_cache()
