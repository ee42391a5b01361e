"""Scalar-diffraction propagation, lens transmission, and focal metrology."""

from __future__ import annotations

import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from scipy.special import erfc, jn_zeros

from pflens import (
    DomainError,
    HankelTransform,
    LensDesign,
    ProjectConfig,
    ResolutionError,
    WaistPoint,
    apply_binary_pfl,
    apply_ideal_lens,
    chromatic_focal_shift,
    clear_transform_cache,
    default_config,
    efficiency_into_focus,
    fit_caustic,
    focal_scan,
    fractional_detuning_from_frequency,
    gaussian_beam,
    get_transform,
    knife_edge_power_curve,
    measure_waist_knife_edge,
    multilevel_efficiency,
    plane_wave,
    propagate,
    scan_field,
    zone_layout,
)
from pflens import diffraction, hankel
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


def level_radii(focal_length: float, wavelength: float, psi_max: float, levels: int = 2):
    """Radii where the path excess sqrt(f^2+r^2) - f crosses j lam / levels."""
    radii = []
    j = 1
    while j / levels <= psi_max:
        excess = j / levels * wavelength
        radii.append(math.sqrt((focal_length + excess) ** 2 - focal_length**2))
        j += 1
    return radii


# the criterion-03 toy lens, as the CLI tests configure it
CLI_TOY_CONFIG = ProjectConfig(
    focal_length_mm=0.2,
    aperture_diameter_mm=0.3,
    wavelength_nm=854.0,
    input_waist_mm=0.075,
    grid_points=2048,
)


def simulated_lens(config):
    """(grid points, grid radius, truncated layout, input waist), as `pflens simulate` has them."""
    truncation = min(config.truncation_waists * config.input_waist, config.aperture_diameter / 2)
    layout = zone_layout(config.lens_design()).truncated(truncation)
    return config.grid_points, config.grid_padding_factor * truncation, layout, config.input_waist


def toy_lens(n_points: int, levels: int = 2):
    """The criterion-03 toy lens on its window, as simulated_lens returns it."""
    design = LensDesign(TOY_FOCAL_LENGTH, TOY_APERTURE, TOY_WAVELENGTH, phase_levels=levels)
    return n_points, TOY_GRID_RADIUS, zone_layout(design), TOY_APERTURE / 4


def light_cone_floor(max_radius: float, wavelength: float) -> int:
    """The smallest N whose band j_{N+1} / R reaches 2 pi / wavelength, by scipy's roots."""
    wavenumber = 2 * math.pi / wavelength
    roots = jn_zeros(0, math.ceil(2 * max_radius / wavelength) + 1)
    return int(np.argmax(roots / max_radius >= wavenumber))


def pre_change_transmission(field, layout):
    """apply_binary_pfl's amplitude before ZoneLayout.pupil held the profile, verbatim."""
    r = field.transform.radii
    inside = r <= layout.aperture_radius
    amplitude = np.where(inside, field.amplitude, 0.0)

    if layout.zone_count == 0:
        return amplitude

    focal_length = layout.focal_length()
    lam = layout.design_wavelength
    levels = layout.phase_levels
    path_excess = np.sqrt(focal_length**2 + r**2) - focal_length
    cycle_fraction = np.mod(path_excess / lam, 1.0)
    level_index = np.minimum(np.floor(cycle_fraction * levels), levels - 1)
    phase = np.exp(-2j * math.pi * level_index / levels)
    return amplitude * np.where(inside, phase, 1.0)


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
        flips = level_radii(TOY_FOCAL_LENGTH, TOY_WAVELENGTH, psi_edge)
        # sign is +1 up to the first half-period radius, then alternates
        crossings = np.searchsorted(np.asarray(flips), r[inside])
        expected = np.where(crossings % 2 == 0, 1.0, -1.0)
        np.testing.assert_allclose(out.amplitude[inside].real, expected, atol=1e-12)
        assert np.max(np.abs(out.amplitude[inside].imag)) < 1e-12

    @pytest.mark.parametrize("levels", [3, 4, 8])
    def test_multilevel_phase_steps_on_level_annuli(self, toy_transform, levels):
        # the whole toy aperture: the phase steps by -2 pi / levels at every
        # radius where the path excess crosses a multiple of lam / levels,
        # independently recomputed here
        design = LensDesign(TOY_FOCAL_LENGTH, TOY_APERTURE, TOY_WAVELENGTH, phase_levels=levels)
        layout = zone_layout(design)
        out = apply_binary_pfl(plane_wave(toy_transform, TOY_WAVELENGTH), layout)

        r = toy_transform.radii
        inside = r <= layout.aperture_radius
        edge_excess = math.hypot(TOY_FOCAL_LENGTH, layout.aperture_radius) - TOY_FOCAL_LENGTH
        psi_edge = edge_excess / TOY_WAVELENGTH
        steps = level_radii(TOY_FOCAL_LENGTH, TOY_WAVELENGTH, psi_edge, levels)
        level = np.searchsorted(np.asarray(steps), r[inside]) % levels
        assert set(level.tolist()) == set(range(levels))
        expected = np.exp(-2j * math.pi * level / levels)
        np.testing.assert_allclose(out.amplitude[inside], expected, rtol=0, atol=1e-12)
        assert np.all(out.amplitude[~inside] == 0.0)

    @pytest.mark.parametrize(
        "lens",
        [
            pytest.param(lambda: simulated_lens(default_config()), id="default"),
            pytest.param(lambda: simulated_lens(CLI_TOY_CONFIG), id="cli-toy"),
            pytest.param(lambda: toy_lens(2048), id="toy-2048"),
            pytest.param(lambda: toy_lens(4096), id="toy-4096"),
            pytest.param(lambda: toy_lens(8192), id="toy-8192"),
            pytest.param(lambda: toy_lens(2048, levels=3), id="toy-2048-levels-3"),
            pytest.param(lambda: toy_lens(2048, levels=8), id="toy-2048-levels-8"),
        ],
    )
    def test_pupil_reproduces_the_pre_change_transmission_bit_for_bit(self, lens):
        n_points, max_radius, layout, waist = lens()
        transform = HankelTransform(n_points, max_radius)
        field = gaussian_beam(transform, waist, layout.design_wavelength)
        before = pre_change_transmission(field, layout)
        after = apply_binary_pfl(field, layout).amplitude
        np.testing.assert_array_equal(after.view(np.uint64), before.view(np.uint64))
        # the profile alone: the old formula applied to a unit plane wave
        unit = pre_change_transmission(plane_wave(transform, layout.design_wavelength), layout)
        np.testing.assert_array_equal(layout.pupil(transform.radii), unit)

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

    def test_grid_inside_the_light_cone_rejected(self, toy_layout):
        coarse = get_transform(128, TOY_GRID_RADIUS)
        field = plane_wave(coarse, TOY_WAVELENGTH)
        with pytest.raises(ResolutionError, match="stops inside the light cone"):
            apply_binary_pfl(field, toy_layout)

    def test_light_cone_check_names_the_smallest_accepted_grid(self, toy_layout):
        n_min = light_cone_floor(TOY_GRID_RADIUS, TOY_WAVELENGTH)
        # 2 R / lambda = 936.8: about 3.4 samples per outer zone period
        assert n_min == 937
        coarse = plane_wave(HankelTransform(n_min - 20, TOY_GRID_RADIUS), TOY_WAVELENGTH)
        with pytest.raises(ResolutionError, match=f"grid_points >= {n_min} "):
            apply_binary_pfl(coarse, toy_layout)
        refused = []
        for n_points in range(n_min - 12, n_min + 1):
            field = plane_wave(HankelTransform(n_points, TOY_GRID_RADIUS), TOY_WAVELENGTH)
            try:
                apply_binary_pfl(field, toy_layout)
            except ResolutionError as error:
                assert f"grid_points >= {n_min} " in str(error)
                refused.append(n_points)
        # the exact check refuses the coarse end and accepts the named minimum
        assert refused == list(range(n_min - 12, n_min))

    @pytest.mark.parametrize("rank", [5, 6, 20, 300, 937, 5000, 40000])
    @pytest.mark.parametrize("shift", [-1e-8, 1e-8, 1.5])
    def test_expansion_names_the_floor_the_roots_do(self, rank, shift):
        # k R just below, just above and 1.5 past j_rank (about halfway to the
        # next root), the (N + 1)-th root for N = rank - 1: McMahon's
        # expansion names the floor scipy's roots do, from j_5, the least
        # root a refused grid's k R is past
        root = jn_zeros(0, rank)[-1]
        wavelength = 2 * math.pi * TOY_GRID_RADIUS / (root + shift)
        floor = hankel._light_cone_floor(TOY_GRID_RADIUS, wavelength)
        assert floor == light_cone_floor(TOY_GRID_RADIUS, wavelength)
        assert floor == (rank - 1 if shift < 0 else rank)

    @pytest.mark.parametrize(
        "radius, wavelength",
        [(1e100, TOY_WAVELENGTH), (1e100, 1e-300), (TOY_GRID_RADIUS, 5e-324)],
        ids=["widest-window", "k-R-overflows", "k-overflows"],
    )
    def test_vast_window_names_its_floor_without_a_warning(self, toy_layout, radius, wavelength):
        # k R / pi = 2 R / lambda is 2.3e106, 2e400 (past a float) and 1.6e320
        reach = 2 * Fraction(radius) / Fraction(wavelength)
        field = plane_wave(get_transform(64, radius), wavelength)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResolutionError) as refusal:
                apply_binary_pfl(field, toy_layout)
        n_min = int(str(refusal.value).split("grid_points >= ")[1].split()[0])
        # (N + 3/4) pi < j_{N+1} < (N + 3/4) pi + 1 / (8 (N + 3/4) pi)
        assert n_min == math.ceil(reach - Fraction(3, 4))
        assert "\n" not in str(refusal.value)

    def test_default_grid_sits_just_above_its_light_cone(self):
        n_points, max_radius, layout, _ = simulated_lens(default_config())
        wavelength = default_config().wavelength
        floor = light_cone_floor(max_radius, wavelength)
        assert floor <= n_points <= 1.01 * floor
        field = plane_wave(HankelTransform(n_points, max_radius), wavelength)
        apply_binary_pfl(field, layout)
        coarse = plane_wave(HankelTransform(floor - 1, max_radius), wavelength)
        with pytest.raises(ResolutionError, match=f"grid_points >= {floor} "):
            apply_binary_pfl(coarse, layout)

    @pytest.mark.parametrize(
        "config, floor, runs_from",
        [
            pytest.param(CLI_TOY_CONFIG, 421, 421, id="cli-toy"),
            # the whole 300 um aperture lit by a 75 um waist: at 937 and 938
            # points about 1.01 % of the spectrum's power lies within 2 % of k
            pytest.param(None, 937, 939, id="toy"),
            pytest.param(default_config(), 14289, 14289, id="default"),
        ],
    )
    def test_a_scan_at_the_named_floor(self, config, floor, runs_from):
        # the refusal names a floor: one point fewer is refused, the floor
        # passes the light-cone check, and a scan there runs or, where the
        # lens's spectrum crowds the light cone, is refused by the spectrum
        # check until runs_from points
        if config is None:
            _, max_radius, layout, waist = toy_lens(floor)
            wavelength, focal_length = TOY_WAVELENGTH, TOY_FOCAL_LENGTH
        else:
            _, max_radius, layout, waist = simulated_lens(config)
            wavelength, focal_length = config.wavelength, config.focal_length
        assert light_cone_floor(max_radius, wavelength) == floor

        def scan(n_points):
            field = gaussian_beam(HankelTransform(n_points, max_radius), waist, wavelength)
            z_range = (focal_length - 1e-6, focal_length + 1e-6)
            return focal_scan(field, layout, z_range, n_steps=3)

        with pytest.raises(ResolutionError, match=f"grid_points >= {floor} "):
            scan(floor - 1)
        for n_points in range(floor, runs_from):
            with pytest.raises(ResolutionError, match="angular spectrum carries"):
                scan(n_points)
        assert np.all(np.isfinite(scan(runs_from).fitted_waists))

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

    @pytest.mark.parametrize("distance", [math.inf, 1e300])
    def test_unresolved_distance_refused_without_a_warning(self, beam_transform, distance):
        # past 2^52 / k the phase k z is not resolved, and at inf it is nan
        field = gaussian_beam(beam_transform, BEAM_WAIST, BEAM_WAVELENGTH)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be finite and at most .* 2\\^52 rad"):
                propagate(field, distance)

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

    def test_bounded_spectrum_refused_wherever_the_full_one_is(self, beam_transform, monkeypatch):
        # with the refusal threshold just below a field's guard-band share over
        # all N rows (k < the grid's k limit here), the full spectrum is
        # refused, and so must be the spectrum bounded at a propagator's light cone
        rng = np.random.default_rng(5)
        t, k = beam_transform, 2 * math.pi / BEAM_WAVELENGTH
        for smoothing in (0.0, 3e-8, 6e-8):
            noise = rng.standard_normal(t.n_points) + 1j * rng.standard_normal(t.n_points)
            values = noise * np.exp(-((t.radii / 30e-6) ** 2))
            if smoothing:
                values = t.inverse(t.forward(values) * np.exp(-((t.k_radial * smoothing) ** 2)))
            full = t.forward(values)
            power = t.spectral_power_weights * np.abs(full) ** 2
            band = (t.k_radial >= 0.98 * k) & (t.k_radial <= k)
            share = float(np.sum(power[band])) / float(np.sum(power))
            monkeypatch.setattr(diffraction, "_GUARD_BAND_MAX_POWER", share * (1 - 1e-9))
            with pytest.raises(ResolutionError):
                diffraction._check_spectrum_resolved(t, full, k)
            kz = diffraction._transfer_wavenumber(t, k)
            for z in (20e-6, 50e-6, BEAM_RAYLEIGH):
                cone = hankel._support(diffraction._transfer(kz, np.array([z])))
                assert cone < t.n_points
                # forward_inverse's spectrum, bounded at the light cone
                bounded = full.copy()
                bounded[cone:] = 0
                with pytest.raises(ResolutionError):
                    diffraction._check_spectrum_resolved(t, bounded, k)

    @pytest.mark.parametrize("paraxial", [False, True], ids=["exact", "paraxial"])
    @pytest.mark.parametrize("n_points", [512, 2048])
    def test_every_propagator_reaches_the_guard_band(self, n_points, paraxial):
        # |exp(i z kz)| = 1 on every propagating row, so the light cone that
        # bounds forward_inverse's spectrum never stops short of the guard
        # band _check_spectrum_resolved reads: on a grid whose k limit is
        # below k (512 points) and one where it is above (2048)
        t = HankelTransform(n_points, TOY_GRID_RADIUS)
        k = 2 * math.pi / TOY_WAVELENGTH
        assert (t.k_radial[-1] < k) == (n_points == 512)
        kz = diffraction._transfer_wavenumber(t, k, paraxial)
        stop = diffraction._guard_band(t, k).stop
        for z in (0.0, 1e-6, TOY_FOCAL_LENGTH, 1.0):
            cone = hankel._support(diffraction._transfer(kz, np.array([z])))
            assert stop <= cone <= n_points, z

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

    def test_power_curve_equals_direct_formula(self):
        # r = 0 with blades at 0 and +-x covers the 0/0 and +-inf ratios
        radii = np.linspace(0.0, 3.0, 301)
        intensity = np.exp(-(radii**2))
        blades = np.linspace(-2.0, 2.0, 41)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.nan_to_num(blades[:, None] / radii, nan=0.0, posinf=1.0, neginf=-1.0)
        arc = 2.0 * np.arccos(np.clip(ratio, -1.0, 1.0))
        expected = np.trapezoid(intensity * radii * arc, radii, axis=1)
        np.testing.assert_array_equal(
            knife_edge_power_curve(radii, intensity, blades), expected
        )

    @pytest.mark.parametrize(
        "blades",
        [
            np.linspace(-2.5, 2.5, 81),
            np.linspace(-1.0, 3.0, 41),
            np.linspace(0.5, 3.0, 21),
            np.linspace(-3.0, 0.0, 17),
            np.zeros(5),
        ],
        ids=["symmetric", "asymmetric", "one-sided", "one-sided-negative", "all-zero"],
    )
    def test_far_halo_moments_match_direct_formula(self, blades):
        # a 1 um focal spot plus a fringed halo falling off as 1 / r, so
        # the far rings carry most of the power, on a fine near-axis grid
        # joined to a coarser native grid out to 2 mm
        waist = 1e-6
        blades = blades * waist
        fine = np.linspace(0.0, 9e-6, 512)
        native = np.arange(9.1e-6, 2e-3, 0.15e-6)
        radii = np.concatenate([fine, native])
        intensity = np.exp(-2.0 * (radii / waist) ** 2) + 0.05 * np.cos(
            2 * math.pi * radii / 0.7e-6
        ) ** 2 / (1.0 + radii / waist)
        assert radii[-1] > diffraction._KNIFE_EDGE_FAR_RATIO * np.max(np.abs(blades))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.nan_to_num(blades[:, None] / radii, nan=0.0, posinf=1.0, neginf=-1.0)
        arc = 2.0 * np.arccos(np.clip(ratio, -1.0, 1.0))
        expected = np.trapezoid(intensity * radii * arc, radii, axis=1)
        curve = knife_edge_power_curve(radii, intensity, blades)
        assert np.max(np.abs(curve - expected)) <= 1e-13 * np.max(np.abs(expected))

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


def chromatic_shifts(transform, design, waist, half_span):
    """(engine, linear) shifts [m] of the caustic's z0 for the wavelength detuned
    by +1e-3 and by -1e-3: the engine's from nine planes at f +- half_span, the
    layout designed at design's wavelength, and chromatic_focal_shift's."""
    layout = zone_layout(design)
    f, wavelength, c0 = design.focal_length, design.design_wavelength, 299792458.0

    def focus(lam):
        field = gaussian_beam(transform, waist, lam)
        scan = focal_scan(field, layout, (f - half_span, f + half_span), 9, fine_points=256)
        return fit_caustic(caustic_points(scan), lam).z0

    z0 = focus(wavelength)
    shifts = []
    for lam in (wavelength * (1 + 1e-3), wavelength * (1 - 1e-3)):
        detuning = fractional_detuning_from_frequency(c0 / lam - c0 / wavelength, wavelength)
        shifts.append((focus(lam) - z0, chromatic_focal_shift(design, detuning)))
    return shifts


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

    def test_batched_planes_match_per_plane_propagation(self, converging_beam):
        # 67 planes, more than a batch of 64: every one is inverted in the scan's one pass
        n_planes = 67
        z = np.linspace(
            LENS_FOCUS - 2 * LENS_RAYLEIGH_OUT, LENS_FOCUS + 2 * LENS_RAYLEIGH_OUT, n_planes
        )
        scan = scan_field(converging_beam, z)

        # each plane measured on its own resamples near the axis itself
        planes = [propagate(converging_beam, zi) for zi in z]
        waists = [measure_waist_knife_edge(plane)[0] for plane in planes]
        np.testing.assert_allclose(scan.fitted_waists, waists, rtol=1e-9)

        transform = converging_beam.transform
        fine_max = min(60 * float(np.max(np.diff(transform.radii))), transform.max_radius)
        resampler = transform.resample_matrix(np.linspace(0.0, fine_max, 512))
        best = planes[int(np.argmin(waists))]
        enc_r, enc_p = diffraction._encircled_power_curve(
            transform, best.amplitude, resampler @ transform.forward(best.amplitude)
        )
        np.testing.assert_array_equal(scan.encircled_radii, enc_r)
        np.testing.assert_allclose(scan.encircled_power, enc_p, rtol=1e-9)

    def test_batched_fine_values_match_per_plane_resample(self, converging_beam, monkeypatch):
        # each plane's knife-edge curve is built from the scan's batched resample
        seen = []
        build = diffraction._blade_curve

        def recording(field, n_blade_positions, fine_values):
            seen.append(fine_values)
            return build(field, n_blade_positions, fine_values)

        monkeypatch.setattr(diffraction, "_blade_curve", recording)
        z = np.linspace(
            LENS_FOCUS - 2 * LENS_RAYLEIGH_OUT, LENS_FOCUS + 2 * LENS_RAYLEIGH_OUT, 5
        )
        scan_field(converging_beam, z)

        transform = converging_beam.transform
        fine_max = min(60 * float(np.max(np.diff(transform.radii))), transform.max_radius)
        resampler = transform.resample_matrix(np.linspace(0.0, fine_max, 512))
        spectrum = transform.forward(converging_beam.amplitude)
        assert len(seen) == z.size
        kz = diffraction._transfer_wavenumber(transform, converging_beam.wavenumber)
        for zi, fine_values in zip(z, seen):
            plane_spectrum = spectrum * np.exp(1j * zi * kz)
            expected = resampler @ plane_spectrum
            assert np.max(np.abs(fine_values - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_fine_resample_matrix_built_once_per_transform(self, monkeypatch):
        # the toy grid's light cone sits at row ~1045 of 2048, so a scan needs
        # only the matrix columns below it
        def converging(transform):
            field = gaussian_beam(transform, 75e-6, TOY_WAVELENGTH)
            return apply_ideal_lens(field, TOY_FOCAL_LENGTH, TOY_APERTURE / 2)

        filled = {}
        fill = HankelTransform._fill_resample_columns

        def counting(transform, radii, matrix, first, stop):
            filled.setdefault(transform, Counter()).update(range(first, stop))
            fill(transform, radii, matrix, first, stop)

        monkeypatch.setattr(HankelTransform, "_fill_resample_columns", counting)
        transform = HankelTransform(2048, TOY_GRID_RADIUS)
        field = converging(transform)
        z = np.linspace(TOY_FOCAL_LENGTH - 2e-6, TOY_FOCAL_LENGTH + 2e-6, 5)
        scan_field(field, z)
        reached = transform._fine_filled
        assert 900 < reached < 1100
        assert filled[transform] == Counter(range(reached))
        matrix = transform._fine_matrix
        kept = scan_field(field, z + 1e-6)
        assert filled[transform] == Counter(range(reached))
        # a standalone waist at focus resamples its full spectrum through the
        # same kept matrix, filling only the columns still missing
        measure_waist_knife_edge(propagate(field, TOY_FOCAL_LENGTH))
        assert transform._fine_matrix is matrix
        assert filled[transform] == Counter(range(transform.n_points))
        # a transform of its own fills the matrix afresh, only as far as these
        # later planes reach, with the same result
        fresh = HankelTransform(2048, TOY_GRID_RADIUS)
        rebuilt = scan_field(converging(fresh), z + 1e-6)
        assert filled[fresh] == Counter(range(fresh._fine_filled))
        assert fresh._fine_filled <= reached
        for name in ("fitted_waists", "waist_uncertainties", "encircled_radii", "encircled_power"):
            assert np.array_equal(getattr(kept, name), getattr(rebuilt, name))

    @pytest.mark.parametrize("n_points", [1300, 4096])
    def test_fine_values_through_chebyshev_nodes_match_direct_resample(self, n_points):
        # spectra reaching the last row carry the highest k r on the fine grid,
        # 60 pi: the hardest band limit the nodes have to resolve
        t = HankelTransform(n_points, 1e-3)
        rng = np.random.default_rng(n_points)
        spectra = rng.standard_normal((n_points, 2)) + 1j * rng.standard_normal((n_points, 2))
        for fine_points in (32, 256, 512):
            fine = t.fine_values(spectra, fine_points)
            expected = t.resample_matrix(t.fine_radii(fine_points)) @ spectra
            assert fine.shape == (fine_points, 2)
            assert np.max(np.abs(fine - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_kept_fine_matrix_holds_128_chebyshev_rows_whatever_fine_points(self):
        t = HankelTransform(1300, 1e-3)
        spectrum = np.ones(1300, dtype=complex)
        for fine_points in (32, 512):
            t.fine_values(spectrum, fine_points)
            radii = t.fine_radii(fine_points)
            assert radii.size == fine_points and radii[-1] == t.fine_span
            nodes, _ = hankel._fine_interpolation(radii)
            # the positive half of the 256 first-kind Chebyshev points on
            # [-fine_span, fine_span]
            points = t.fine_span * np.cos((2 * np.arange(256) + 1) * np.pi / 512)
            np.testing.assert_allclose(nodes, points[:128], rtol=1e-15)
            matrix = t._fine_matrix
            assert matrix.shape == (128, 1300) and t._fine_filled == 1300
            assert np.array_equal(matrix, t.resample_matrix(nodes))

    def test_fine_radii_on_the_nodes_take_the_node_values(self):
        # u - cos t_j is exactly 0 there: each such row must be a unit row, not nan
        fine_max = 3e-5
        nodes, _ = hankel._fine_interpolation(np.array([0.0, fine_max]))
        radii = np.append(nodes[::-1], fine_max)
        cosines = np.cos((np.arange(nodes.size) + 0.5) * (np.pi / (2 * nodes.size)))
        on_node = radii[:-1] / fine_max == cosines[::-1]
        assert on_node.any()
        _, interpolation = hankel._fine_interpolation(radii)
        assert np.all(np.isfinite(interpolation))
        np.testing.assert_allclose(interpolation[:-1, ::-1], np.eye(nodes.size), atol=1e-14)
        assert np.array_equal(interpolation[:-1, ::-1][on_node], np.eye(nodes.size)[on_node])

    def test_scans_on_two_fine_grids_share_one_kept_matrix(self, monkeypatch):
        filled = Counter()
        fill = HankelTransform._fill_resample_columns

        def counting(transform, radii, matrix, first, stop):
            filled.update(range(first, stop))
            fill(transform, radii, matrix, first, stop)

        monkeypatch.setattr(HankelTransform, "_fill_resample_columns", counting)
        transform = HankelTransform(2048, TOY_GRID_RADIUS)
        field = apply_ideal_lens(
            gaussian_beam(transform, 75e-6, TOY_WAVELENGTH), TOY_FOCAL_LENGTH, TOY_APERTURE / 2
        )
        z = np.linspace(TOY_FOCAL_LENGTH - 2e-6, TOY_FOCAL_LENGTH + 2e-6, 5)
        scan_field(field, z, fine_points=256)
        matrix = transform._fine_matrix
        once = Counter(filled)
        scan_field(field, z, fine_points=512)
        assert transform._fine_matrix is matrix
        assert matrix.shape == (128, 2048)
        assert filled == once

    @pytest.mark.parametrize(
        "z, message",
        [
            ([math.nan], "z_positions must be finite and at most"),
            ([-1e308, 1e308], "z_positions must be finite and at most"),
            ([], "z_positions must be increasing and non-empty"),
            ([2e-3, 1e-3], "z_positions must be increasing and non-empty"),
            ([-1e-3, 1e-3], "z_positions must be non-negative \\(measured from the lens\\)"),
        ],
        ids=["nan", "beyond-2^52-rad", "empty", "decreasing", "negative"],
    )
    def test_bad_planes_refused_by_message_without_a_warning(self, converging_beam, z, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                scan_field(converging_beam, np.array(z, dtype=float))

    @pytest.mark.parametrize("fine_points", [1, 2, 31])
    def test_fine_grid_below_32_points_refused_without_a_warning(
        self, toy_transform, toy_layout, fine_points
    ):
        # one point made the fine grid the radius 0 alone (0 / 0 in the
        # interpolation); two gave a waist 28 times too wide
        field = gaussian_beam(toy_transform, 75e-6, TOY_WAVELENGTH)
        z = np.linspace(TOY_FOCAL_LENGTH - 2e-6, TOY_FOCAL_LENGTH + 2e-6, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"fine_points must be >= 32, got {fine_points}"):
                scan_field(apply_binary_pfl(field, toy_layout), z, fine_points=fine_points)
            with pytest.raises(DomainError, match=f"fine_points must be >= 32, got {fine_points}"):
                focal_scan(field, toy_layout, (z[0], z[-1]), z.size, fine_points=fine_points)

    def test_fine_grid_refused_before_any_kernel_block_is_filled(self, toy_layout):
        # a transform of its own, so no other test has filled its kernel
        transform = HankelTransform(n_points=2048, max_radius=TOY_GRID_RADIUS)
        field = gaussian_beam(transform, 75e-6, TOY_WAVELENGTH)
        z = np.linspace(TOY_FOCAL_LENGTH - 2e-6, TOY_FOCAL_LENGTH + 2e-6, 3)
        with pytest.raises(DomainError, match="fine_points must be >= 32, got 1"):
            scan_field(apply_binary_pfl(field, toy_layout), z, fine_points=1)
        with pytest.raises(DomainError, match="fine_points must be >= 32, got 1"):
            focal_scan(field, toy_layout, (z[0], z[-1]), z.size, fine_points=1)
        assert transform._row_blocks is None

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

    def test_a_longer_wavelength_focuses_nearer_as_the_linear_model_signs_it(self):
        # the layout stays designed at 854 nm; the beam is detuned by +-1e-3 in
        # wavelength. A diffractive lens has f proportional to 1 / lam, so the
        # caustic's z0 moves nearer for the longer wavelength and farther for the
        # shorter, with the sign chromatic_focal_shift gives the frequency detuning.
        # The engine's shift is larger than the linear model's, by a factor that
        # grows with NA: measured 1.1756 / 1.1746 here (-234.88 / +235.16 nm
        # against -199.80 / +200.20 nm), held to +-0.01
        design = LensDesign(TOY_FOCAL_LENGTH, TOY_APERTURE, TOY_WAVELENGTH)
        shifts = chromatic_shifts(HankelTransform(4096, TOY_GRID_RADIUS), design, 75e-6, 2e-6)
        for (engine, linear), sign, measured in zip(shifts, (-1.0, 1.0), (1.1756, 1.1746)):
            assert np.sign(engine) == sign
            assert np.sign(linear) == sign
            assert engine / linear == pytest.approx(measured, abs=0.01)

    def test_at_na_0_9_the_focus_shifts_about_1_8_times_the_linear_model(self):
        # f = 50 um at 854 nm and NA 0.9: aperture radius a = f tan(asin 0.9) =
        # 103.2 um, window 1.5 a, waist a / 2, light-cone floor 363 points. The
        # ray picture's zone shift f delta (1 + r^2 / f^2) grows toward the rim,
        # so the gap to the linear model is wider than the NA 0.6 toy lens's
        # 1.18. Measured at N = 2048: 1.927 / 1.812 (-96.25 / +90.67 nm against
        # -49.95 / +50.05 nm); N = 372 and 1024 gave 1.69 / 1.84 and 1.91 / 1.77,
        # so the band is 1.6 to 2.1
        focal_length = 50e-6
        aperture = focal_length * math.tan(math.asin(0.9))
        design = LensDesign(focal_length, 2 * aperture, TOY_WAVELENGTH)
        transform = HankelTransform(2048, 1.5 * aperture)
        shifts = chromatic_shifts(transform, design, aperture / 2, 2e-6)
        for (engine, linear), sign in zip(shifts, (-1.0, 1.0)):
            assert np.sign(engine) == sign
            assert np.sign(linear) == sign
            assert 1.6 < engine / linear < 2.1

    @pytest.mark.parametrize(
        "levels, bound",
        [
            (2, 1.5e-3),  # measured +7.98e-4: 0.40608 against 0.40528
            (4, 5e-4),  # measured +2.6e-6: 0.81057 against 0.81057
            (8, 5e-4),  # measured -2.22e-4: 0.94942 against 0.94964
        ],
    )
    def test_focal_efficiency_matches_the_multilevel_grating_efficiency(self, levels, bound):
        # criterion 03's toy lens at N = 4096 with 2, 4 and 8 phase levels: the
        # power inside 3 fitted waists at best focus, over the transmitted
        # power, against [sin(pi / L) / (pi / L)]^2
        n_points, radius, layout, waist = toy_lens(4096, levels)
        field = gaussian_beam(get_transform(n_points, radius), waist, TOY_WAVELENGTH)
        scan = focal_scan(field, layout, (198e-6, 202e-6), 9, fine_points=256)
        efficiency = efficiency_into_focus(scan, input_power=scan.transmitted_power)
        assert abs(efficiency - multilevel_efficiency(levels)) < bound


def teardown_module():
    clear_transform_cache()
