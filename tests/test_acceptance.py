"""Acceptance gate: one test per quantitative claim the package must hit.

Each test is numbered and self-contained so `pytest -v` reads as a
checklist. Oracle values are frozen from independent derivations (closed
forms, brute-force enumeration, 2-D quadrature, finite differences) and
from converged simulations; tolerances are stated inline.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from pflens import clear_transform_cache
from pflens.beamfit import (
    caustic_squared_jacobian,
    caustic_squared_model,
    fit_caustic,
    knife_edge_jacobian,
    knife_edge_model,
    synthetic_caustic_points,
)
from pflens.budget import (
    DetectorSpec,
    TrapArraySpec,
    achievable_array_na,
    detection_site_spacing,
    entanglement_rate_gain,
    fault_tolerance_check,
)
from pflens.cli import main as cli_main
from pflens.design import (
    ChromaticSpec,
    LensDesign,
    chromatic_focal_shift,
    depth_of_focus,
    fractional_detuning_from_frequency,
    max_focal_length_for_dof,
    multilevel_efficiency,
    zone_layout,
)
from pflens.diffraction import efficiency_into_focus, focal_scan, gaussian_beam
from pflens.dipole import (
    EQUATORIAL_PI,
    EQUATORIAL_SIGMA,
    POLAR_PI,
    POLAR_SIGMA,
    BeamQuality,
    coherent_coupling,
    collection_fraction,
    collection_fraction_series,
    collection_probability,
    fidelity_series,
    polarization_fidelity_collected,
)
from pflens.filtering import (
    EtalonSpec,
    FrequencyLayout,
    scheme_error_budget,
    suppression_factor,
)
from pflens.geometry import (
    LensGeometry,
    cone_from_na,
    na_from_geometry,
    solid_angle_fraction,
)
from pflens.hankel import get_transform
from quadrature_oracles import collection_fraction_quadrature

WAVELENGTH = 369.5e-9
FOCAL_LENGTH = 3e-3
APERTURE = 5e-3
ALL_CHANNELS = (POLAR_SIGMA, POLAR_PI, EQUATORIAL_SIGMA, EQUATORIAL_PI)


def test_criterion_01_geometry():
    """NA(f=3 mm, D=5 mm) = 0.640 +- 0.001; solid-angle 12%/28% at NA 0.64/0.9."""
    na = na_from_geometry(LensGeometry(FOCAL_LENGTH, APERTURE))
    assert na == pytest.approx(0.6401843996644799, rel=1e-12)
    assert na == pytest.approx(0.640, abs=1e-3)
    assert 100 * solid_angle_fraction(0.64) == pytest.approx(12.0, abs=0.5)
    assert 100 * solid_angle_fraction(0.64) == pytest.approx(11.581254575402905, rel=1e-12)
    assert 100 * solid_angle_fraction(0.9) == pytest.approx(28.0, abs=0.5)
    assert 100 * solid_angle_fraction(0.9) == pytest.approx(28.20550528229664, rel=1e-12)


def test_criterion_02_design():
    """Etch 390 +- 1 nm at n=1.4738; 2449 zones vs brute force; ring identity."""
    design = LensDesign(FOCAL_LENGTH, APERTURE, WAVELENGTH, substrate_index=1.4738)
    layout = zone_layout(design)
    assert layout.etch_depth == pytest.approx(390e-9, abs=1e-9)
    assert layout.etch_depth == pytest.approx(3.8993246095398904e-07, rel=1e-12)

    # brute-force enumeration, one ring at a time
    count = 0
    while True:
        p = count + 1
        radius = math.sqrt(2 * FOCAL_LENGTH * p * WAVELENGTH + (p * WAVELENGTH) ** 2)
        if radius > APERTURE / 2:
            break
        count = p
    assert count == 2449
    assert layout.zone_count == count

    p_grid = np.arange(1, layout.zone_count + 1, dtype=float)
    expected_sq = 2 * FOCAL_LENGTH * p_grid * WAVELENGTH + (p_grid * WAVELENGTH) ** 2
    residual = np.abs(layout.ring_radii**2 - expected_sq) / expected_sq
    assert np.max(residual) < 1e-12


def test_criterion_03_efficiency():
    """Binary efficiency 0.373 +- 0.002 with losses; simulated focal efficiency
    converges to (2/pi)^2 of transmitted power within 2% at the finest grid."""
    assert multilevel_efficiency(2) * 0.92 == pytest.approx(0.373, abs=2e-3)
    assert multilevel_efficiency(2) * 0.92 == pytest.approx(0.3728619558038031, rel=1e-12)

    # small fast lens: f=0.2 mm, D=0.3 mm at 854 nm, NA 0.6, 58 zones
    toy = zone_layout(LensDesign(200e-6, 300e-6, 854e-9))
    target = (2 / math.pi) ** 2
    efficiencies = []
    for n_points in (2048, 4096, 8192):
        transform = get_transform(n_points, 400e-6)
        field = gaussian_beam(transform, 75e-6, 854e-9)
        scan = focal_scan(field, toy, (198e-6, 202e-6), 9, fine_points=256)
        efficiencies.append(
            efficiency_into_focus(scan, input_power=scan.transmitted_power)
        )
    clear_transform_cache()
    assert efficiencies[-1] == pytest.approx(target, rel=0.02)
    steps = np.abs(np.diff(efficiencies))
    assert steps[1] <= steps[0]


def test_criterion_04_focal_simulation(tmp_path, capsys):
    """Reference scenario: fitted minimum waist in [300, 380] nm with M2 < 1.2;
    paraxial ideal-lens control recovers 321 nm +- 3%."""

    def run_simulation(extra):
        argv = ["simulate", "--scan-output", str(tmp_path / "scan.csv")] + extra
        assert cli_main(argv) == 0
        return json.loads(capsys.readouterr().out)

    binary = run_simulation([])
    assert binary["warnings"] == []
    assert 300e-9 <= binary["best_waist_m"] <= 380e-9
    fitted = binary["caustic_fit"]["parameters"]
    assert 300e-9 <= fitted["w0_m"] <= 380e-9
    assert fitted["m2"] < 1.2

    control = run_simulation(["--ideal"])
    clear_transform_cache()
    control_w0 = control["caustic_fit"]["parameters"]["w0_m"]
    assert control_w0 == pytest.approx(321e-9, rel=0.03)


def test_criterion_05_fitting():
    """Noiseless round trips to 1e-10; 2% noise recovers w0 +- 15 nm and
    M2 +- 0.05 in >= 95/100 trials; offset 1.11 +- 0.05 um; Jacobians vs FD."""
    z_grid = np.linspace(-20e-6, 20e-6, 25)

    clean = synthetic_caustic_points(z_grid, 350e-9, 1.08, WAVELENGTH)
    fit = fit_caustic(clean, WAVELENGTH)
    assert fit.w0 == pytest.approx(350e-9, rel=1e-9)
    assert fit.m2 == pytest.approx(1.08, rel=1e-9)
    model_w = np.sqrt(
        caustic_squared_model(
            np.array([p.z for p in clean]),
            np.array([p.direction == "in" for p in clean]),
            fit.w0,
            fit.m2,
            fit.z0,
            fit.direction_offset,
            WAVELENGTH,
        )
    )
    residual = np.abs(model_w - np.array([p.w for p in clean]))
    assert np.max(residual) < 1e-10 * fit.w0

    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(9000 + trial)
        points = synthetic_caustic_points(
            z_grid, 350e-9, 1.08, WAVELENGTH, noise_fraction=0.02, rng=rng
        )
        noisy = fit_caustic(points, WAVELENGTH)
        if abs(noisy.w0 - 350e-9) <= 15e-9 and abs(noisy.m2 - 1.08) <= 0.05:
            hits += 1
    assert hits >= 95

    rng = np.random.default_rng(7)
    offset_points = synthetic_caustic_points(
        z_grid,
        350e-9,
        1.08,
        WAVELENGTH,
        direction_offset=1.11e-6,
        noise_fraction=0.02,
        rng=rng,
    )
    offset_fit = fit_caustic(offset_points, WAVELENGTH)
    assert offset_fit.direction_offset == pytest.approx(1.11e-6, abs=0.05e-6)

    blades = np.linspace(-1e-6, 1e-6, 20)
    params = (1.0, 1e-7, 4e-7)
    analytic = knife_edge_jacobian(blades, *params, direction="in", background=0.01)
    for column, (value, step) in enumerate(
        [(params[0], 1e-8), (params[1], 1e-13), (params[2], 1e-13), (0.01, 1e-8)]
    ):
        def evaluate(x):
            trial = [params[0], params[1], params[2], 0.01]
            trial[column] = x
            return knife_edge_model(
                blades, trial[0], trial[1], trial[2], direction="in", background=trial[3]
            )

        numeric = (evaluate(value + step) - evaluate(value - step)) / (2 * step)
        scale = np.max(np.abs(analytic[:, column])) + 1e-30
        assert np.max(np.abs(analytic[:, column] - numeric)) < 1e-6 * scale

    in_direction = z_grid > 0
    caustic_params = (350e-9, 1.08, 1e-6, 0.5e-6)
    caustic_steps = (1e-15, 1e-8, 1e-12, 1e-12)
    analytic = caustic_squared_jacobian(z_grid, in_direction, *caustic_params, WAVELENGTH)
    for column in range(4):
        def evaluate(x):
            trial = list(caustic_params)
            trial[column] = x
            return caustic_squared_model(z_grid, in_direction, *trial, WAVELENGTH)

        step = caustic_steps[column]
        numeric = (
            evaluate(caustic_params[column] + step)
            - evaluate(caustic_params[column] - step)
        ) / (2 * step)
        scale = np.max(np.abs(analytic[:, column])) + 1e-30
        assert np.max(np.abs(analytic[:, column] - numeric)) < 1e-6 * scale


def test_criterion_06_collection_fractions():
    """Closed forms vs 2-D quadrature to 1e-9; primary-channel series within
    2% for 0.05 <= NA < 0.8; hemisphere/sphere anchors; channel equivalence."""
    for channel in ALL_CHANNELS:
        for theta in (0.3, 0.7, 1.2, math.pi / 2, 2.4):
            exact = collection_fraction(channel, theta)
            quadrature = collection_fraction_quadrature(channel, theta)
            assert abs(exact - quadrature) < 1e-9
        # identities are exact; float pi/2 costs a few ulps in the trig
        assert collection_fraction(channel, math.pi / 2) == pytest.approx(0.5, rel=1e-12)
        assert collection_fraction(channel, math.pi) == pytest.approx(1.0, rel=1e-12)

    for na in np.linspace(0.05, 0.7999, 160):
        exact = collection_fraction(POLAR_SIGMA, cone_from_na(na))
        series = collection_fraction_series(POLAR_SIGMA, na)
        assert abs(series - exact) / exact < 0.02

    for theta in np.linspace(0.01, math.pi, 40):
        assert collection_fraction(POLAR_SIGMA, theta) == pytest.approx(
            collection_fraction(EQUATORIAL_PI, theta), rel=1e-14
        )


def test_criterion_07_coupling_numbers():
    """p_coll = 4.6% +- 0.1; p_coh band [0.58%, 0.70%] spanning 0.64%;
    networking band [4.9%, 7.0%] containing 6%; rate gain >= 200."""
    theta = cone_from_na(0.64)
    p_coll = collection_probability(POLAR_SIGMA, theta, 0.30)
    assert 100 * p_coll == pytest.approx(4.6, abs=0.1)
    assert p_coll == pytest.approx(0.04654600232064496, rel=1e-12)

    measured = BeamQuality(divergence_half_angle=0.348, m2=1.08)
    p_coh_sqrt = coherent_coupling(POLAR_SIGMA, measured, 0.30, "sqrt")
    p_coh_unity = coherent_coupling(POLAR_SIGMA, measured, 0.30, "unity")
    assert p_coh_sqrt == pytest.approx(0.006191312171932578, rel=1e-12)
    assert p_coh_unity == pytest.approx(0.006676734927832574, rel=1e-12)
    assert 0.0058 <= p_coh_sqrt <= p_coh_unity <= 0.0070
    assert p_coh_sqrt <= 0.0064 <= p_coh_unity

    networking = BeamQuality(divergence_half_angle=cone_from_na(0.8), m2=1.5)
    band_low = coherent_coupling(POLAR_SIGMA, networking, 0.5, "sqrt")
    band_high = coherent_coupling(POLAR_SIGMA, networking, 0.5, "unity")
    assert band_low == pytest.approx(0.049, abs=5e-4)
    assert band_high == pytest.approx(0.070, abs=5e-4)
    assert band_low <= 0.06 <= band_high
    assert entanglement_rate_gain(band_low, 0.0032) >= 200


def test_criterion_08_fidelity():
    """Collected fidelity 0.832 +- 0.001 at NA=1; series within 1% below
    NA 0.95; threshold checks at NA 0.27 and 0.85."""
    full = polarization_fidelity_collected(1.0)
    assert full == pytest.approx(0.832, abs=1e-3)
    assert full == pytest.approx(0.83153209878944, rel=1e-12)

    for na in np.linspace(0.01, 0.9499, 95):
        exact = polarization_fidelity_collected(na)
        series = fidelity_series(na)
        assert abs(series - exact) / exact < 0.01

    assert polarization_fidelity_collected(0.27) >= 0.99
    assert polarization_fidelity_collected(0.85) >= 0.90


def test_criterion_09_filtering():
    """Suppression 1014 +- 1 (F=50) and 105 +- 1 (F=16); combined scheme
    infidelity < 0.01 at NA = 0.95 with both etalons."""
    layout = FrequencyLayout()
    raman_etalon = EtalonSpec(finesse=50, free_spectral_range=2 * layout.raman_shift)
    zeeman_etalon = EtalonSpec(finesse=16, free_spectral_range=2 * layout.zeeman_splitting)

    raman_suppression = suppression_factor(raman_etalon, layout.raman_shift)
    assert raman_suppression == pytest.approx(1014, abs=1)
    assert raman_suppression == pytest.approx(1014.2118364233777, rel=1e-12)
    assert raman_suppression >= 1000

    zeeman_suppression = suppression_factor(zeeman_etalon, layout.zeeman_splitting)
    assert zeeman_suppression == pytest.approx(105, abs=1)
    assert zeeman_suppression == pytest.approx(104.7528920497539, rel=1e-12)
    assert zeeman_suppression >= 100

    budget = scheme_error_budget(0.95, raman_etalon, layout, zeeman_etalon)
    assert budget["combined_infidelity"] == pytest.approx(0.0015261175908346106, rel=1e-9)
    assert budget["combined_infidelity"] < 0.01


def test_criterion_10_chromatics():
    """Focal shift 47 +- 1 nm at f=3 mm for 12.6 GHz; longest compatible
    focal length 38.7 +- 0.5 mm; shift at that length equals the depth of
    focus to 1e-9 relative."""
    design = LensDesign(FOCAL_LENGTH, APERTURE, WAVELENGTH)
    chromatic = fractional_detuning_from_frequency(12.6e9, WAVELENGTH)
    shift = chromatic_focal_shift(design, chromatic)
    assert shift == pytest.approx(47e-9, abs=1e-9)
    assert shift == pytest.approx(4.65892307404211e-08, rel=1e-12)

    # rounded detuning 1.5e-5 at NA 0.9, matching the quoted 39 mm scale
    rounded = ChromaticSpec(1.5e-5)
    f_max = max_focal_length_for_dof(0.9, rounded, WAVELENGTH)
    assert f_max == pytest.approx(38.7e-3, abs=0.5e-3)
    assert f_max == pytest.approx(0.038721153232892394, rel=1e-12)

    limit_design = LensDesign(f_max, APERTURE, WAVELENGTH)
    shift_at_limit = chromatic_focal_shift(limit_design, rounded)
    dof = depth_of_focus(0.9, WAVELENGTH)
    assert abs(shift_at_limit - dof) / dof < 1e-9


def test_criterion_11_budget():
    """Site spacing 7.83 d +- 0.01; array NA 0.79 +- 0.01; fault-tolerance
    pass at (0.6, 0.6) with p_coll >= 8%, fail at (0.3, 1.0) with 3.4%."""
    spec = TrapArraySpec(electrode_distance=100e-6)
    spacing = detection_site_spacing(spec)
    assert spacing / spec.electrode_distance == pytest.approx(7.83, abs=0.01)
    assert spacing / spec.electrode_distance == pytest.approx(
        7.826237921249264, rel=1e-12
    )

    array_na = achievable_array_na(spec)
    assert array_na == pytest.approx(0.79, abs=0.01)
    assert array_na == pytest.approx(0.7936120282694068, rel=1e-12)

    detector = DetectorSpec(quantum_efficiency=0.2)
    passing = fault_tolerance_check(0.6, 0.6, detector)
    assert passing["pass"] is True
    assert passing["p_coll"] >= 0.08
    assert passing["p_coll"] == pytest.approx(0.0816, rel=1e-9)

    failing = fault_tolerance_check(0.3, 1.0, detector)
    assert failing["pass"] is False
    assert 100 * failing["p_coll"] == pytest.approx(3.4, abs=0.1)
