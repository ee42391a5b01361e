"""Dipole collection fractions, fiber coupling, and polarization fidelity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from pflens import (
    BeamQuality,
    CouplingBudget,
    DomainError,
    EmissionChannel,
    EQUATORIAL_PI,
    EQUATORIAL_SIGMA,
    POLAR_PI,
    POLAR_SIGMA,
    coherent_coupling,
    collection_fraction,
    collection_fraction_series,
    collection_probability,
    coupling_budget,
    effective_divergence,
    fidelity_series,
    polarization_fidelity_collected,
    polarization_fidelity_single,
)
from pflens.dipole import (
    collection_curve_csv_text,
    fidelity_curve_csv_text,
    radiation_pattern,
)
from quadrature_oracles import collection_fraction_quadrature, gaussian_overlap_oracle

ALL_CHANNELS = (POLAR_SIGMA, POLAR_PI, EQUATORIAL_SIGMA, EQUATORIAL_PI)
# the collected fidelity at NA = 1 in closed form, 0.831532098789439832 to 18
# digits (checked at 40 digits); this double is the correctly rounded value
FIDELITY_AT_NA_1 = 21 / 32 + 9 * math.asinh(1.0) / (32 * math.sqrt(2.0))
THETA_064 = math.asin(0.64)


class TestChannelType:
    def test_enumerations_are_validated(self):
        with pytest.raises(DomainError, match="polarization"):
            EmissionChannel("linear", "polar")
        with pytest.raises(DomainError, match="orientation"):
            EmissionChannel("pi", "diagonal")

    def test_sigma_signs_are_equivalent_for_collection(self):
        plus = EmissionChannel("sigma_plus", "polar")
        minus = EmissionChannel("sigma_minus", "polar")
        for theta in (0.2, 0.7, 1.2):
            assert collection_fraction(plus, theta) == collection_fraction(
                minus, theta
            )

    def test_labels(self):
        assert POLAR_SIGMA.label == "polar_sigma"
        assert EQUATORIAL_PI.label == "equatorial_pi"


class TestRadiationPattern:
    @pytest.mark.parametrize("channel", ALL_CHANNELS, ids=lambda c: c.label)
    def test_normalized_over_full_sphere(self, channel):
        theta = np.linspace(0.0, math.pi, 721)
        phi = np.linspace(0.0, 2 * math.pi, 721)
        grid_t, grid_p = np.meshgrid(theta, phi, indexing="ij")
        integrand = radiation_pattern(channel, grid_t, grid_p) * np.sin(grid_t)
        total = np.trapezoid(np.trapezoid(integrand, phi, axis=1), theta)
        assert total == pytest.approx(1.0, rel=1e-5)

    def test_polar_pi_vanishes_on_axis(self):
        assert radiation_pattern(POLAR_PI, 0.0) == 0.0

    def test_polar_sigma_peaks_on_axis(self):
        on_axis = float(radiation_pattern(POLAR_SIGMA, 0.0))
        side = float(radiation_pattern(POLAR_SIGMA, math.pi / 2))
        assert on_axis == pytest.approx(2 * side, rel=1e-12)


class TestCollectionFraction:
    @pytest.mark.parametrize("channel", ALL_CHANNELS, ids=lambda c: c.label)
    def test_sphere_anchors(self, channel):
        assert collection_fraction(channel, 0.0) == 0.0
        assert collection_fraction(channel, math.pi / 2) == pytest.approx(
            0.5, rel=1e-12
        )
        assert collection_fraction(channel, math.pi) == pytest.approx(1.0, rel=1e-12)

    def test_polar_sigma_at_na_064(self):
        assert collection_fraction(POLAR_SIGMA, THETA_064) == pytest.approx(
            0.15515334106881654, rel=1e-12
        )
        # the rounded-angle evaluation quoted alongside the series
        assert collection_fraction(POLAR_SIGMA, 0.694) == pytest.approx(
            0.155, abs=5e-4
        )
        series = collection_fraction_series(POLAR_SIGMA, 0.64)
        assert series == pytest.approx(0.1547, abs=5e-5)
        assert abs(series - 0.15515334106881654) / 0.15515334106881654 < 0.02

    def test_polar_pi_at_na_064(self):
        # (2 + cos) sin^4(theta/2) evaluates to 0.0371 here, not the
        # sometimes-quoted 0.0401; the series lands 3.7% below the exact
        # form, outside the 2% envelope that holds for sigma channels.
        exact = collection_fraction(POLAR_PI, THETA_064)
        assert exact == pytest.approx(0.03713095512445425, rel=1e-12)
        series = collection_fraction_series(POLAR_PI, 0.64)
        assert series == pytest.approx(0.035752247296, rel=1e-12)
        assert 0.02 < abs(series - exact) / exact < 0.05

    def test_equatorial_sigma_at_na_064(self):
        assert collection_fraction(EQUATORIAL_SIGMA, THETA_064) == pytest.approx(
            0.09614214809663539, rel=1e-12
        )

    def test_polar_sigma_at_na_044(self):
        # comfortably above the 5% sometimes quoted for this aperture
        value = collection_fraction(POLAR_SIGMA, math.asin(0.44))
        assert value == pytest.approx(0.0727326596895101, rel=1e-12)
        assert value >= 0.05

    @given(theta=st.floats(min_value=0.0, max_value=math.pi))
    @settings(max_examples=60)
    def test_polar_sigma_equals_equatorial_pi(self, theta):
        assert collection_fraction(POLAR_SIGMA, theta) == pytest.approx(
            collection_fraction(EQUATORIAL_PI, theta), rel=1e-12, abs=1e-15
        )

    @given(na=st.floats(min_value=1e-3, max_value=1.0, exclude_max=True))
    @settings(max_examples=60)
    def test_channel_ordering(self, na):
        theta = math.asin(na)
        polar_sigma = collection_fraction(POLAR_SIGMA, theta)
        equatorial_sigma = collection_fraction(EQUATORIAL_SIGMA, theta)
        polar_pi = collection_fraction(POLAR_PI, theta)
        assert polar_sigma >= equatorial_sigma >= polar_pi

    @given(
        low=st.floats(min_value=0.0, max_value=math.pi),
        high=st.floats(min_value=0.0, max_value=math.pi),
    )
    @settings(max_examples=60)
    def test_monotone_in_cone_angle(self, low, high):
        if low > high:
            low, high = high, low
        for channel in ALL_CHANNELS:
            assert collection_fraction(channel, low) <= collection_fraction(
                channel, high
            ) + 1e-15

    def test_closed_forms_match_quadrature(self, rng):
        angles = rng.uniform(0.05, math.pi - 0.05, size=20)
        for theta in angles:
            channel = ALL_CHANNELS[int(rng.integers(len(ALL_CHANNELS)))]
            exact = collection_fraction(channel, float(theta))
            numeric = collection_fraction_quadrature(channel, float(theta))
            assert abs(exact - numeric) < 1e-9

    def test_series_envelope_on_sigma_channels(self):
        # the polar-sigma series stays inside 2% all the way to NA 0.8;
        # the equatorial-sigma truncation crosses 2% at NA ~ 0.72 and
        # reaches 4.2% by 0.8, so its envelope is asserted on the
        # narrower domain
        for na in np.linspace(0.05, 0.795, 25):
            theta = math.asin(float(na))
            exact = collection_fraction(POLAR_SIGMA, theta)
            series = collection_fraction_series(POLAR_SIGMA, float(na))
            assert abs(series - exact) / exact < 0.02
        for na in np.linspace(0.05, 0.71, 25):
            theta = math.asin(float(na))
            exact = collection_fraction(EQUATORIAL_SIGMA, theta)
            series = collection_fraction_series(EQUATORIAL_SIGMA, float(na))
            assert abs(series - exact) / exact < 0.02
        theta = math.asin(0.8)
        exact = collection_fraction(EQUATORIAL_SIGMA, theta)
        series = collection_fraction_series(EQUATORIAL_SIGMA, 0.8)
        assert 0.02 < abs(series - exact) / exact < 0.05

    def test_pi_series_envelope_only_at_small_na(self):
        for na in np.linspace(0.05, 0.5, 10):
            theta = math.asin(float(na))
            exact = collection_fraction(POLAR_PI, theta)
            series = collection_fraction_series(POLAR_PI, float(na))
            assert abs(series - exact) / exact < 0.02
        # by NA 0.8 the pi series has drifted an order of magnitude past 2%
        exact = collection_fraction(POLAR_PI, math.asin(0.8))
        series = collection_fraction_series(POLAR_PI, 0.8)
        assert abs(series - exact) / exact > 0.05


class TestCollectionProbability:
    def test_reference_aperture(self):
        p = collection_probability(POLAR_SIGMA, THETA_064, 0.30)
        assert p == pytest.approx(0.04654600232064496, rel=1e-12)
        assert p == pytest.approx(0.0466, abs=1e-4)

    def test_zero_efficiency_collects_nothing(self):
        assert collection_probability(POLAR_SIGMA, THETA_064, 0.0) == 0.0

    def test_array_site_aperture(self):
        p = collection_probability(POLAR_SIGMA, math.asin(0.6), 0.60)
        assert p == pytest.approx(0.0816, rel=1e-12)
        assert p >= 0.08

    def test_rejects_efficiency_above_one(self):
        with pytest.raises(DomainError, match="eta_diff"):
            collection_probability(POLAR_SIGMA, THETA_064, 1.2)


class TestEffectiveDivergence:
    def test_sqrt_convention(self):
        quality = BeamQuality(0.348, 1.08)
        assert effective_divergence(quality) == pytest.approx(
            0.2367840084690405, rel=1e-12
        )
        assert effective_divergence(quality) == pytest.approx(0.2368, abs=1e-4)

    def test_unity_convention_ignores_m2(self):
        quality = BeamQuality(0.348, 1.08)
        theta_e = effective_divergence(quality, m_convention="unity")
        assert theta_e == pytest.approx(0.348 / math.sqrt(2), rel=1e-12)
        assert theta_e == pytest.approx(0.2461, abs=1e-4)

    def test_shrinks_with_divergence(self):
        small = effective_divergence(BeamQuality(1e-6, 1.0))
        assert small == pytest.approx(1e-6 / math.sqrt(2), rel=1e-12)

    def test_rejects_unknown_convention(self):
        with pytest.raises(DomainError, match="m_convention"):
            effective_divergence(BeamQuality(0.3, 1.0), m_convention="half")

    def test_beam_quality_validation(self):
        with pytest.raises(DomainError, match="divergence"):
            BeamQuality(0.0, 1.0)
        with pytest.raises(DomainError, match="m2"):
            BeamQuality(0.3, 0.9)


class TestCoherentCoupling:
    def test_characterized_lens_under_both_conventions(self):
        quality = BeamQuality(0.348, 1.08)
        with_m2 = coherent_coupling(POLAR_SIGMA, quality, 0.30, "sqrt")
        without = coherent_coupling(POLAR_SIGMA, quality, 0.30, "unity")
        assert with_m2 == pytest.approx(0.006191312171932578, rel=1e-12)
        assert without == pytest.approx(0.006676734927832574, rel=1e-12)
        # both conventions land within 10% of the 0.64% estimate
        for value in (with_m2, without):
            assert abs(value - 0.0064) / 0.0064 < 0.10

    def test_linear_in_eta(self):
        quality = BeamQuality(0.348, 1.08)
        single = coherent_coupling(POLAR_SIGMA, quality, 0.30)
        double = coherent_coupling(POLAR_SIGMA, quality, 0.60)
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_networking_aperture_band(self):
        quality = BeamQuality(0.927, 1.5)
        low = coherent_coupling(POLAR_SIGMA, quality, 0.5, "sqrt")
        high = coherent_coupling(POLAR_SIGMA, quality, 0.5, "unity")
        assert low == pytest.approx(0.04894275599407146, rel=1e-12)
        assert high == pytest.approx(0.07022133966589207, rel=1e-12)
        assert low == pytest.approx(0.049, abs=5e-4)
        assert high == pytest.approx(0.070, abs=5e-4)
        assert low < 0.06 < high

    def test_zero_efficiency(self):
        quality = BeamQuality(0.348, 1.08)
        assert coherent_coupling(POLAR_SIGMA, quality, 0.0) == 0.0


class TestCouplingBudget:
    def test_budget_combines_both_probabilities(self):
        quality = BeamQuality(0.348, 1.08)
        budget = coupling_budget(POLAR_SIGMA, quality, 0.30)
        assert budget.p_coll == pytest.approx(
            collection_probability(POLAR_SIGMA, 0.348, 0.30), rel=1e-12
        )
        assert budget.p_coh == pytest.approx(
            coherent_coupling(POLAR_SIGMA, quality, 0.30), rel=1e-12
        )
        assert budget.channel is POLAR_SIGMA

    @given(
        theta=st.floats(min_value=1e-3, max_value=math.pi / 2),
        m2=st.floats(min_value=1.0, max_value=3.0),
        eta=st.floats(min_value=1e-6, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_coherent_never_exceeds_collected(self, theta, m2, eta):
        budget = coupling_budget(POLAR_SIGMA, BeamQuality(theta, m2), eta)
        assert budget.p_coh <= budget.p_coll <= budget.eta_diff

    def test_invariants_enforced(self):
        with pytest.raises(DomainError, match="eta_diff"):
            CouplingBudget(p_coll=0.1, p_coh=0.05, eta_diff=0.0, channel=POLAR_SIGMA)
        with pytest.raises(DomainError, match="p_coll"):
            CouplingBudget(p_coll=0.5, p_coh=0.05, eta_diff=0.3, channel=POLAR_SIGMA)
        with pytest.raises(DomainError, match="p_coh"):
            CouplingBudget(p_coll=0.1, p_coh=0.2, eta_diff=0.3, channel=POLAR_SIGMA)


class TestGaussianOverlapOracle:
    def test_point_source_limit_matches_top_hat(self):
        theta_0 = 0.02
        oracle = gaussian_overlap_oracle(POLAR_SIGMA, theta_0)
        top_hat = collection_fraction(
            POLAR_SIGMA, math.asin(math.sin(theta_0) / math.sqrt(2))
        )
        assert oracle == pytest.approx(top_hat, rel=1e-5)

    def test_top_hat_shortcut_within_two_percent_at_moderate_divergence(self):
        for theta_0 in (0.246, 0.45, 0.65):
            oracle = gaussian_overlap_oracle(POLAR_SIGMA, theta_0)
            top_hat = collection_fraction(
                POLAR_SIGMA, math.asin(math.sin(theta_0) / math.sqrt(2))
            )
            assert abs(oracle - top_hat) / oracle < 0.02

    def test_top_hat_shortcut_degrades_slowly_at_large_divergence(self):
        # the shortcut drifts slightly past 2% before 0.93 rad; the
        # deviation stays bounded by 2.4% through the whole range
        for theta_0 in (0.9, 0.93):
            oracle = gaussian_overlap_oracle(POLAR_SIGMA, theta_0)
            top_hat = collection_fraction(
                POLAR_SIGMA, math.asin(math.sin(theta_0) / math.sqrt(2))
            )
            assert abs(oracle - top_hat) / oracle < 0.024

    def test_equatorial_channel_uses_full_solid_angle_quadrature(self):
        oracle = gaussian_overlap_oracle(EQUATORIAL_SIGMA, 0.246)
        top_hat = collection_fraction(
            EQUATORIAL_SIGMA, math.asin(math.sin(0.246) / math.sqrt(2))
        )
        assert abs(oracle - top_hat) / oracle < 0.02


class TestPolarizationFidelity:
    def test_single_angle_values(self):
        assert polarization_fidelity_single(0.0) == 1.0
        assert polarization_fidelity_single(math.pi / 2) == pytest.approx(
            1 / math.sqrt(2), rel=1e-12
        )
        assert polarization_fidelity_single(0.694) == pytest.approx(
            0.8918772362782316, rel=1e-12
        )

    def test_single_angle_domain(self):
        with pytest.raises(DomainError, match="theta"):
            polarization_fidelity_single(-0.1)
        with pytest.raises(DomainError, match="theta"):
            polarization_fidelity_single(math.pi / 2 + 0.1)

    def test_collected_fidelity_anchors(self):
        assert polarization_fidelity_collected(1.0) == pytest.approx(
            0.83153209878944, rel=1e-10
        )
        assert polarization_fidelity_collected(1.0) == pytest.approx(0.832, abs=1e-3)
        assert polarization_fidelity_collected(0.0) == 1.0
        assert polarization_fidelity_collected(1e-4) == pytest.approx(1.0, abs=1e-8)

    def test_collected_fidelity_aperture_limits(self):
        assert polarization_fidelity_collected(0.27) == pytest.approx(
            0.9908302809573596, rel=1e-10
        )
        assert polarization_fidelity_collected(0.27) >= 0.99
        assert polarization_fidelity_collected(0.85) == pytest.approx(
            0.9005387809898133, rel=1e-10
        )
        assert polarization_fidelity_collected(0.85) >= 0.90

    def test_collected_fidelity_strictly_decreasing_and_bounded(self):
        grid = np.linspace(0.0, 1.0, 21)
        values = [polarization_fidelity_collected(float(na)) for na in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(FIDELITY_AT_NA_1 - 2 * math.ulp(FIDELITY_AT_NA_1) <= v <= 1.0 for v in values)

    def test_collected_fidelity_at_na_1_is_the_closed_form(self):
        fidelity = polarization_fidelity_collected(1.0)
        assert abs(fidelity - FIDELITY_AT_NA_1) <= 2 * math.ulp(FIDELITY_AT_NA_1)

    def test_series_values(self):
        assert fidelity_series(0.0) == 1.0
        assert fidelity_series(0.5) == pytest.approx(0.9680277506510417, rel=1e-12)

    def test_series_tracks_integral_below_na_095(self):
        integral = polarization_fidelity_collected(0.95)
        series = fidelity_series(0.95)
        assert abs(series - integral) / integral < 0.01


class TestCurveExport:
    def test_collection_curve_csv(self):
        text = collection_curve_csv_text(n_steps=11)
        lines = text.strip().splitlines()
        assert lines[0] == "na,polar_sigma,equatorial_sigma,polar_pi"
        assert len(lines) == 12
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(0.5, rel=1e-12)

    def test_fidelity_curve_csv(self):
        text = fidelity_curve_csv_text(n_steps=5)
        lines = text.strip().splitlines()
        assert lines[0] == "na,fidelity,fidelity_series"
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(0.83153209878944, rel=1e-10)

    def test_step_validation(self):
        with pytest.raises(DomainError, match="n_steps"):
            collection_curve_csv_text(n_steps=1)
        with pytest.raises(DomainError, match="n_steps"):
            fidelity_curve_csv_text(n_steps=0)
