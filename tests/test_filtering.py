"""Etalon transmission, frequency bookkeeping, and the readout error budget."""

from __future__ import annotations

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from pflens import (
    DomainError,
    EtalonSpec,
    FrequencyLayout,
    etalon_transmission,
    scheme_error_budget,
    suppression_factor,
    zeeman_splitting,
)
from pflens.filtering import (
    DEFAULT_RAMAN_SHIFT,
    DEFAULT_ZEEMAN_COEFFICIENT,
    DEFAULT_ZEEMAN_SPLITTING,
)

RAMAN_ETALON = EtalonSpec(finesse=50.0, free_spectral_range=2 * DEFAULT_RAMAN_SHIFT)
ZEEMAN_ETALON = EtalonSpec(
    finesse=16.0, free_spectral_range=2 * DEFAULT_ZEEMAN_SPLITTING
)


class TestEtalonTransmission:
    def test_resonance_transmits_fully(self):
        assert etalon_transmission(RAMAN_ETALON, 0.0) == 1.0
        assert etalon_transmission(RAMAN_ETALON, RAMAN_ETALON.free_spectral_range) == (
            pytest.approx(1.0, rel=1e-12)
        )

    def test_finesse_50_at_half_fsr(self):
        # half-FSR sits exactly between comb lines: 1 / (1 + (2F/pi)^2)
        transmission = etalon_transmission(RAMAN_ETALON, DEFAULT_RAMAN_SHIFT)
        assert transmission == pytest.approx(1 / 1014.2118364233777, rel=1e-12)
        assert transmission == pytest.approx(9.9e-4, abs=2e-5)

    def test_finesse_16_at_half_fsr(self):
        transmission = etalon_transmission(ZEEMAN_ETALON, DEFAULT_ZEEMAN_SPLITTING)
        assert transmission == pytest.approx(1 / 104.7528920497539, rel=1e-12)

    @given(
        finesse=st.floats(min_value=0.1, max_value=1000.0),
        fsr=st.floats(min_value=1e6, max_value=1e12),
        detuning=st.floats(min_value=-1e12, max_value=1e12),
    )
    @settings(max_examples=60)
    def test_periodic_and_bounded(self, finesse, fsr, detuning):
        etalon = EtalonSpec(finesse, fsr)
        base = etalon_transmission(etalon, detuning)
        assert 0.0 < base <= 1.0
        shifted = etalon_transmission(etalon, detuning + fsr)
        assert shifted == pytest.approx(base, rel=1e-6, abs=1e-12)

    def test_unit_transmission_only_on_resonance(self):
        for k in range(4):
            assert etalon_transmission(
                RAMAN_ETALON, k * RAMAN_ETALON.free_spectral_range
            ) == pytest.approx(1.0, rel=1e-12)
        assert etalon_transmission(RAMAN_ETALON, 0.1e9) < 1.0

    def test_spec_validation(self):
        with pytest.raises(DomainError, match="finesse"):
            EtalonSpec(0.0, 1e9)
        with pytest.raises(DomainError, match="free_spectral_range"):
            EtalonSpec(50.0, 0.0)
        for value in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finesse must be finite"):
                EtalonSpec(value, 1e9)
            with pytest.raises(DomainError, match="free_spectral_range must be finite"):
                EtalonSpec(50.0, value)


class TestSuppressionFactor:
    def test_raman_line_suppressed_thousandfold(self):
        factor = suppression_factor(RAMAN_ETALON, DEFAULT_RAMAN_SHIFT)
        assert factor == pytest.approx(1014.2118364233777, rel=1e-12)
        assert factor == pytest.approx(1014, abs=1)
        assert factor >= 1000

    def test_zeeman_line_suppressed_hundredfold(self):
        factor = suppression_factor(ZEEMAN_ETALON, DEFAULT_ZEEMAN_SPLITTING)
        assert factor == pytest.approx(104.7528920497539, rel=1e-12)
        assert factor == pytest.approx(105, abs=1)
        assert factor >= 100

    def test_vanishing_finesse_means_no_cavity(self):
        weak = EtalonSpec(1e-9, 1e9)
        assert suppression_factor(weak, 0.5e9) == pytest.approx(1.0, abs=1e-12)

    @given(finesse=st.floats(min_value=0.1, max_value=1000.0))
    @settings(max_examples=60)
    def test_half_fsr_value_is_exact(self, finesse):
        etalon = EtalonSpec(finesse, 1e9)
        expected = 1.0 + (2.0 * finesse / math.pi) ** 2
        assert suppression_factor(etalon, 0.5e9) == pytest.approx(expected, rel=1e-12)

    def test_resonant_detuning_rejected(self):
        for detuning in (0.0, RAMAN_ETALON.free_spectral_range):
            with pytest.raises(DomainError, match="resonant"):
                suppression_factor(RAMAN_ETALON, detuning)

    def test_monotone_in_finesse_off_resonance(self):
        factors = [
            suppression_factor(EtalonSpec(f, 1e9), 0.3e9) for f in (5, 10, 20, 40)
        ]
        assert all(a < b for a, b in zip(factors, factors[1:]))


class TestZeemanSplitting:
    def test_reference_operating_point(self):
        assert zeeman_splitting(67e-4) == pytest.approx(160e6, rel=1e-12)

    def test_zero_field(self):
        assert zeeman_splitting(0.0) == 0.0

    def test_linearity(self):
        assert zeeman_splitting(33.5e-4) == pytest.approx(80e6, rel=1e-12)

    def test_default_coefficient_in_lab_units(self):
        # back-solved (160 MHz, 67 G) pair: 2.388 MHz per gauss
        mhz_per_gauss = DEFAULT_ZEEMAN_COEFFICIENT * 1e-4 / 1e6
        assert mhz_per_gauss == pytest.approx(2.388, abs=5e-4)

    def test_domain(self):
        with pytest.raises(DomainError, match="field"):
            zeeman_splitting(-1e-4)
        with pytest.raises(DomainError, match="coefficient"):
            zeeman_splitting(1e-4, coefficient=-1.0)


class TestFrequencyLayout:
    def test_defaults(self):
        layout = FrequencyLayout()
        assert layout.raman_shift == 12.6e9
        assert layout.zeeman_splitting == 160e6
        assert layout.zeeman_coefficient == pytest.approx(160e6 / 67e-4)

    def test_raman_removal_keeps_other_fields(self):
        layout = FrequencyLayout(raman_shift=12.6e9, zeeman_splitting=80e6)
        shifted = layout.with_raman_removed()
        assert shifted.raman_shift == 0.0
        assert shifted.zeeman_splitting == 80e6
        assert layout.raman_shift == 12.6e9

    def test_rejects_negative_frequencies(self):
        with pytest.raises(DomainError, match="raman_shift"):
            FrequencyLayout(raman_shift=-1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["raman_shift", "zeeman_splitting", "zeeman_coefficient"])
    def test_rejects_non_finite_frequencies(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            FrequencyLayout(**{name: value})


class TestSchemeErrorBudget:
    def test_closed_aperture_collects_no_error(self):
        budget = scheme_error_budget(1e-6, RAMAN_ETALON, FrequencyLayout())
        assert budget["pi_leakage"] < 1e-12
        assert budget["polarization_error"] < 1e-9
        assert budget["combined_infidelity"] < 1e-9

    def test_fast_lens_with_both_etalons_beats_one_percent(self):
        budget = scheme_error_budget(
            0.95, RAMAN_ETALON, FrequencyLayout(), etalon_sigma=ZEEMAN_ETALON
        )
        assert budget["combined_infidelity"] == pytest.approx(
            0.0015261175908346106, rel=1e-10
        )
        assert budget["combined_infidelity"] < 0.01
        assert budget["pi_leakage"] == pytest.approx(
            0.00026132773630541573, rel=1e-10
        )
        assert budget["polarization_error"] == pytest.approx(
            0.001264789854529195, rel=1e-10
        )

    def test_reference_aperture_pi_leakage(self):
        budget = scheme_error_budget(0.64, RAMAN_ETALON, FrequencyLayout())
        # (pi weight / collected) x etalon transmission at the Raman line
        assert budget["pi_leakage"] == pytest.approx(
            0.00010537330047493518, rel=1e-10
        )
        assert budget["pi_leakage"] == pytest.approx(1.1e-4, abs=1e-5)

    def test_components_sum_to_combined(self):
        budget = scheme_error_budget(
            0.8, RAMAN_ETALON, FrequencyLayout(), etalon_sigma=ZEEMAN_ETALON
        )
        assert budget["combined_infidelity"] == pytest.approx(
            budget["pi_leakage"] + budget["polarization_error"], rel=1e-12
        )

    def test_sigma_etalon_reduces_polarization_error(self):
        layout = FrequencyLayout()
        bare = scheme_error_budget(0.9, RAMAN_ETALON, layout)
        filtered = scheme_error_budget(
            0.9, RAMAN_ETALON, layout, etalon_sigma=ZEEMAN_ETALON
        )
        assert filtered["polarization_error"] < bare["polarization_error"]
        assert filtered["polarization_error"] == pytest.approx(
            bare["polarization_error"]
            * etalon_transmission(ZEEMAN_ETALON, layout.zeeman_splitting),
            rel=1e-12,
        )

    def test_error_terms_non_increasing_in_finesse(self):
        layout = FrequencyLayout()
        previous = None
        for finesse in (5.0, 15.0, 45.0):
            etalon = EtalonSpec(finesse, 2 * layout.raman_shift)
            budget = scheme_error_budget(
                0.9, etalon, layout, etalon_sigma=EtalonSpec(finesse, 2 * 160e6)
            )
            if previous is not None:
                assert budget["pi_leakage"] <= previous["pi_leakage"]
                assert budget["polarization_error"] <= previous["polarization_error"]
            previous = budget

    def test_combined_infidelity_monotone_in_na(self):
        layout = FrequencyLayout()
        values = [
            scheme_error_budget(na, RAMAN_ETALON, layout)["combined_infidelity"]
            for na in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_raman_removal_defeats_the_pi_filter(self):
        layout = FrequencyLayout()
        filtered = scheme_error_budget(0.64, RAMAN_ETALON, layout)
        unshifted = scheme_error_budget(
            0.64, RAMAN_ETALON, layout.with_raman_removed()
        )
        # with the pi line parked on resonance the etalon passes it all
        assert unshifted["pi_leakage"] == pytest.approx(
            filtered["pi_leakage"] * 1014.2118364233777, rel=1e-10
        )
