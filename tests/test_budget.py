"""Trap-array spacing, array NA, readout thresholds, and rate scaling."""

from __future__ import annotations

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from pflens import (
    DetectorSpec,
    DomainError,
    TrapArraySpec,
    achievable_array_na,
    detection_site_spacing,
    entanglement_rate_gain,
    fault_tolerance_check,
)


class TestDetectionSiteSpacing:
    def test_default_layout(self):
        spec = TrapArraySpec(electrode_distance=1.0)
        spacing = detection_site_spacing(spec)
        # 7 segments x d/2, diluted by sqrt(5): 3.5 sqrt(5) = 7.83
        assert spacing == pytest.approx(7.826237921249264, rel=1e-12)
        assert spacing == pytest.approx(7.83, abs=0.01)
        assert spacing > 7.8

    def test_every_site_measured(self):
        spec = TrapArraySpec(electrode_distance=1.0, measured_site_fraction=1.0)
        assert detection_site_spacing(spec) == pytest.approx(3.5, rel=1e-12)

    def test_eight_segments_quarter_measured(self):
        spec = TrapArraySpec(
            electrode_distance=1.0, segments_per_site=8, measured_site_fraction=0.25
        )
        assert detection_site_spacing(spec) == pytest.approx(8.0, rel=1e-12)

    @given(d=st.floats(min_value=1e-6, max_value=1e-2))
    @settings(max_examples=60)
    def test_linear_in_electrode_distance(self, d):
        unit = detection_site_spacing(TrapArraySpec(electrode_distance=1.0))
        scaled = detection_site_spacing(TrapArraySpec(electrode_distance=d))
        assert scaled == pytest.approx(unit * d, rel=1e-12)

    def test_spec_validation(self):
        with pytest.raises(DomainError, match="electrode_distance"):
            TrapArraySpec(electrode_distance=0.0)
        with pytest.raises(DomainError, match="segments_per_site"):
            TrapArraySpec(electrode_distance=1.0, segments_per_site=0)
        with pytest.raises(DomainError, match="segments_per_site"):
            TrapArraySpec(electrode_distance=1.0, segments_per_site=7.5)
        with pytest.raises(DomainError, match="measured_site_fraction"):
            TrapArraySpec(electrode_distance=1.0, measured_site_fraction=1.2)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_specs_reject_non_finite_floats(self, value):
        with pytest.raises(DomainError, match="electrode_distance must be finite"):
            TrapArraySpec(electrode_distance=value)
        for name in ("segment_length_factor", "measured_site_fraction", "focal_length_factor"):
            with pytest.raises(DomainError, match=f"{name} must be finite"):
                TrapArraySpec(electrode_distance=1.0, **{name: value})
        with pytest.raises(DomainError, match="quantum_efficiency must be finite"):
            DetectorSpec(quantum_efficiency=value)


class TestAchievableArrayNa:
    def test_default_layout_reaches_079(self):
        na = achievable_array_na(TrapArraySpec(electrode_distance=120e-6))
        assert na == pytest.approx(0.7936120282694068, rel=1e-12)
        assert na == pytest.approx(0.79, abs=0.01)
        assert na >= 0.6

    def test_distant_lens_collects_nothing(self):
        na = achievable_array_na(
            TrapArraySpec(electrode_distance=1.0, focal_length_factor=1e6)
        )
        assert na == pytest.approx(0.0, abs=1e-5)

    def test_aperture_twice_the_focal_length(self):
        # spacing = 2 f: half-angle 45 degrees, NA = 1/sqrt(2)
        spec = TrapArraySpec(
            electrode_distance=1.0,
            segments_per_site=7,
            segment_length_factor=0.5,
            measured_site_fraction=1.0,
            focal_length_factor=1.75,
        )
        assert detection_site_spacing(spec) == pytest.approx(
            2 * spec.focal_length_factor, rel=1e-12
        )
        assert achievable_array_na(spec) == pytest.approx(
            1 / math.sqrt(2), rel=1e-12
        )

    @given(d=st.floats(min_value=1e-6, max_value=1e-2))
    @settings(max_examples=60)
    def test_na_invariant_under_uniform_scaling(self, d):
        unit = achievable_array_na(TrapArraySpec(electrode_distance=1.0))
        scaled = achievable_array_na(TrapArraySpec(electrode_distance=d))
        assert scaled == pytest.approx(unit, rel=1e-12)


class TestFaultToleranceCheck:
    def test_ideal_lens_threshold_aperture(self):
        result = fault_tolerance_check(0.44, 1.0, DetectorSpec())
        # the exact form gives 7.3% here, comfortably past the 5% bar
        assert result["p_coll"] == pytest.approx(0.0727326596895101, rel=1e-12)
        assert result["pass"]

    def test_array_site_passes(self):
        result = fault_tolerance_check(0.6, 0.6, DetectorSpec())
        assert result["p_coll"] == pytest.approx(0.0816, rel=1e-12)
        assert result["p_coll"] >= 0.08
        assert result["pass"]
        assert result["detected_fraction"] == pytest.approx(0.2 * 0.0816, rel=1e-12)

    def test_microlens_bound_fails(self):
        result = fault_tolerance_check(0.3, 1.0, DetectorSpec())
        assert result["p_coll"] == pytest.approx(0.034, abs=5e-4)
        assert not result["pass"]

    def test_threshold_is_pre_detector(self):
        strong = fault_tolerance_check(0.6, 0.6, DetectorSpec(quantum_efficiency=1.0))
        weak = fault_tolerance_check(0.6, 0.6, DetectorSpec(quantum_efficiency=0.01))
        assert strong["pass"] == weak["pass"]
        assert strong["p_coll"] == weak["p_coll"]
        assert weak["detected_fraction"] < strong["detected_fraction"]

    @given(
        na=st.floats(min_value=0.05, max_value=0.95),
        bigger=st.floats(min_value=1.01, max_value=1.05),
    )
    @settings(max_examples=60)
    def test_monotone_in_na(self, na, bigger):
        detector = DetectorSpec()
        low = fault_tolerance_check(na, 0.5, detector)
        high = fault_tolerance_check(min(na * bigger, 1.0), 0.5, detector)
        assert high["p_coll"] >= low["p_coll"]
        assert high["pass"] >= low["pass"]

    @given(
        eta=st.floats(min_value=0.05, max_value=0.95),
        bigger=st.floats(min_value=1.01, max_value=1.05),
    )
    @settings(max_examples=60)
    def test_monotone_in_eta(self, eta, bigger):
        detector = DetectorSpec()
        low = fault_tolerance_check(0.5, eta, detector)
        high = fault_tolerance_check(0.5, min(eta * bigger, 1.0), detector)
        assert high["p_coll"] >= low["p_coll"]
        assert high["pass"] >= low["pass"]

    def test_validation(self):
        with pytest.raises(DomainError, match="required_p_coll"):
            fault_tolerance_check(0.5, 0.5, DetectorSpec(), required_p_coll=0.0)
        with pytest.raises(DomainError, match="quantum_efficiency"):
            DetectorSpec(quantum_efficiency=0.0)


class TestEntanglementRateGain:
    def test_networking_upgrade(self):
        gain = entanglement_rate_gain(0.06, 0.0032)
        assert gain == pytest.approx(351.5625, rel=1e-12)
        assert gain >= 200

    def test_equal_inputs(self):
        assert entanglement_rate_gain(0.01, 0.01) == 1.0

    def test_doubled_coupling_quadruples_rate(self):
        assert entanglement_rate_gain(0.0064, 0.0032) == pytest.approx(4.0, rel=1e-12)

    @given(
        x=st.floats(min_value=1e-4, max_value=1.0),
        y=st.floats(min_value=1e-4, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_reciprocal_identity(self, x, y):
        assert entanglement_rate_gain(x, y) * entanglement_rate_gain(
            y, x
        ) == pytest.approx(1.0, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError, match="p_coh_new"):
            entanglement_rate_gain(0.0, 0.01)
        with pytest.raises(DomainError, match="p_coh_ref"):
            entanglement_rate_gain(0.01, 1.5)
