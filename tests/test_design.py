"""Zone layout, etch depth, efficiency, and chromatic design rules."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pflens import (
    ChromaticSpec,
    DomainError,
    LensDesign,
    SchemaError,
    ZoneLayout,
    chromatic_focal_shift,
    depth_of_focus,
    etch_depth,
    fractional_detuning_from_frequency,
    fresnel_plate_transmission,
    max_focal_length_for_dof,
    multilevel_efficiency,
    rayleigh_range_gaussian,
    zone_layout,
)
from pflens import design as design_mod
from pflens.design import read_zone_csv, zone_csv_text

REFERENCE_FOCAL_LENGTH = 3e-3
REFERENCE_APERTURE = 5e-3
REFERENCE_WAVELENGTH = 369.5e-9


def brute_force_zone_count(design: LensDesign) -> int:
    """Count rings by direct enumeration, independent of the closed form."""
    f = design.focal_length
    lam = design.design_wavelength
    limit = design.clear_aperture_diameter / 2.0
    p = 0
    while math.sqrt(2 * f * (p + 1) * lam + ((p + 1) * lam) ** 2) <= limit:
        p += 1
    return p


class TestZoneLayout:
    def test_first_ring_radius(self, reference_design):
        layout = zone_layout(reference_design)
        assert layout.ring_radii[0] == pytest.approx(47.09e-6, abs=0.005e-6)

    def test_zone_count_matches_brute_force(self, reference_design):
        layout = zone_layout(reference_design)
        assert layout.zone_count == 2449
        assert layout.zone_count == brute_force_zone_count(reference_design)

    @given(
        f_mm=st.floats(0.2, 20.0),
        d_mm=st.floats(0.05, 8.0),
        lam_nm=st.floats(200.0, 2000.0),
    )
    def test_zone_count_matches_brute_force_everywhere(self, f_mm, d_mm, lam_nm):
        design = LensDesign(f_mm * 1e-3, d_mm * 1e-3, lam_nm * 1e-9)
        layout = zone_layout(design)
        assert layout.zone_count == brute_force_zone_count(design)

    def test_zone_count_above_bound_refused(self, reference_design, monkeypatch):
        monkeypatch.setattr(design_mod, "MAX_ZONE_COUNT", 2450)
        assert zone_layout(reference_design).zone_count == 2449
        monkeypatch.setattr(design_mod, "MAX_ZONE_COUNT", 2448)
        with pytest.raises(DomainError, match="zones"):
            zone_layout(reference_design)
        with pytest.raises(DomainError, match="inf zones"):
            zone_layout(LensDesign(REFERENCE_FOCAL_LENGTH, 1e300, REFERENCE_WAVELENGTH))
        # R^2 and hypot(f, R) + f both overflow: the count is nan
        with pytest.raises(DomainError, match="nan zones"):
            zone_layout(LensDesign(1e308, 1e300, REFERENCE_WAVELENGTH))

    def test_wavelength_past_the_aperture_gives_an_empty_layout(self):
        # the first ring, just past 1e299 m, is checked against the aperture:
        # its square overflowed a float and raised OverflowError
        layout = zone_layout(LensDesign(REFERENCE_FOCAL_LENGTH, REFERENCE_APERTURE, 1e299))
        assert layout.zone_count == 0

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "name", ["focal_length", "clear_aperture_diameter", "design_wavelength", "substrate_index"]
    )
    def test_design_rejects_non_finite_fields(self, name, value):
        fields = {
            "focal_length": REFERENCE_FOCAL_LENGTH,
            "clear_aperture_diameter": REFERENCE_APERTURE,
            "design_wavelength": REFERENCE_WAVELENGTH,
            name: value,
        }
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            LensDesign(**fields)

    def test_design_rejects_an_overflowing_f_number(self):
        with pytest.raises(DomainError, match="the f-number must be finite, got 0.003 m / 9.88131e-324 m"):
            LensDesign(3e-3, 1e-323, REFERENCE_WAVELENGTH)

    @pytest.mark.parametrize("name", ["etch_depth", "aperture_radius", "design_wavelength"])
    def test_layout_rejects_non_finite_fields(self, name):
        fields = dict(ring_radii=[1e-4], etch_depth=4e-7, aperture_radius=2e-4, design_wavelength=4e-7)
        fields[name] = math.inf
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            ZoneLayout(**fields)

    def test_zone_identity(self, reference_design):
        # sqrt(f^2 + r_p^2) - f must equal p lam to machine precision.
        layout = zone_layout(reference_design)
        f = reference_design.focal_length
        lam = reference_design.design_wavelength
        p = np.arange(1, layout.zone_count + 1, dtype=float)
        excess = np.sqrt(f**2 + layout.ring_radii**2) - f
        residual = np.abs(excess - p * lam) / (p * lam)
        assert residual.max() < 1e-12

    def test_spacing_strictly_decreasing(self, reference_design):
        layout = zone_layout(reference_design)
        spacing = np.diff(layout.ring_radii)
        assert np.all(np.diff(spacing) < 0)

    def test_outermost_spacing_below_two_wavelengths(self, reference_design):
        layout = zone_layout(reference_design)
        outer = layout.ring_radii[-1] - layout.ring_radii[-2]
        assert outer < 2 * reference_design.design_wavelength

    def test_all_radii_within_aperture(self, reference_design):
        layout = zone_layout(reference_design)
        assert layout.ring_radii[-1] <= REFERENCE_APERTURE / 2.0
        assert np.all(np.diff(layout.ring_radii) > 0)

    def test_implied_focal_length(self, reference_design):
        layout = zone_layout(reference_design)
        assert layout.focal_length() == pytest.approx(
            REFERENCE_FOCAL_LENGTH, rel=1e-12
        )

    def test_truncated_keeps_focal_length(self, reference_design):
        layout = zone_layout(reference_design)
        sub = layout.truncated(1.1e-3)
        assert sub.aperture_radius == pytest.approx(1.1e-3)
        assert sub.zone_count < layout.zone_count
        assert np.all(sub.ring_radii <= 1.1e-3)
        assert sub.focal_length() == pytest.approx(layout.focal_length(), rel=1e-12)

    def test_aperture_smaller_than_first_ring_gives_empty_layout(self):
        design = LensDesign(3e-3, 40e-6, REFERENCE_WAVELENGTH)
        layout = zone_layout(design)
        assert layout.zone_count == 0

    def test_csv_round_trip(self, reference_design, tmp_path):
        layout = zone_layout(reference_design)
        path = tmp_path / "zones.csv"
        path.write_text(zone_csv_text(layout))
        loaded = read_zone_csv(
            path,
            design_wavelength=reference_design.design_wavelength,
            phase_levels=layout.phase_levels,
        )
        # 17 significant digits read back bit for bit
        assert np.array_equal(loaded.ring_radii, layout.ring_radii)
        assert loaded.zone_count == layout.zone_count

    @pytest.mark.parametrize("rows", ["1,inf\n", "1,1e-4\n2,inf\n", "1,inf\n2,inf\n", "1,nan\n"])
    def test_zone_csv_refuses_non_finite_radii(self, tmp_path, rows):
        # 1,inf read as a layout with an infinite aperture and focal length
        path = tmp_path / "zones.csv"
        path.write_text("p,r_p_m\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="ring radii must be finite"):
                read_zone_csv(path, design_wavelength=REFERENCE_WAVELENGTH)

    def test_non_utf8_zone_csv_names_the_path(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_bytes(b"p,r_p_m\n1,\xd0\x00\xff\n")
        message = f"{path}: not UTF-8 text (invalid continuation byte at byte 10)"
        with pytest.raises(SchemaError, match=re.escape(message)):
            read_zone_csv(path, design_wavelength=REFERENCE_WAVELENGTH)


class TestEtchDepth:
    def test_reference_depth(self, reference_design):
        assert etch_depth(reference_design) == pytest.approx(390e-9, abs=1e-9)
        assert etch_depth(reference_design) == pytest.approx(
            3.8993246095398904e-07, rel=1e-12
        )

    def test_scales_inversely_with_index_contrast(self):
        shallow = etch_depth(LensDesign(3e-3, 5e-3, 369.5e-9, substrate_index=2.0))
        assert shallow == pytest.approx(369.5e-9 / 2.0, rel=1e-12)


class TestMultilevelEfficiency:
    def test_binary(self):
        assert multilevel_efficiency(2) == pytest.approx((2 / math.pi) ** 2, rel=1e-12)
        assert multilevel_efficiency(2) * 0.92 == pytest.approx(0.373, abs=2e-3)

    def test_four_level(self):
        assert multilevel_efficiency(4) == pytest.approx(0.811, abs=1e-3)
        assert multilevel_efficiency(4) == pytest.approx(8 / math.pi**2, rel=1e-12)

    def test_many_levels_approach_unity(self):
        assert multilevel_efficiency(10**6) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_degenerate_levels(self):
        with pytest.raises(DomainError):
            multilevel_efficiency(1)

    @given(levels=st.integers(2, 512))
    def test_increasing_and_bounded(self, levels):
        eff = multilevel_efficiency(levels)
        assert 0 < eff < 1
        assert multilevel_efficiency(levels + 1) > eff


class TestFresnelPlateTransmission:
    def test_fused_silica(self):
        assert fresnel_plate_transmission(1.4738) == pytest.approx(0.927, abs=0.01)
        assert fresnel_plate_transmission(1.4738) == pytest.approx(
            0.927980277705974, rel=1e-12
        )

    def test_index_matched(self):
        assert fresnel_plate_transmission(1.0) == 1.0

    def test_crown_glass(self):
        assert fresnel_plate_transmission(1.5) == pytest.approx(0.9216, rel=1e-12)

    @given(n=st.floats(1.0, 4.0))
    def test_decreasing_in_index(self, n):
        assert fresnel_plate_transmission(n) >= fresnel_plate_transmission(n + 0.1)


class TestChromatics:
    def test_reference_focal_shift(self, reference_design):
        chroma = fractional_detuning_from_frequency(12.6e9, REFERENCE_WAVELENGTH)
        shift = chromatic_focal_shift(reference_design, chroma)
        assert shift == pytest.approx(47e-9, abs=1e-9)

    def test_zero_detuning_gives_zero_shift(self, reference_design):
        assert chromatic_focal_shift(reference_design, ChromaticSpec(0.0)) == 0.0

    def test_long_lens_shift(self):
        design = LensDesign(39e-3, 5e-3, REFERENCE_WAVELENGTH)
        shift = chromatic_focal_shift(design, ChromaticSpec(15e-6))
        assert shift == pytest.approx(585e-9, rel=1e-12)

    def test_max_focal_length_reference(self):
        f_max = max_focal_length_for_dof(0.9, ChromaticSpec(15e-6), REFERENCE_WAVELENGTH)
        assert f_max == pytest.approx(38.7e-3, abs=0.5e-3)

    def test_max_focal_length_na_scaling(self):
        chroma = ChromaticSpec(15e-6)
        full = max_focal_length_for_dof(0.9, chroma, REFERENCE_WAVELENGTH)
        half = max_focal_length_for_dof(0.45, chroma, REFERENCE_WAVELENGTH)
        assert half / full == pytest.approx(4.0, rel=1e-12)

    def test_max_focal_length_collection_na(self):
        f_max = max_focal_length_for_dof(0.64, ChromaticSpec(15e-6), REFERENCE_WAVELENGTH)
        assert f_max == pytest.approx(76.6e-3, abs=0.1e-3)

    @given(
        na=st.floats(0.05, 1.0),
        detuning=st.floats(1e-7, 1e-3),
        lam_nm=st.floats(200.0, 2000.0),
    )
    def test_shift_at_max_focal_length_equals_depth_of_focus(
        self, na, detuning, lam_nm
    ):
        lam = lam_nm * 1e-9
        chroma = ChromaticSpec(detuning)
        f_max = max_focal_length_for_dof(na, chroma, lam)
        design = LensDesign(f_max, f_max, lam)
        shift = chromatic_focal_shift(design, chroma)
        assert shift == pytest.approx(depth_of_focus(na, lam), rel=1e-9)

    def test_rayleigh_range_gaussian(self):
        zr = rayleigh_range_gaussian(350e-9, REFERENCE_WAVELENGTH)
        assert zr == pytest.approx(math.pi * 350e-9**2 / REFERENCE_WAVELENGTH, rel=1e-12)

    def test_depth_of_focus_value(self):
        dof = depth_of_focus(0.9, REFERENCE_WAVELENGTH)
        assert dof == pytest.approx(4 * REFERENCE_WAVELENGTH / (math.pi * 0.81), rel=1e-12)
