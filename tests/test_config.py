"""Flat key = value configuration parsing and serialization."""

from __future__ import annotations

import math

import pytest

from pflens import (
    ConfigError,
    ProjectConfig,
    config_text,
    default_config,
    parse_config_text,
    read_config,
    write_config,
)


class TestDefaults:
    def test_default_config_is_valid_and_matches_reference_lens(self):
        config = default_config()
        assert config.focal_length_mm == 3.0
        assert config.aperture_diameter_mm == 5.0
        assert config.wavelength_nm == 369.5
        assert config.phase_levels == 2
        assert config.eta_diff == 0.30
        assert config.beam_m2 == 1.08
        assert config.m_convention == "sqrt"

    def test_si_properties_convert_file_units(self):
        config = default_config()
        assert config.focal_length == pytest.approx(3e-3, rel=1e-15)
        assert config.aperture_diameter == pytest.approx(5e-3, rel=1e-15)
        assert config.wavelength == pytest.approx(369.5e-9, rel=1e-15)
        assert config.raman_shift == pytest.approx(12.6e9, rel=1e-15)
        assert config.zeeman_splitting == pytest.approx(160e6, rel=1e-15)
        # 1 MHz/G = 1e10 Hz/T; the default reproduces 160 MHz at 67 G
        assert config.zeeman_coefficient * 67e-4 == pytest.approx(160e6, rel=1e-12)
        assert config.input_waist == pytest.approx(1.1e-3, rel=1e-15)
        assert config.scan_half_width == pytest.approx(2e-6, rel=1e-15)

    def test_derived_domain_objects(self):
        config = default_config()
        design = config.lens_design()
        assert design.focal_length == config.focal_length
        assert design.phase_levels == 2
        layout = config.frequency_layout()
        assert layout.raman_shift == pytest.approx(12.6e9)
        assert layout.zeeman_splitting == pytest.approx(160e6)


class TestValidation:
    def test_validation_failures_name_the_key(self):
        cases = [
            ("focal_length_mm", 0.0),
            ("focal_length_mm", math.inf),
            ("aperture_diameter_mm", -1.0),
            ("aperture_diameter_mm", math.inf),
            ("wavelength_nm", 0.0),
            ("phase_levels", 1),
            ("substrate_index", 1.0),
            ("raman_shift_ghz", math.inf),
            ("zeeman_splitting_mhz", math.inf),
            ("eta_diff", 0.0),
            ("beam_m2", 0.5),
            ("m_convention", "half"),
            ("grid_points", 32),
            ("scan_steps", 2),
            ("capture_radius_multiplier", math.inf),
            ("blade_positions", 4),
        ]
        for key, bad in cases:
            with pytest.raises(ConfigError, match=key):
                default_config().with_updates(**{key: bad})

    def test_with_updates_returns_new_validated_config(self):
        config = default_config()
        updated = config.with_updates(eta_diff=0.5, scan_steps=11)
        assert updated.eta_diff == 0.5
        assert updated.scan_steps == 11
        assert config.eta_diff == 0.30


class TestParsing:
    def test_round_trip_is_identity(self):
        config = default_config().with_updates(
            focal_length_mm=0.2, wavelength_nm=854.0, grid_points=2048
        )
        assert parse_config_text(config_text(config)) == config

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config_text(
            """
            # lens section
            focal_length_mm = 2.0   # inline comment

            wavelength_nm = 400.0
            """
        )
        assert config.focal_length_mm == 2.0
        assert config.wavelength_nm == 400.0
        assert config.aperture_diameter_mm == 5.0

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match="focal_lenght_mm"):
            parse_config_text("focal_lenght_mm = 3.0")
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("\n\nfocal_lenght_mm = 3.0")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("eta_diff = 0.3\neta_diff = 0.4")

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config_text("grid_points = 18000.5")
        with pytest.raises(ConfigError, match="number"):
            parse_config_text("eta_diff = lots")

    def test_missing_value_and_missing_equals(self):
        with pytest.raises(ConfigError, match="missing value"):
            parse_config_text("eta_diff =")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("eta_diff 0.3")

    def test_string_field_parses_verbatim(self):
        config = parse_config_text("m_convention = unity")
        assert config.m_convention == "unity"


class TestFileIo:
    def test_write_then_read(self, tmp_path):
        config = default_config().with_updates(aperture_diameter_mm=2.2)
        path = tmp_path / "lens.cfg"
        write_config(path, config)
        assert read_config(path) == config

    def test_written_file_is_self_describing(self, tmp_path):
        path = tmp_path / "lens.cfg"
        write_config(path, default_config())
        text = path.read_text()
        assert text.startswith("#")
        assert "focal_length_mm = 3" in text
        assert "m_convention = sqrt" in text
