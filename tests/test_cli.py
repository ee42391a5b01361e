"""End-to-end command-line interface behavior (in-process)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from pflens import clear_transform_cache
from pflens.beamfit import (
    read_scans_csv,
    synthetic_knife_edge_scan,
    write_scan_csv,
)
from pflens.cli import main
from pflens.config import config_text, default_config

# small fast lens for the simulation paths: 58 zones at 854 nm, NA 0.6
TOY_CONFIG = """\
focal_length_mm = 0.2
aperture_diameter_mm = 0.3
wavelength_nm = 854.0
input_waist_mm = 0.075
grid_points = 2048
scan_steps = 7
fine_points = 256
"""


def teardown_module(module):
    clear_transform_cache()


def run_json(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


@pytest.fixture()
def toy_config_path(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CONFIG)
    return str(path)


class TestDesign:
    def test_reference_lens_summary(self, tmp_path, capsys):
        zones = tmp_path / "zones.csv"
        summary = run_json(["design", "--zones-output", str(zones)], capsys)
        assert summary["schema_version"] == 1
        assert summary["na"] == pytest.approx(0.6401843996644799, rel=1e-12)
        assert summary["solid_angle_fraction"] == pytest.approx(0.1158, abs=5e-4)
        assert summary["etch_depth_m"] == pytest.approx(389.9e-9, abs=1e-10)
        assert summary["zone_count"] == 2449
        assert summary["diffraction_efficiency"] == pytest.approx(
            (2 / math.pi) ** 2, rel=1e-12
        )
        assert summary["surface_transmission"] == pytest.approx(0.928, abs=1e-3)
        assert summary["efficiency_with_losses"] == pytest.approx(
            summary["diffraction_efficiency"] * summary["surface_transmission"],
            rel=1e-12,
        )
        assert summary["warnings"] == []
        lines = zones.read_text().strip().splitlines()
        assert len(lines) == 2449 + 1

    def test_doubled_wavelength_nearly_halves_zone_count(self, tmp_path, capsys):
        config = tmp_path / "double.cfg"
        config.write_text("wavelength_nm = 739.0\n")
        summary = run_json(
            [
                "--config",
                str(config),
                "design",
                "--zones-output",
                str(tmp_path / "z.csv"),
            ],
            capsys,
        )
        assert summary["zone_count"] == 1224

    def test_tiny_aperture_warns_and_emits_empty_layout(self, tmp_path, capsys):
        config = tmp_path / "tiny.cfg"
        config.write_text("aperture_diameter_mm = 0.08\n")
        zones = tmp_path / "zones.csv"
        summary = run_json(
            ["--config", str(config), "design", "--zones-output", str(zones)],
            capsys,
        )
        assert summary["zone_count"] == 0
        assert any("empty" in warning for warning in summary["warnings"])
        assert len(zones.read_text().strip().splitlines()) == 1

    def test_output_is_deterministic(self, tmp_path, capsys):
        argv = ["design", "--zones-output", str(tmp_path / "z.csv")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestSimulate:
    def test_binary_profile_toy_lens(self, toy_config_path, tmp_path, capsys):
        scan_csv = tmp_path / "scan.csv"
        summary = run_json(
            [
                "--config",
                toy_config_path,
                "simulate",
                "--scan-output",
                str(scan_csv),
            ],
            capsys,
        )
        assert summary["lens"] == "binary_pfl"
        assert summary["propagation"] == "exact"
        assert summary["warnings"] == []
        assert summary["best_focus_z_m"] == pytest.approx(200e-6, abs=1e-6)
        # capture at 3x the focal spot: the working order plus near halo
        assert 0.35 < summary["focal_efficiency"] < 0.48
        assert summary["caustic_fit"] is not None
        lines = scan_csv.read_text().strip().splitlines()
        assert lines[0] == "z_m,waist_m"
        assert len(lines) == 1 + 7

    def test_ideal_control_recovers_gaussian_focus(
        self, toy_config_path, tmp_path, capsys
    ):
        summary = run_json(
            [
                "--config",
                toy_config_path,
                "simulate",
                "--ideal",
                "--scan-output",
                str(tmp_path / "scan.csv"),
            ],
            capsys,
        )
        assert summary["lens"] == "ideal"
        assert summary["propagation"] == "paraxial"
        analytic = 854e-9 * 200e-6 / (math.pi * 75e-6)
        fitted = summary["caustic_fit"]["parameters"]["w0_m"]
        assert fitted == pytest.approx(analytic, rel=0.03)
        assert summary["caustic_fit"]["parameters"]["m2"] < 1.2

    def test_scan_window_missing_the_focus_warns(
        self, toy_config_path, tmp_path, capsys
    ):
        summary = run_json(
            [
                "--config",
                toy_config_path,
                "simulate",
                "--z-min-um",
                "203",
                "--z-max-um",
                "206",
                "--steps",
                "4",
                "--scan-output",
                str(tmp_path / "scan.csv"),
            ],
            capsys,
        )
        assert any("boundary" in warning for warning in summary["warnings"])
        assert summary["caustic_fit"] is None


class TestFit:
    def test_bundled_dataset_pipeline(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        report = run_json(["fit", "--curve-output", str(curve)], capsys)
        parameters = report["parameters"]
        assert 335e-9 < parameters["w0_m"] < 365e-9
        assert 1.02 < parameters["m2"] < 1.13
        assert abs(parameters["direction_offset_m"] - 1.11e-6) < 0.05e-6
        assert report["scan_errors"] == []
        assert report["warnings"] == []
        assert len(report["points"]) == 50
        assert report["derived"]["rayleigh_range_m"] == pytest.approx(
            math.pi * parameters["w0_m"] ** 2 / 369.5e-9, rel=1e-9
        )
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "z_m,w_m"
        assert len(lines) == 1 + 201

    def test_single_scan_file_reports_one_waist(self, tmp_path, capsys):
        scan = synthetic_knife_edge_scan(z=2e-6, w=350e-9, n_positions=40)
        path = tmp_path / "single.csv"
        write_scan_csv(path, scan)
        report = run_json(["fit", "--input", str(path)], capsys)
        assert report["w_m"] == pytest.approx(350e-9, rel=1e-6)
        assert report["z_m"] == 2e-6
        assert report["direction"] == "in"

    def test_malformed_header_exits_2_naming_column(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("z_m,blade_m,power,direction\n0,0,1,in\n")
        code = main(["fit", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "blade_position_m" in captured.err

    def test_degenerate_scan_exits_3(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = ["z_m,direction", "0,in", "blade_position_m,power"]
        rows += [f"{x:.2e},0.5" for x in np.linspace(0, 1e-6, 12)]
        path.write_text("\n".join(rows) + "\n")
        code = main(["fit", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "rank-deficient" in captured.err


class TestCoupling:
    def test_reference_lens_budget(self, capsys):
        payload = run_json(["coupling"], capsys)
        assert payload["na"] == pytest.approx(0.6401843996644799, rel=1e-12)
        # exact lens aperture, slightly past the nominal 0.64
        assert payload["collection_fraction"] == pytest.approx(
            0.15524495854134157, rel=1e-9
        )
        assert payload["p_coll"] == pytest.approx(
            0.3 * payload["collection_fraction"], rel=1e-12
        )
        assert payload["p_coll"] == pytest.approx(0.0466, abs=1e-4)
        assert payload["p_coh"] < payload["p_coll"]
        assert payload["m_convention"] == "sqrt"

    def test_measured_beam_under_both_conventions(self, capsys):
        base = [
            "coupling",
            "--divergence-mrad",
            "348",
            "--m2",
            "1.08",
            "--eta",
            "0.30",
        ]
        sqrt_payload = run_json(base + ["--m-convention", "sqrt"], capsys)
        unity_payload = run_json(base + ["--m-convention", "unity"], capsys)
        assert sqrt_payload["p_coh"] == pytest.approx(
            0.006191312171932578, rel=1e-9
        )
        assert unity_payload["p_coh"] == pytest.approx(
            0.006676734927832574, rel=1e-9
        )
        assert unity_payload["effective_divergence_rad"] == pytest.approx(
            0.348 / math.sqrt(2), rel=1e-9
        )

    def test_doubling_eta_doubles_both_probabilities(self, capsys):
        low = run_json(["coupling", "--eta", "0.30"], capsys)
        high = run_json(["coupling", "--eta", "0.60"], capsys)
        assert high["p_coll"] == pytest.approx(2 * low["p_coll"], rel=1e-9)
        assert high["p_coh"] == pytest.approx(2 * low["p_coh"], rel=1e-9)

    def test_curve_outputs(self, tmp_path, capsys):
        collection = tmp_path / "collection.csv"
        fidelity = tmp_path / "fidelity.csv"
        payload = run_json(
            [
                "coupling",
                "--collection-curve",
                str(collection),
                "--fidelity-curve",
                str(fidelity),
                "--curve-steps",
                "11",
            ],
            capsys,
        )
        assert payload["collection_curve_csv"] == str(collection)
        lines = collection.read_text().strip().splitlines()
        assert lines[0] == "na,polar_sigma,equatorial_sigma,polar_pi"
        assert len(lines) == 12
        lines = fidelity.read_text().strip().splitlines()
        assert lines[0] == "na,fidelity,fidelity_series"
        assert len(lines) == 12


class TestFilter:
    def test_default_etalons(self, capsys):
        payload = run_json(["filter"], capsys)
        assert payload["pi_etalon"]["suppression_at_raman"] == pytest.approx(
            1014.2118364233777, rel=1e-9
        )
        assert payload["sigma_etalon"]["suppression_at_zeeman"] == pytest.approx(
            104.7528920497539, rel=1e-9
        )
        budget = payload["error_budget"]
        assert budget["combined_infidelity"] == pytest.approx(
            budget["pi_leakage"] + budget["polarization_error"], rel=1e-12
        )

    def test_fast_aperture_stays_under_one_percent(self, capsys):
        payload = run_json(["filter", "--na", "0.95"], capsys)
        assert payload["error_budget"]["combined_infidelity"] == pytest.approx(
            0.0015261175908346106, rel=1e-9
        )
        assert payload["error_budget"]["combined_infidelity"] < 0.01

    def test_sigma_etalon_can_be_dropped(self, capsys):
        payload = run_json(["filter", "--na", "0.95", "--no-sigma-etalon"], capsys)
        assert payload["sigma_etalon"] is None
        assert payload["error_budget"]["polarization_error"] > 0.01


class TestBudget:
    def test_default_array_report(self, capsys):
        payload = run_json(["budget"], capsys)
        assert payload["spacing_over_d"] == pytest.approx(
            7.826237921249264, rel=1e-12
        )
        assert payload["array_na"] == pytest.approx(0.7936120282694068, rel=1e-12)
        fault = payload["fault_tolerance"]
        assert fault["p_coll"] == pytest.approx(0.0816, rel=1e-9)
        assert fault["pass"] is True
        assert fault["detected_fraction"] == pytest.approx(
            0.2 * fault["p_coll"], rel=1e-12
        )
        networking = payload["networking"]
        assert networking["p_coh"] == pytest.approx(0.04897111763813987, rel=1e-9)
        assert networking["rate_gain"] >= 200
        assert payload["filter_budget_at_array_na"]["combined_infidelity"] < 0.01

    def test_microlens_comparison_fails_threshold(self, capsys):
        payload = run_json(["budget", "--check-na", "0.3", "--check-eta", "1.0"], capsys)
        fault = payload["fault_tolerance"]
        assert fault["p_coll"] == pytest.approx(0.034, abs=5e-4)
        assert fault["pass"] is False

    def test_spacing_scales_with_electrode_distance(self, capsys):
        small = run_json(["budget", "--electrode-distance-um", "50"], capsys)
        large = run_json(["budget", "--electrode-distance-um", "100"], capsys)
        assert large["detection_site_spacing_m"] == pytest.approx(
            2 * small["detection_site_spacing_m"], rel=1e-12
        )
        assert large["array_na"] == pytest.approx(small["array_na"], rel=1e-12)


class TestCurves:
    def test_etalon_curve(self, capsys):
        code = main(["curves", "--kind", "etalon", "--steps", "5"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "detuning_hz,transmission"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[1]) == 1.0
        half_fsr = lines[3].split(",")
        assert float(half_fsr[1]) == pytest.approx(1 / 1014.2118364233777, rel=1e-9)
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0, rel=1e-9)

    def test_collection_and_fidelity_kinds(self, capsys):
        code = main(["curves", "--kind", "collection", "--steps", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("na,polar_sigma")
        code = main(["curves", "--kind", "fidelity", "--steps", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("na,fidelity")


class TestSynth:
    def test_seeded_output_is_reproducible(self, capsys):
        argv = ["synth", "--seed", "123", "--z-steps", "3", "--n-blade", "10"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert main(["synth", "--seed", "124", "--z-steps", "3", "--n-blade", "10"]) == 0
        other = capsys.readouterr().out
        assert other != first

    def test_output_parses_into_scans(self, tmp_path, capsys):
        path = tmp_path / "scans.csv"
        code = main(
            [
                "synth",
                "--seed",
                "7",
                "--z-steps",
                "4",
                "--n-blade",
                "12",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        scans = read_scans_csv(path)
        assert len(scans) == 8
        assert {scan.direction for scan in scans} == {"in", "out"}

    def test_single_direction(self, tmp_path, capsys):
        path = tmp_path / "scans.csv"
        code = main(
            [
                "synth",
                "--seed",
                "7",
                "--z-steps",
                "4",
                "--n-blade",
                "12",
                "--directions",
                "in",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        assert len(read_scans_csv(path)) == 4


class TestShowConfig:
    def test_prints_resolved_defaults(self, capsys):
        code = main(["show-config"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == config_text(default_config())

    def test_round_trips_a_config_file(self, toy_config_path, capsys):
        code = main(["--config", toy_config_path, "show-config"])
        captured = capsys.readouterr()
        assert code == 0
        assert "focal_length_mm = 0.2" in captured.out
        assert "grid_points = 2048" in captured.out

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("focal_lenght_mm = 3.0\n")
        code = main(["--config", str(path), "show-config"])
        captured = capsys.readouterr()
        assert code == 2
        assert "focal_lenght_mm" in captured.err

    def test_non_finite_config_value_exits_2(self, tmp_path, capsys):
        cases = [
            ("focal_length_mm", "design"),
            ("aperture_diameter_mm", "design"),
            ("raman_shift_ghz", "filter"),
            ("zeeman_splitting_mhz", "filter"),
        ]
        for key, command in cases:
            path = tmp_path / f"{key}.cfg"
            path.write_text(f"{key} = inf\n")
            code = main(["--config", str(path), command])
            captured = capsys.readouterr()
            assert code == 2, (key, captured.err)
            assert key in captured.err
            assert "Traceback" not in captured.err
