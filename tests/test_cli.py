"""End-to-end command-line interface behavior (in-process; start-up in a fresh interpreter)."""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy.special import jn_zeros

from pflens import cli, clear_transform_cache, diffraction, hankel
from pflens.beamfit import (
    KnifeEdgeScan,
    bundled_caustic_dataset_path,
    fit_caustic,
    fit_scan,
    read_scans_csv,
    scans_csv_text,
    synthetic_knife_edge_scan,
)
from pflens.cli import build_parser, main
from pflens.config import ProjectConfig, config_text, default_config

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


def _subcommands() -> dict:
    """build_parser()'s subcommand parsers by name."""
    return next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )


# the least each subcommand needs to run, its side files kept in {dir}
_MINIMAL_ARGS = {
    "design": ["--zones-output", "{dir}/zones.csv"],
    "simulate": ["--scan-output", "{dir}/scan.csv"],
    "curves": ["--kind", "etalon"],
    "synth": ["--seed", "1"],
}


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

    @pytest.mark.parametrize("steps", [3, 4])
    def test_too_few_planes_for_the_caustic_fit_warns(
        self, steps, toy_config_path, tmp_path, capsys
    ):
        # the minimum is interior, but a caustic fit needs 5 planes
        argv = ["--config", toy_config_path, "simulate", "--z-min-um", "199", "--z-max-um", "201"]
        argv += ["--steps", str(steps), "--scan-output", str(tmp_path / "scan.csv")]
        summary = run_json(argv, capsys)
        assert 199e-6 < summary["best_focus_z_m"] < 201e-6
        assert summary["caustic_fit"] is None
        assert summary["warnings"] == [
            f"caustic fit skipped: {steps} planes; the fit needs at least 5"
        ]

    @pytest.mark.parametrize(
        "setting, n_min",
        [
            # the toy window, R = 1.2 x 150 um, at 854 nm: 2 R / lambda = 421.5
            ("grid_points = 64", 421),
            # 2 R / lambda = 3.5e11: a window no kernel that fits can reach
            ("grid_padding_factor = 1e9", None),
        ],
    )
    def test_grid_inside_the_light_cone_refused_before_kernel_build(
        self, tmp_path, capsys, monkeypatch, setting, n_min
    ):
        key = setting.split(" = ")[0]
        config = [line for line in TOY_CONFIG.splitlines() if not line.startswith(key)]
        path = tmp_path / "coarse.cfg"
        path.write_text("\n".join(config + [setting]) + "\n")
        built, filled = [], []

        class RecordingTransform(hankel.HankelTransform):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        class CountingRows(hankel._KernelRows):
            def __init__(self, *args, **kwargs):
                filled.append(args)
                super().__init__(*args, **kwargs)

        clear_transform_cache()
        monkeypatch.setattr(hankel, "HankelTransform", RecordingTransform)
        monkeypatch.setattr(hankel, "_KernelRows", CountingRows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--config", str(path), "simulate", "--scan-output", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical error: grid's band ") and err.count("\n") == 1, err
        assert f"grid_points >= {n_min or ''}" in err
        if n_min:
            roots = jn_zeros(0, n_min + 1) / built[0].max_radius
            assert roots[n_min - 1] < 2 * math.pi / 854e-9 <= roots[n_min]
        assert filled == []
        assert built and all(transform._row_blocks is None for transform in built)

    @pytest.mark.parametrize("ideal", [False, True], ids=["binary", "ideal"])
    def test_grid_too_large_for_memory_exits_3_before_any_work(
        self, tmp_path, capsys, monkeypatch, ideal
    ):
        # the parser accepts grid_points = 1000000: a 4 TB kernel, refused
        # before jn_zeros (about 3 s at this size) or any allocation
        path = tmp_path / "huge.cfg"
        path.write_text(TOY_CONFIG.replace("grid_points = 2048", "grid_points = 1000000"))
        monkeypatch.setattr(hankel, "_available_memory", lambda: 8 * 1024**3)
        clear_transform_cache()
        argv = ["--config", str(path), "simulate", "--scan-output", str(tmp_path / "s.csv")]
        started = time.perf_counter()
        code = main(argv + (["--ideal"] if ideal else []))
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        assert code == 3
        assert "1000000-point grid needs a 4,002.05 GB transform kernel" in err
        assert "grid_points <= 44614 fits" in err
        assert "Traceback" not in err
        assert elapsed < 1.0

    @staticmethod
    def refused_scans_fill_nothing(monkeypatch) -> list:
        """Fail a test at the first transfer or kernel fill table a scan makes; the tables made."""

        def no_transfer(*args):
            raise AssertionError("a refused scan made its transfer")

        class RecordingRows(hankel._KernelRows):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        made = []
        monkeypatch.setattr(diffraction, "_transfer", no_transfer)
        monkeypatch.setattr(hankel, "_KernelRows", RecordingRows)
        return made

    def test_scan_too_large_for_memory_refused_on_both_sides(
        self, toy_config_path, tmp_path, capsys, monkeypatch
    ):
        # with 5 MB free beside the tile buffers of the toy grid's first pass,
        # the refusal names the largest scan_steps that fits: one more is
        # refused before its transfer is made or any kernel tile filled, and
        # that many runs
        available = hankel._MEMORY_HEADROOM_BYTES + hankel._first_pass_bytes(2048) + 5 * 10**6
        monkeypatch.setattr(hankel, "_available_memory", lambda: available)
        clear_transform_cache()
        argv = ["--config", toy_config_path, "simulate", "--scan-output", str(tmp_path / "s.csv")]
        with monkeypatch.context() as refusing:
            made = self.refused_scans_fill_nothing(refusing)
            assert main(argv + ["--steps", "1000"]) == 3
            largest = int(capsys.readouterr().err.split("scan_steps <= ")[1].split()[0])
            # 5 MB over 122,880 bytes a plane
            assert largest == 40
            assert main(argv + ["--steps", str(largest + 1)]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"numerical error: a {largest + 1}-plane scan needs ")
            assert f"scan_steps <= {largest} fits" in err and "Traceback" not in err
            assert made == [] and hankel._transform._passes == 0
        summary = run_json(argv + ["--steps", str(largest)], capsys)
        assert summary["warnings"] == []
        assert len((tmp_path / "s.csv").read_text().splitlines()) == largest + 1

    @pytest.mark.parametrize("key", ["scan_steps", "--steps"])
    def test_vast_scan_refused_quickly(self, tmp_path, capsys, monkeypatch, key):
        # 100000 toy planes need about 12 GB, and would take about 200 s to
        # run: refused at once, before the transfer or any kernel tile
        path = tmp_path / "vast.cfg"
        config = [line for line in TOY_CONFIG.splitlines() if not line.startswith(key)]
        flags = [key, "100000"] if key.startswith("--") else []
        path.write_text("\n".join(config + ([] if flags else [f"{key} = 100000"])) + "\n")
        monkeypatch.setattr(hankel, "_available_memory", lambda: 8 * 1024**3)
        made = self.refused_scans_fill_nothing(monkeypatch)
        clear_transform_cache()
        argv = ["--config", str(path), "simulate", "--scan-output", str(tmp_path / "s.csv")]
        started = time.perf_counter()
        code = main(argv + flags)
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical error: a 100000-plane scan needs "), err
        assert "scan_steps <= " in err and "Traceback" not in err
        assert made == []
        assert elapsed < 2.0


    @pytest.mark.parametrize(
        "setting",
        [
            "grid_points = 1000000000000",
            "grid_points = 10000000000000000000",
            "grid_padding_factor = 1e9",
            "grid_padding_factor = 1e300",
            "grid_padding_factor = 1e308",
            pytest.param("grid_points = 1" + "0" * 400, id="grid_points = 10**400"),
        ],
    )
    def test_vast_grid_refused_quickly(self, tmp_path, capsys, monkeypatch, setting):
        # sizing these refusals takes closed-form kernel bytes: summing them
        # block by block over 10^12 points, or over the 10^13 points a 10^9
        # padding needs, hangs; 10^19 points is past a range's length; the
        # kernel bytes at 10^300 padding, and the point count at 10^308,
        # overflow a float, and so does a 401-digit point count
        key = setting.split(" = ")[0]
        config = [line for line in TOY_CONFIG.splitlines() if not line.startswith(key)]
        path = tmp_path / "vast.cfg"
        path.write_text("\n".join(config + [setting]) + "\n")
        monkeypatch.setattr(hankel, "_available_memory", lambda: 8 * 1024**3)
        clear_transform_cache()
        started = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--config", str(path), "simulate", "--scan-output", str(tmp_path / "s.csv")])
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert elapsed < 2.0

    @pytest.mark.parametrize("key", ["fine_points", "blade_positions", "scan_steps", "--steps"])
    def test_arrays_too_large_to_allocate_exit_3(self, tmp_path, capsys, key):
        # 10**15 samples or planes: the refused allocation is named, not a traceback
        path = tmp_path / "vast.cfg"
        config = [line for line in TOY_CONFIG.splitlines() if not line.startswith(key)]
        flags = []
        if key.startswith("--"):
            flags = [key, "1000000000000000"]
        else:
            config.append(f"{key} = 1000000000000000")
        path.write_text("\n".join(config) + "\n")
        argv = ["--config", str(path), "simulate", "--scan-output", str(tmp_path / "s.csv")]
        code = main(argv + flags)
        err = capsys.readouterr().err
        assert code == 3, err
        assert "Traceback" not in err
        assert err.startswith("numerical error: Unable to allocate"), err

    def test_memory_error_without_a_message_exits_3(self, capsys, monkeypatch):
        def exhausted():
            raise MemoryError

        monkeypatch.setattr(cli, "default_config", exhausted)
        assert main(["show-config"]) == 3
        assert capsys.readouterr().err == "numerical error: out of memory\n"

    def test_scan_flags_refused_by_name(self, toy_config_path, tmp_path, capsys):
        # a plane that is not finite, or whose phase k z is past 2^52 rad, is
        # named as such, not as the non-finite field it would propagate to
        cases = [
            (["--z-min-um", "nan"], "z_positions must be finite"),
            (["--z-min-um", "inf"], "z_positions must be finite"),
            (["--z-max-um", "nan"], "--z-max-um, the last of the z_positions must be finite"),
            (["--z-max-um", "1e308"], "at most 6.12e+08 m, where the propagation phase"),
            (["--steps", "-1"], "--steps must be >= 1, got -1"),
        ]
        for flags, message in cases:
            argv = ["--config", toy_config_path, "simulate", *flags]
            code = main(argv + ["--scan-output", str(tmp_path / "s.csv")])
            err = capsys.readouterr().err
            assert code == 2, (flags, err)
            assert message in err, (flags, err)

    def test_field_without_power_refused(self, tmp_path, capsys):
        # a 1 pm waist leaves every collocation sample of the beam at zero
        path = tmp_path / "dark.cfg"
        path.write_text(TOY_CONFIG.replace("input_waist_mm = 0.075", "input_waist_mm = 1e-9"))
        code = main(["--config", str(path), "simulate", "--scan-output", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "field carries no power" in err


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
        rows = ["z_m,direction", "2e-06,in", "blade_position_m,power"]
        rows += [f"{x:.17g},{p:.17g}" for x, p in zip(scan.blade_positions, scan.powers)]
        path.write_text("\n".join(rows) + "\n")
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

    def test_blade_span_beyond_the_float_range_exits_2_without_a_warning(self, tmp_path, capsys):
        # five scans whose blade positions run from -1e308 to 1e308 m: max - min overflows
        rows = ["z_m,blade_position_m,power,direction"]
        for z in range(5):
            rows += [f"{z}e-6,{(2 * k - 11) / 11 * 1e308!r},{1 - k / 11!r},in" for k in range(12)]
        path = tmp_path / "scans.csv"
        path.write_text("\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["fit", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: the blade positions' span must be within |min| + |max| <= 1e+300 m, "
            "got -1e+308 to 1e+308 m\n"
        )


    def test_flat_scan_reported_alone_and_left_out_of_the_caustic(self, tmp_path, capsys):
        scans = read_scans_csv(bundled_caustic_dataset_path())
        flat = scans[7]
        scans[7] = KnifeEdgeScan(
            z=flat.z, blade_positions=flat.blade_positions,
            powers=np.full(flat.powers.size, 0.5), direction=flat.direction,
        )
        path = tmp_path / "scans.csv"
        path.write_text(scans_csv_text(scans))
        report = run_json(["fit", "--input", str(path)], capsys)
        assert report["scan_errors"] == [
            {
                "scan_index": 7,
                "error": "rank-deficient scan: transmitted power is constant, no edge to fit",
            }
        ]
        good = [fit_scan(scan) for index, scan in enumerate(scans) if index != 7]
        expected = fit_caustic(good, default_config().wavelength)
        assert report["parameters"] == {
            "w0_m": expected.w0,
            "m2": expected.m2,
            "z0_m": expected.z0,
            "direction_offset_m": expected.direction_offset,
        }
        assert report["covariance"] == expected.covariance.tolist()
        assert [point["w_m"] for point in report["points"]] == [point.w for point in good]

    @pytest.mark.parametrize("scale", [1e160, 1e-165])
    def test_waists_whose_squares_leave_the_float_range_refused(self, tmp_path, capsys, scale):
        # a caustic sampled at waists near 1e160 m or 1e-165 m: w0^2 is not a float
        scans = [
            synthetic_knife_edge_scan(z=z, w=scale * math.sqrt(1 + (z / 1e-6) ** 2), direction=d)
            for z in np.linspace(-3e-6, 3e-6, 7)
            for d in ("in", "out")
        ]
        path = tmp_path / "scans.csv"
        path.write_text(scans_csv_text(scans))
        code = main(["fit", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert "a caustic fit's waists must be in [1e-150, 1e+150] m" in captured.err

    @pytest.mark.parametrize(
        "z, w",
        [
            # waists from 1e-100 to 1e100 m: (w / smallest w)^2 overflows
            (np.linspace(-2e-6, 2e-6, 6), np.logspace(-100, 100, 6)),
            # scans at z = +-1e308 m: z.max() - z.min() overflows
            ([-1e308, -5e307, 0.0, 5e307, 1e308], np.full(5, 1e-6)),
        ],
        ids=["waist_ratio", "z_span"],
    )
    def test_overflowing_caustic_input_exits_2_without_a_warning(self, tmp_path, capsys, z, w):
        scans = [synthetic_knife_edge_scan(z=float(a), w=float(b)) for a, b in zip(z, w)]
        path = tmp_path / "scans.csv"
        path.write_text(scans_csv_text(scans))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: a caustic fit's"), lines


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

    @pytest.mark.parametrize("kind", ["collection", "fidelity", "etalon"])
    @pytest.mark.parametrize("steps", ["0", "1"])
    def test_fewer_than_two_steps_refused(self, capsys, kind, steps):
        code = main(["curves", "--kind", kind, "--steps", steps])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "n_steps must be >= 2" in captured.err

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


    def test_negative_seed_refused(self, capsys):
        code = main(["synth", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--seed must be >= 0" in captured.err


    def test_noise_that_would_overflow_the_samples_refused(self, capsys):
        # 1e308 W scaled by 1 + 1e9 z overflows: refused before the product
        code = main(["synth", "--seed", "1", "--total-power", "1e308", "--noise", "1e9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "|total_power| + |background| must be <= 4.49e+297" in captured.err
        assert "at noise_fraction 1e+09, got 1e+308" in captured.err


class TestFileErrors:
    # an unreadable input or config, or an unwritable output, exits 2 naming
    # the path and the reason, never with a traceback
    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["fit", "--input", "{dir}/missing.csv"], "No such file or directory"),
            (["fit", "--input", "{dir}"], "Is a directory"),
            (["--config", "{dir}/missing.cfg", "design"], "No such file or directory"),
            (["design", "--zones-output", "{dir}/zones.csv", "--output", "{dir}"], "Is a directory"),
            (["synth", "--seed", "1", "--output", "{dir}/no/scans.csv"], "No such file or directory"),
        ],
    )
    def test_path_errors_exit_2_naming_the_path(self, tmp_path, capsys, argv, reason):
        argv = [arg.format(dir=tmp_path) for arg in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        path = [arg for arg in argv if str(tmp_path) in arg][-1]
        assert f"error: {path}: {reason}" in captured.err

    @pytest.mark.parametrize(
        "argv", [["fit", "--input", "{path}"], ["--config", "{path}", "design"]]
    )
    def test_non_utf8_input_exits_2_naming_the_path(self, tmp_path, capsys, argv):
        path = tmp_path / "binary"
        path.write_bytes(b"\x7fELF\x02\x01\x01\x00z_m,\xd0\x00\xff\xfe\n")
        code = main([arg.format(path=path) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {path}: not UTF-8 text (invalid continuation byte at byte 12)"
        ]

    def test_unwritable_scan_output_exits_2(self, toy_config_path, tmp_path, capsys):
        path = tmp_path / "no" / "scan.csv"
        code = main(["--config", toy_config_path, "simulate", "--scan-output", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"error: {path}: No such file or directory" in captured.err


class TestShell:
    # main reads the config and writes the report for every subcommand alike
    @pytest.mark.parametrize("command", sorted(_subcommands()))
    def test_output_file_holds_what_stdout_shows(self, toy_config_path, tmp_path, capsys, command):
        config = ["--config", toy_config_path] if command == "simulate" else []
        argv = [*config, command] + [a.format(dir=tmp_path) for a in _MINIMAL_ARGS.get(command, [])]
        assert main(argv) == 0
        shown = capsys.readouterr().out
        report = tmp_path / "report.out"
        assert main([*argv, "--output", str(report)]) == 0
        assert capsys.readouterr().out == ""
        assert shown and report.read_text() == shown

    @pytest.mark.parametrize("command", sorted(_subcommands()))
    def test_missing_config_exits_2_with_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "missing.cfg"
        rest = [a.format(dir=tmp_path) for a in _MINIMAL_ARGS.get(command, [])]
        code = main(["--config", str(path), command, *rest])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {path}: No such file or directory"]


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

    def test_design_refuses_an_infinite_f_number_or_etch_depth(self, tmp_path, capsys):
        # both reports held Infinity: f / D overflows for D = 1e-323 m, and
        # lam / (2 (n - 1)) for lam = 1e299 m over n - 1 = 2.2e-16
        cases = [
            ("aperture_diameter_mm = 1e-320\n", "the f-number must be finite"),
            (
                "wavelength_nm = 1e308\nsubstrate_index = 1.0000000000000002\n",
                "etch_depth must be finite",
            ),
        ]
        for text, message in cases:
            path = tmp_path / "edge.cfg"
            path.write_text(text)
            code = main(["--config", str(path), "design", "--zones-output", str(tmp_path / "z.csv")])
            captured = capsys.readouterr()
            assert code == 2, (text, captured.err)
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert message in captured.err, captured.err

    def test_design_with_too_many_zones_exits_2(self, tmp_path, capsys):
        # 1e300 mm overflowed the ring count; 1e-300 nm asked for ~1e306 rings
        for key, value in (("aperture_diameter_mm", "1e300"), ("wavelength_nm", "1e-300")):
            path = tmp_path / f"{key}.cfg"
            path.write_text(f"{key} = {value}\n")
            code = main(["--config", str(path), "design"])
            captured = capsys.readouterr()
            assert code == 2, (key, captured.err)
            assert "zones" in captured.err
            assert "Traceback" not in captured.err


# every float and int flag of the cheap subcommands, one at a time, at each
# edge value; each subcommand runs on the arguments it needs and its defaults
_SWEEP_FLOATS = ["nan", "inf", "0", "-1", "1e-320", "1e308", "0.5", "2", "1e9"]
# no large ints that would fit in memory (synth --z-steps 10**8 alone would
# write 2e8 scans); an array of 10**15 float64 values exceeds any address
# space, so its allocation is refused on every host
_SWEEP_INTS = ["0", "-1", "1", "2", "3", "1000000000000000"]
# (command, base arguments, id prefix); --finesse and --fsr-ghz act only on
# the etalon curve, and are checked at every kind
_SWEEP_BASES = [
    ("coupling", [], "coupling"),
    ("filter", [], "filter"),
    ("budget", [], "budget"),
    ("curves", ["--kind", "etalon"], "curves"),
    ("curves", ["--kind", "collection"], "curves collection"),
    ("curves", ["--kind", "fidelity"], "curves fidelity"),
    ("synth", ["--seed", "1"], "synth"),
    ("fit", [], "fit"),
]


# subcommands whose report is JSON; curves and synth write CSV, show-config a config
_JSON_COMMANDS = ("design", "simulate", "fit", "coupling", "filter", "budget")


def _strict_json(text: str) -> dict:
    """Parse a report, refusing the Infinity and NaN that json.dumps writes for inf and nan."""

    def refuse(constant):
        raise AssertionError(f"report holds {constant}, which is not JSON")

    return json.loads(text, parse_constant=refuse)


def _sweep_cases():
    subcommands = _subcommands()
    cases = []
    for command, base, prefix in _SWEEP_BASES:
        for action in subcommands[command]._actions:
            if action.type not in (float, int):
                continue
            flag = action.option_strings[-1]
            # a swept flag replaces its own entry in the base arguments
            rest = base[2:] if base[:1] == [flag] else base
            values = _SWEEP_FLOATS if action.type is float else _SWEEP_INTS
            cases.append(pytest.param(command, rest, flag, values, id=f"{prefix} {flag}"))
    return cases


class TestEdgeValueSweep:
    @pytest.mark.parametrize("command, base, flag, values", _sweep_cases())
    def test_flag_exits_cleanly_at_every_edge_value(self, capsys, command, base, flag, values):
        for value in values:
            argv = [command, *base, flag, value]
            try:
                code = main(argv)
            except SystemExit as stop:
                # argparse refuses a value it cannot parse with exit 2; any
                # other exception out of main is a traceback and fails the test
                code = stop.code
            out, err = capsys.readouterr()
            assert code in (0, 2, 3), (argv, code, err)
            if value == "nan":
                assert code != 0, argv
            if code == 0 and command in _JSON_COMMANDS:
                _strict_json(out)

    def test_refusals_name_the_value(self, capsys):
        cases = [
            (["filter", "--finesse-pi", "1e308"], "1e+308"),
            (["filter", "--fsr-pi-ghz", "1e-320"], "free spectral ranges of 9.99"),
            (["filter", "--fsr-sigma-mhz", "1e-320"], "free spectral ranges of 9.99"),
            (["synth", "--seed", "1", "--w0-nm", "1e308"], "1e+299"),
            (["synth", "--seed", "1", "--z-steps", "-1"], "--z-steps must be >= 1, got -1"),
            (["synth", "--seed", "1", "--z-steps", "0"], "--z-steps must be >= 1, got 0"),
            (["synth", "--seed", "1", "--noise", "nan"], "noise_fraction must be finite"),
            (["synth", "--seed", "1", "--m2", "1e308"], "m2 1e+308 at wavelength"),
            (["synth", "--seed", "1", "--wavelength-nm", "inf"], "wavelength must be finite"),
            (["synth", "--seed", "1", "--z-half-range-um", "1e308"], "|z - z0| = 1e+302 m"),
            (["synth", "--seed", "1", "--z-half-range-um", "nan"], "--z-half-range-um must be finite"),
            (["synth", "--seed", "1", "--span-factor", "inf"], "span_factor must be finite and > 0"),
            (["synth", "--seed", "1", "--noise", "1e308"], "in [0, 1e+150], got 1e+308"),
            (["curves", "--kind", "collection", "--finesse", "nan"], "finesse"),
            (["curves", "--kind", "fidelity", "--fsr-ghz", "nan"], "free_spectral_range"),
            (["fit", "--wavelength-nm", "inf"], "wavelength inf m"),
            (["fit", "--wavelength-nm", "1e308"], "wavelength 1e+299 m"),
            (["coupling", "--m2", "inf"], "m2 must be finite, got inf"),
            # (p_coh / reference)^2 overflows, or the ratio itself does
            (["budget", "--reference-p-coh", "1e-200"], "p_coh_new / p_coh_ref must be small"),
            (["budget", "--reference-p-coh", "1e-300"], "/ 1e-300"),
            (["budget", "--reference-p-coh", "1e-320"], "/ 9.99989e-321"),
        ]
        for argv, message in cases:
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2, (argv, captured.err)
            assert captured.out == ""
            assert message in captured.err, (argv, captured.err)

    def test_vanishing_aperture_has_full_fidelity(self, capsys):
        # the captured weight underflows to zero; the NA -> 0 limit is exact
        for argv in (
            ["coupling", "--na", "1e-320"],
            ["coupling", "--divergence-mrad", "1e-320"],
            ["budget", "--focal-factor", "1e308"],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, (argv, captured.err)
            if argv[0] == "coupling":
                assert json.loads(captured.out)["polarization_fidelity"] == 1.0


# every float and int key of the config, one at a time, at the flags' edge values;
# the ints also at 100000, a scan_steps refused for memory on the toy lens
# (TestSimulate) and cheap for every other int key
_CONFIG_KEY_CASES = [
    pytest.param(
        spec.name,
        _SWEEP_FLOATS if spec.type in ("float", float) else _SWEEP_INTS + ["100000"],
        id=spec.name,
    )
    for spec in fields(ProjectConfig)
    if spec.type in ("float", float, "int", int)
]


class TestConfigEdgeSweep:
    @pytest.mark.parametrize("key, values", _CONFIG_KEY_CASES)
    def test_key_exits_cleanly_at_every_edge_value(
        self, tmp_path, capsys, monkeypatch, key, values
    ):
        # the default grid's kernel (0.86 GB at 14400 points) does not fit in
        # 1 GiB less the headroom, so simulate builds the lens and its zone
        # layout, then refuses the grid
        budget = 1024**3 - hankel._MEMORY_HEADROOM_BYTES
        assert hankel._kernel_bytes(default_config().grid_points) > budget
        monkeypatch.setattr(hankel, "_available_memory", lambda: 1024**3)
        path = tmp_path / "edge.cfg"
        commands = [
            ["design", "--zones-output", str(tmp_path / "zones.csv")],
            ["show-config"],
            ["simulate", "--steps", "3", "--scan-output", str(tmp_path / "scan.csv")],
        ]
        for value in values:
            path.write_text(f"{key} = {value}\n")
            for command in commands:
                argv = ["--config", str(path), *command]
                code = main(argv)
                out, err = capsys.readouterr()
                assert code in (0, 2, 3), (key, value, command, code, err)
                assert "Traceback" not in err
                if value == "nan":
                    assert code != 0, (key, command)
                if code == 0 and command[0] in _JSON_COMMANDS:
                    _strict_json(out)


def _fresh_interpreter(probe: str) -> str:
    """stderr of a fresh interpreter running probe with this checkout's pflens on the path."""
    import pflens

    source = str(Path(pflens.__file__).resolve().parents[1])
    path = os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stderr.strip()


def _loaded_scipy_modules(statement: str, modules=("scipy.optimize", "scipy.integrate")) -> str:
    """Which of modules a fresh interpreter holds after statement."""
    return _fresh_interpreter(
        f"import sys, pflens, pflens.cli; {statement}; print(sorted(m for m in "
        f"{modules!r} if m in sys.modules), file=sys.stderr)"
    )


class TestStartup:
    def test_import_loads_neither_scipy_optimize_nor_integrate(self):
        # every command pays the import; the fits must not bring these two in
        # (about a third of the start-up time), and the quadrature checks that
        # need scipy.integrate live in tests/quadrature_oracles.py
        assert _loaded_scipy_modules("pass") == "[]"

    def test_coupling_loads_neither(self):
        # the collected fidelity is a fixed Gauss-Legendre rule, not a quadrature
        # from scipy.integrate
        assert _loaded_scipy_modules("pflens.cli.main(['coupling'])") == "[]"

    def test_every_command_but_simulate_runs_without_scipy_special(self, tmp_path):
        # scipy.special doubles the start-up time and memory; only the Hankel
        # transform's Bessel functions need it. With it blocked, importing it
        # raises ImportError, so each command here must run without it
        commands = [
            ["fit", "--curve-output", str(tmp_path / "curve.csv")],
            ["synth", "--seed", "1"],
            ["design", "--zones-output", str(tmp_path / "zones.csv")],
            ["coupling"],
            ["filter"],
            ["budget"],
            ["curves", "--kind", "collection"],
            ["curves", "--kind", "fidelity"],
            ["curves", "--kind", "etalon"],
            ["show-config"],
        ]
        codes = _fresh_interpreter(
            "import sys\n"
            "sys.modules['scipy.special'] = None\n"
            "import pflens.cli\n"
            f"codes = [pflens.cli.main(argv) for argv in {commands!r}]\n"
            "print(codes, file=sys.stderr)"
        )
        assert codes == str([0] * len(commands))
        assert (tmp_path / "curve.csv").stat().st_size > 0
        assert (tmp_path / "zones.csv").stat().st_size > 0

    def test_building_a_transform_loads_scipy_special(self):
        # the boundary: the import leaves scipy.special out, the first
        # transform built brings it in
        special = ("scipy.special",)
        assert _loaded_scipy_modules("pass", special) == "[]"
        built = "pflens.HankelTransform(n_points=64, max_radius=1e-3)"
        assert _loaded_scipy_modules(built, special) == "['scipy.special']"
