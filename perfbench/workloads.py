"""The four workloads over the hankel -> diffraction -> beamfit path.

Each workload makes all of its inputs from the benchmark seed during
set-up; pflens receives only those inputs. ``before_op`` runs untimed
between ops, ``op`` is the timed call sequence and ``check`` verifies
its output against the bands in checks.py. Every pflens function is
looked up on its module at call time, so the tracer's patches see it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks
from pflens import beamfit, cli, design, diffraction, hankel
from pflens.config import default_config
from pflens.errors import NumericalError

# distinct seeded inputs made per run; ops cycle through them
INPUT_VARIANTS = 16
# seeded shift of the reference z window (focus at f = 3 mm, window f +- 2 um)
REFERENCE_Z_SHIFT_UM = 0.5
# criterion 03's toy lens and grids
TOY_LENS = dict(focal_length=200e-6, clear_aperture_diameter=300e-6, design_wavelength=854e-9)
TOY_GRID_RADIUS = 400e-6
TOY_INPUT_WAIST = 75e-6
TOY_GRID_POINTS = (2048, 4096, 8192)
TOY_Z_WINDOW_UM = (198.0, 202.0)
TOY_Z_SHIFT_UM = 0.25
TOY_PLANES = 9
TOY_FINE_POINTS = 256
# fit_scans inputs: criterion 05's z grid, 60-blade scans, 1 % power noise
SYNTHETIC_DATASETS = 7
SCAN_Z_HALF_RANGE = 20e-6
SCAN_Z_STEPS = 25
SCAN_BLADES = 60
SCAN_NOISE = 0.01


def run_cli(argv: list[str]) -> int:
    """`pflens` exit code for argv; argparse rejections exit through SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as error:
        return error.code


def kernel_bytes(n_points: int) -> int:
    """Bytes of one dense N x N float64 transform kernel."""
    return 8 * n_points**2


class SimulateCold:
    """`pflens simulate` with the default config, transform cache emptied per op."""

    name = "simulate_cold"
    peak_kernel_bytes = kernel_bytes(default_config().grid_points)

    def __init__(self, rng: np.random.Generator, workdir: Path):
        config = default_config()
        focus_um = config.focal_length_mm * 1e3
        half_um = config.scan_half_width_um
        self.output = workdir / "simulate.json"
        self.argvs = [
            [
                "simulate",
                "--z-min-um", repr(float(focus_um - half_um + shift)),
                "--z-max-um", repr(float(focus_um + half_um + shift)),
                "--scan-output", str(workdir / "focal_scan.csv"),
                "--output", str(self.output),
            ]
            for shift in rng.uniform(-REFERENCE_Z_SHIFT_UM, REFERENCE_Z_SHIFT_UM, INPUT_VARIANTS)
        ]

    def before_op(self) -> None:
        hankel.clear_transform_cache()

    def op(self, index: int):
        return run_cli(self.argvs[index % len(self.argvs)])

    def check(self, exit_code) -> list[str]:
        if exit_code != 0:
            return [f"simulate exited {exit_code}"]
        return checks.check_focal_report(json.loads(self.output.read_text()), "binary")

    def close(self) -> None:
        hankel.clear_transform_cache()


class VerifyWarm:
    """Binary lens (exact) and ideal control (paraxial) on one grid built in set-up."""

    name = "verify_warm"
    peak_kernel_bytes = kernel_bytes(default_config().grid_points)

    def __init__(self, rng: np.random.Generator, workdir: Path):
        config = self.config = default_config()
        self.lens = config.lens_design()
        self.truncation = min(
            config.truncation_waists * config.input_waist,
            self.lens.clear_aperture_diameter / 2.0,
        )
        self.grid = (config.grid_points, config.grid_padding_factor * self.truncation)
        hankel.get_transform(*self.grid)
        self.layout = design.zone_layout(self.lens).truncated(self.truncation)
        focus = self.lens.focal_length
        half = config.scan_half_width
        self.windows = [
            np.linspace(focus - half + shift, focus + half + shift, config.scan_steps)
            for shift in 1e-6 * rng.uniform(-REFERENCE_Z_SHIFT_UM, REFERENCE_Z_SHIFT_UM, INPUT_VARIANTS)
        ]

    def before_op(self) -> None:
        pass

    def _scan(self, transmitted, z_positions, input_power: float, paraxial: bool) -> dict:
        # mirrors `pflens simulate`: focal scan, then a caustic fit when the
        # waist minimum is interior
        config = self.config
        scan = diffraction.scan_field(
            transmitted,
            z_positions,
            input_power=input_power,
            n_blade_positions=config.blade_positions,
            fine_points=config.fine_points,
            paraxial=paraxial,
        )
        report = {"best_waist_m": scan.best_waist, "caustic_fit": None, "warnings": []}
        if not scan.has_interior_minimum():
            report["warnings"].append("waist minimum sits on the scan boundary")
            return report
        points = [
            beamfit.WaistPoint(z=float(z), w=float(w), w_uncertainty=float(s), direction="in")
            for z, w, s in zip(scan.z_positions, scan.fitted_waists, scan.waist_uncertainties)
        ]
        try:
            fit = beamfit.fit_caustic(points, config.wavelength)
        except NumericalError as error:
            report["warnings"].append(f"caustic fit failed: {error}")
            return report
        report["caustic_fit"] = {"parameters": {"w0_m": fit.w0, "m2": fit.m2}}
        return report

    def op(self, index: int):
        config = self.config
        transform = hankel.get_transform(*self.grid)
        beam = diffraction.gaussian_beam(transform, config.input_waist, config.wavelength)
        power = beam.power()
        z_positions = self.windows[index % len(self.windows)]
        binary = diffraction.apply_binary_pfl(beam, self.layout)
        control = diffraction.apply_ideal_lens(
            beam, self.lens.focal_length, self.truncation, paraxial=True
        )
        return (
            self._scan(binary, z_positions, power, paraxial=False),
            self._scan(control, z_positions, power, paraxial=True),
        )

    def check(self, reports) -> list[str]:
        binary, control = reports
        return checks.check_focal_report(binary, "binary") + checks.check_control(control)

    def close(self) -> None:
        hankel.clear_transform_cache()


class ConvergenceToy:
    """Criterion 03's grid-convergence study of the toy lens, cache emptied per op."""

    name = "convergence_toy"
    # the transform cache holds all three grids by the end of an op
    peak_kernel_bytes = sum(kernel_bytes(n) for n in TOY_GRID_POINTS)

    def __init__(self, rng: np.random.Generator, workdir: Path):
        self.layout = design.zone_layout(design.LensDesign(**TOY_LENS))
        lo, hi = TOY_Z_WINDOW_UM
        self.windows = [
            ((lo + shift) * 1e-6, (hi + shift) * 1e-6)
            for shift in rng.uniform(-TOY_Z_SHIFT_UM, TOY_Z_SHIFT_UM, INPUT_VARIANTS)
        ]

    def before_op(self) -> None:
        hankel.clear_transform_cache()

    def op(self, index: int):
        window = self.windows[index % len(self.windows)]
        efficiencies = []
        for n_points in TOY_GRID_POINTS:
            transform = hankel.get_transform(n_points, TOY_GRID_RADIUS)
            field = diffraction.gaussian_beam(
                transform, TOY_INPUT_WAIST, TOY_LENS["design_wavelength"]
            )
            scan = diffraction.focal_scan(
                field, self.layout, window, TOY_PLANES, fine_points=TOY_FINE_POINTS
            )
            efficiencies.append(
                diffraction.efficiency_into_focus(scan, input_power=scan.transmitted_power)
            )
        return efficiencies

    def check(self, efficiencies) -> list[str]:
        return checks.check_convergence(efficiencies)

    def close(self) -> None:
        hankel.clear_transform_cache()


class FitScans:
    """`pflens fit` on the bundled dataset and seeded synthetic 50-scan datasets."""

    name = "fit_scans"
    peak_kernel_bytes = 0

    def __init__(self, rng: np.random.Generator, workdir: Path):
        wavelength = default_config().wavelength
        z_grid = np.linspace(-SCAN_Z_HALF_RANGE, SCAN_Z_HALF_RANGE, SCAN_Z_STEPS)
        self.output = workdir / "fit.json"
        self.inputs = [
            (
                beamfit.bundled_caustic_dataset_path(),
                {
                    "w0_m": checks.REFERENCE_W0_M,
                    "m2": checks.REFERENCE_M2,
                    "direction_offset_m": checks.REFERENCE_OFFSET_M,
                },
            )
        ]
        for index in range(SYNTHETIC_DATASETS):
            # synthetic sets are checked on w0 and M2; the direction-offset
            # band is checked on the bundled dataset only
            truth = {"w0_m": rng.uniform(330e-9, 370e-9), "m2": rng.uniform(1.03, 1.15)}
            scans = beamfit.synthetic_caustic_scans(
                z_grid,
                w0=truth["w0_m"],
                m2=truth["m2"],
                wavelength=wavelength,
                z0=rng.uniform(-2e-6, 2e-6),
                direction_offset=rng.uniform(0.9e-6, 1.3e-6),
                directions=("in", "out"),
                n_positions=SCAN_BLADES,
                noise_fraction=SCAN_NOISE,
                rng=rng,
            )
            path = workdir / f"scans_{index}.csv"
            path.write_text(beamfit.scans_csv_text(scans))
            self.inputs.append((path, truth))
        self.n_scans = 2 * SCAN_Z_STEPS
        self.order = rng.permutation(len(self.inputs))

    def before_op(self) -> None:
        pass

    def op(self, index: int):
        path, truth = self.inputs[self.order[index % len(self.order)]]
        return run_cli(["fit", "--input", str(path), "--output", str(self.output)]), truth

    def check(self, result) -> list[str]:
        exit_code, truth = result
        if exit_code != 0:
            return [f"fit exited {exit_code}"]
        report = json.loads(self.output.read_text())
        return checks.check_fit_report(report, truth, self.n_scans)

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (SimulateCold, VerifyWarm, ConvergenceToy, FitScans)}
