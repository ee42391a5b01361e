"""Round-trip a knife-edge beam characterization on synthetic data.

Generates noisy blade scans along a focused beam, fits each scan to the
knife-edge response, fits the resulting waists to the caustic model,
and reports waist, M2, and the blade-direction offset with
uncertainties. Also runs the bundled measured-style dataset.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from pflens.beamfit import (
    bundled_caustic_dataset_path,
    fit_caustic,
    fit_scan,
    read_scans_csv,
    scans_csv_text,
    synthetic_caustic_scans,
)

WAVELENGTH = 369.5e-9
TRUE_W0 = 350e-9
TRUE_M2 = 1.08
TRUE_OFFSET = 1.11e-6


def report(fit, label):
    print(f"{label}:")
    print(f"  w0     {fit.w0 * 1e9:8.2f} +- {fit.w0_uncertainty * 1e9:.2f} nm")
    print(f"  M2     {fit.m2:8.4f} +- {fit.m2_uncertainty:.4f}")
    print(f"  z0     {fit.z0 * 1e6:8.3f} +- {fit.z0_uncertainty * 1e6:.3f} um")
    print(f"  offset {fit.direction_offset * 1e6:8.3f} +- "
          f"{fit.direction_offset_uncertainty * 1e6:.3f} um")
    for warning in fit.warnings:
        print(f"  note: {warning}")


def main():
    rng = np.random.default_rng(42)
    z_grid = np.linspace(-20e-6, 20e-6, 25)
    scans = synthetic_caustic_scans(
        z_grid,
        TRUE_W0,
        TRUE_M2,
        WAVELENGTH,
        direction_offset=TRUE_OFFSET,
        noise_fraction=0.01,
        rng=rng,
    )
    Path("demo_knife_edge_scans.csv").write_text(scans_csv_text(scans))
    print(f"synthesized {len(scans)} blade scans "
          f"(w0 {TRUE_W0 * 1e9:.0f} nm, M2 {TRUE_M2}, offset {TRUE_OFFSET * 1e6:.2f} um, "
          "1 % power noise) -> demo_knife_edge_scans.csv")

    points = [fit_scan(scan) for scan in read_scans_csv("demo_knife_edge_scans.csv")]
    fit = fit_caustic(points, WAVELENGTH)
    report(fit, "recovered from synthetic scans")

    bundled_scans = read_scans_csv(bundled_caustic_dataset_path())
    bundled = fit_caustic([fit_scan(scan) for scan in bundled_scans], WAVELENGTH)
    report(bundled, "\nbundled dataset")


if __name__ == "__main__":
    main()
