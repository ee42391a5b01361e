"""Design the reference lens and verify its focal spot by simulation.

Walks the full chain: zone layout and etch depth, scalar efficiency
with surface losses, then a knife-edge focal scan of the binary profile
against an ideal-lens control. Writes the zone table and both scan
curves as CSV next to this script's working directory.

Runtime is dominated by filling the 14400-point transform kernel: about
4 s and 0.95 GB peak memory on 2 CPUs. The binary scan is the
transform's first pass and keeps no kernel tile (about 560 MiB at its
peak), so the control's scan fills the whole kernel again and keeps it.
"""

from __future__ import annotations

import math

import numpy as np

from pflens.beamfit import WaistPoint, fit_caustic
from pflens.config import default_config
from pflens.design import (
    LensDesign,
    fresnel_plate_transmission,
    multilevel_efficiency,
    write_zone_csv,
    zone_layout,
)
from pflens.diffraction import (
    DEFAULT_CAPTURE_RADIUS_MULTIPLIER,
    apply_binary_pfl,
    apply_ideal_lens,
    efficiency_into_focus,
    focal_scan_csv_text,
    gaussian_beam,
    scan_field,
)
from pflens.geometry import LensGeometry, na_from_geometry, solid_angle_fraction
from pflens.hankel import clear_transform_cache, get_transform

FOCAL_LENGTH = 3e-3
APERTURE = 5e-3
WAVELENGTH = 369.5e-9
INPUT_WAIST = 1.1e-3
TRUNCATION = 2 * INPUT_WAIST
# the default grid: the fewest points whose band reaches the light cone,
# rounded up, on the default padding of the truncated beam
GRID_POINTS = default_config().grid_points
GRID_RADIUS = default_config().grid_padding_factor * TRUNCATION


def caustic_from_scan(scan, wavelength):
    points = [
        WaistPoint(z=z, w=w, w_uncertainty=max(s, 1e-12), direction="in")
        for z, w, s in zip(scan.z_positions, scan.fitted_waists, scan.waist_uncertainties)
    ]
    return fit_caustic(points, wavelength)


def main():
    design = LensDesign(FOCAL_LENGTH, APERTURE, WAVELENGTH)
    layout = zone_layout(design)
    na = na_from_geometry(LensGeometry(FOCAL_LENGTH, APERTURE))
    print(f"lens: f = {FOCAL_LENGTH * 1e3:.1f} mm, D = {APERTURE * 1e3:.1f} mm, "
          f"lam = {WAVELENGTH * 1e9:.1f} nm")
    print(f"  numerical aperture     {na:.4f}")
    print(f"  solid-angle fraction   {100 * solid_angle_fraction(na):.1f} %")
    print(f"  zones                  {layout.zone_count}")
    print(f"  etch depth             {layout.etch_depth * 1e9:.1f} nm")

    eta = multilevel_efficiency(design.phase_levels)
    transmission = fresnel_plate_transmission(design.substrate_index)
    print(f"  binary efficiency      {eta:.4f}")
    print(f"  with surface losses    {eta * transmission:.4f}")
    write_zone_csv(layout, "demo_zones.csv")
    print("  zone table             demo_zones.csv")

    transform = get_transform(GRID_POINTS, GRID_RADIUS)
    beam = gaussian_beam(transform, INPUT_WAIST, WAVELENGTH)
    input_power = beam.power()
    z_grid = np.linspace(FOCAL_LENGTH - 6e-6, FOCAL_LENGTH + 6e-6, 13)

    print(f"\nscanning the binary profile over f +- 6 um "
          f"({GRID_POINTS} radial points, truncated at {TRUNCATION * 1e3:.1f} mm) ...")
    transmitted = apply_binary_pfl(beam, layout.truncated(TRUNCATION))
    scan = scan_field(transmitted, z_grid, input_power=input_power)
    fit = caustic_from_scan(scan, WAVELENGTH)
    best_z = scan.z_positions[int(np.argmin(scan.fitted_waists))]
    print(f"  minimum waist          {scan.best_waist * 1e9:.1f} nm at z = {best_z * 1e3:.4f} mm")
    print(f"  fitted w0, M2          {fit.w0 * 1e9:.1f} nm, {fit.m2:.3f}")
    print(f"  focal efficiency       {efficiency_into_focus(scan):.3f} of input "
          f"({DEFAULT_CAPTURE_RADIUS_MULTIPLIER:g}x-waist capture)")
    with open("demo_focal_scan_binary.csv", "w") as fh:
        fh.write(focal_scan_csv_text(scan))

    print("\nideal-lens control (paraxial) ...")
    control = apply_ideal_lens(beam, FOCAL_LENGTH, aperture_radius=TRUNCATION, paraxial=True)
    control_scan = scan_field(control, z_grid, input_power=input_power, paraxial=True)
    control_fit = caustic_from_scan(control_scan, WAVELENGTH)
    analytic = WAVELENGTH * FOCAL_LENGTH / (math.pi * INPUT_WAIST)
    print(f"  fitted w0              {control_fit.w0 * 1e9:.1f} nm")
    print(f"  thin-lens estimate     {analytic * 1e9:.1f} nm (untruncated Gaussian)")
    with open("demo_focal_scan_ideal.csv", "w") as fh:
        fh.write(focal_scan_csv_text(control_scan))
    print("  scan curves            demo_focal_scan_binary.csv, demo_focal_scan_ideal.csv")

    clear_transform_cache()


if __name__ == "__main__":
    main()
