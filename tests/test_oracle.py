"""Exact Rayleigh-Sommerfeld on-axis field of a piecewise-constant aperture.

For a field that is constant on annuli at z = 0 (t_0 on [0, r_0), t_b on
[r_{b-1}, r_b), 0 beyond the last radius), the first-kind
Rayleigh-Sommerfeld integral on the axis,

    U(0, z) = -int_0^inf U(rho) z e^{ikR} (ikR - 1) / R^3 rho d rho,
    R = sqrt(z^2 + rho^2),

has the integrand -U(rho) z d/d rho (e^{ikR} / R), so it sums exactly over
the annuli:

    U(0, z) = t_0 e^{ikz} + sum_b (t_{b+1} - t_b) z e^{ik R_b} / R_b.

The oracle needs no Hankel transform, kernel or grid, so it checks the
diffraction engine from outside that machinery. The lens is criterion
03's toy binary lens (f = 200 um, D = 300 um, 854 nm, 58 zones) under a
unit plane wave, on 41 planes over +-4 um about the focus.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import j1, jn_zeros

from pflens import HankelTransform, LensDesign, apply_binary_pfl, diffraction, plane_wave, zone_layout

WAVELENGTH = 854e-9
WAVENUMBER = 2 * math.pi / WAVELENGTH
FOCAL_LENGTH = 200e-6
Z_PLANES = np.linspace(FOCAL_LENGTH - 4e-6, FOCAL_LENGTH + 4e-6, 41)


@pytest.fixture(scope="module")
def layout():
    return zone_layout(LensDesign(FOCAL_LENGTH, 300e-6, WAVELENGTH))


@pytest.fixture(scope="module")
def annuli(layout):
    """(radii, t): the lens's level boundaries and aperture edge, and t_0 .. t_B (t_B = 0).

    apply_binary_pfl's levels change where the path excess
    sqrt(f^2 + r^2) - f crosses a multiple of lambda / levels.
    """
    f, step = layout.focal_length(), layout.design_wavelength / layout.phase_levels
    count = math.ceil((math.hypot(f, layout.aperture_radius) - f) / step)
    radii = np.sqrt((f + np.arange(1, count) * step) ** 2 - f**2)
    radii = np.append(radii[radii < layout.aperture_radius], layout.aperture_radius)
    levels = np.arange(radii.size) % layout.phase_levels
    t = np.append(np.exp(-2j * math.pi * levels / layout.phase_levels), 0.0)
    return radii, t


def on_axis_oracle(radii: np.ndarray, t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """t_0 e^{ikz} + sum_b (t_{b+1} - t_b) z e^{ik R_b} / R_b at each z."""
    distance = np.hypot(z[:, None], radii)
    edges = (t[1:] - t[:-1]) * z[:, None] * np.exp(1j * WAVENUMBER * distance) / distance
    return t[0] * np.exp(1j * WAVENUMBER * z) + edges.sum(axis=1)


def test_oracle_matches_exact_annulus_spectrum_on_a_wide_window(annuli):
    # The exact spectrum of the annuli, A(k) = 2 pi sum_b (t_b - t_{b+1}) r_b
    # J1(k r_b) / k, summed on the axis as the transform's inverse would:
    # sum_m A(k_m) e^{iz sqrt(k^2 - k_m^2)} / (pi R^2 J1(j_m)^2), k_m = j_m / R,
    # up to k_m = 3k. J0(0) = 1 on the axis, so no kernel is needed. The
    # window radius R sets this sum's error: 9e-3 of the peak at 400 um,
    # 8e-5 at 6.4 mm and 3e-5 at 12.8 mm.
    radii, t = annuli
    window = 12.8e-3
    roots = jn_zeros(0, math.ceil(3 * WAVENUMBER * window / math.pi))
    k_radial = roots / window
    spectrum = 2 * math.pi / k_radial * sum(
        (t_b - t_next) * r_b * j1(k_radial * r_b) for r_b, t_b, t_next in zip(radii, t, t[1:])
    )
    k_axial = np.sqrt((WAVENUMBER**2 - k_radial**2).astype(complex))
    weights = 1.0 / (math.pi * window**2 * j1(roots) ** 2)
    summed = np.exp(1j * Z_PLANES[:, None] * k_axial) @ (spectrum * weights)

    expected = on_axis_oracle(radii, t, Z_PLANES)
    peak = np.max(np.abs(expected))
    # the focus is inside the planes: the peak is many times the incident field
    assert peak > 100
    assert np.max(np.abs(summed - expected)) <= 1e-4 * peak


def test_pipeline_on_axis_field_at_window_limited_floor(layout, annuli):
    """Transmit, transform, propagate and resample at r = 0, against the oracle.

    The bound is the measured floor of this 400 um window, 0.9 % of the peak
    at N = 4096, and it is the window radius R that sets it, not N: the error
    is 0.9-1.3 % at N = 4096, 8192 and 16384 with no trend in N, and the
    exact annulus spectrum summed on the same window errs by 0.9 % too. Light
    diffracted at wide angles by the zone edges leaves the window, and the k
    spacing pi / R cannot resolve the branch point of sqrt(k^2 - k_r^2).
    """
    transform = HankelTransform(4096, 400e-6)
    transmitted = apply_binary_pfl(plane_wave(transform, WAVELENGTH), layout)
    spectrum = transform.forward(transmitted.amplitude)
    kz = diffraction._transfer_wavenumber(transform, WAVENUMBER)
    phases = np.stack([np.exp(1j * z * kz) for z in Z_PLANES], axis=1)
    on_axis = transform.resample_matrix(np.zeros(1)) @ (spectrum[:, None] * phases)

    expected = on_axis_oracle(*annuli, Z_PLANES)
    assert np.max(np.abs(on_axis[0] - expected)) <= 1e-2 * np.max(np.abs(expected))
