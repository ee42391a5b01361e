"""Photon-collection budget for a single trapped emitter behind the lens.

Pure closed forms, instant to run: collection and coherent-coupling
probabilities per emission channel, polarization fidelity of the
collected light, etalon filtering, chromatic focal limits, and the
trap-array scalability numbers.
"""

from __future__ import annotations

from pflens.budget import (
    DetectorSpec,
    TrapArraySpec,
    achievable_array_na,
    detection_site_spacing,
    entanglement_rate_gain,
    fault_tolerance_check,
)
from pflens.design import (
    ChromaticSpec,
    LensDesign,
    chromatic_focal_shift,
    fractional_detuning_from_frequency,
    max_focal_length_for_dof,
)
from pflens.dipole import (
    EQUATORIAL_SIGMA,
    POLAR_PI,
    POLAR_SIGMA,
    BeamQuality,
    coherent_coupling,
    collection_fraction,
    collection_probability,
    polarization_fidelity_collected,
)
from pflens.filtering import (
    PI_ETALON_FINESSE,
    SIGMA_ETALON_FINESSE,
    EtalonSpec,
    FrequencyLayout,
    scheme_error_budget,
    suppression_factor,
)
from pflens.geometry import LensGeometry, cone_from_na, na_from_geometry

FOCAL_LENGTH = 3e-3
APERTURE = 5e-3
WAVELENGTH = 369.5e-9
ETA_DIFF = 0.30


def main():
    na = na_from_geometry(LensGeometry(FOCAL_LENGTH, APERTURE))
    theta = cone_from_na(na)
    print(f"lens NA {na:.4f} (half-angle {theta * 1e3:.0f} mrad), "
          f"diffraction efficiency {ETA_DIFF:.2f}")

    print("\nemission fraction inside the cone:")
    for label, channel in (
        ("polar sigma     ", POLAR_SIGMA),
        ("equatorial sigma", EQUATORIAL_SIGMA),
        ("polar pi        ", POLAR_PI),
    ):
        print(f"  {label}  {collection_fraction(channel, theta):.4f}")

    p_coll = collection_probability(POLAR_SIGMA, theta, ETA_DIFF)
    print(f"\ncollection probability (polar sigma)  {100 * p_coll:.2f} %")

    measured = BeamQuality(divergence_half_angle=0.348, m2=1.08)
    low = coherent_coupling(POLAR_SIGMA, measured, ETA_DIFF, "sqrt")
    high = coherent_coupling(POLAR_SIGMA, measured, ETA_DIFF, "unity")
    print(f"single-mode coupling, measured beam    {100 * low:.2f} - {100 * high:.2f} % "
          "(divergence-correction convention band)")

    networking = BeamQuality(divergence_half_angle=cone_from_na(0.8), m2=1.5)
    p_coh = coherent_coupling(POLAR_SIGMA, networking, 0.5, "sqrt")
    gain = entanglement_rate_gain(p_coh, 0.0032)
    print(f"networking scenario (NA 0.8, eta 0.5)  {100 * p_coh:.2f} % "
          f"-> two-node rate gain {gain:.0f}x over a 0.32 % link")

    print(f"\npolarization fidelity of collected sigma light:")
    for na_probe in (0.27, na, 0.85, 1.0):
        fidelity = polarization_fidelity_collected(na_probe)
        print(f"  NA {na_probe:.2f}   F = {fidelity:.4f}")

    layout = FrequencyLayout()
    pi_etalon = EtalonSpec(finesse=PI_ETALON_FINESSE, free_spectral_range=2 * layout.raman_shift)
    sigma_etalon = EtalonSpec(
        finesse=SIGMA_ETALON_FINESSE, free_spectral_range=2 * layout.zeeman_splitting
    )
    print(f"\netalon suppression: pi line {suppression_factor(pi_etalon, layout.raman_shift):.0f}x, "
          f"wrong-sigma line {suppression_factor(sigma_etalon, layout.zeeman_splitting):.0f}x")
    budget = scheme_error_budget(0.95, pi_etalon, layout, sigma_etalon)
    print(f"filtered-scheme infidelity at NA 0.95: {budget['combined_infidelity']:.2e}")

    chromatic = fractional_detuning_from_frequency(layout.raman_shift, WAVELENGTH)
    shift = chromatic_focal_shift(LensDesign(FOCAL_LENGTH, APERTURE, WAVELENGTH), chromatic)
    f_max = max_focal_length_for_dof(0.9, ChromaticSpec(1.5e-5), WAVELENGTH)
    print(f"\nchromatic focal shift at f = 3 mm: {shift * 1e9:.1f} nm; "
          f"depth of focus allows f up to {f_max * 1e3:.1f} mm at NA 0.9")

    spec = TrapArraySpec(electrode_distance=100e-6)
    spacing = detection_site_spacing(spec)
    array_na = achievable_array_na(spec)
    check = fault_tolerance_check(0.6, 0.6, DetectorSpec(quantum_efficiency=0.2))
    print(f"\ntrap array: detection sites every {spacing / spec.electrode_distance:.2f} d "
          f"-> lens NA up to {array_na:.2f}")
    print(f"fault-tolerance check at (NA 0.6, eta 0.6): p_coll = "
          f"{100 * check['p_coll']:.2f} % -> {'pass' if check['pass'] else 'fail'}")


if __name__ == "__main__":
    main()
