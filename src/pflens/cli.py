"""Command-line front end.

Subcommands cover the library surface: design (zone layout + summary),
simulate (scalar-diffraction focal scan), fit (knife-edge data
reduction), coupling (collection / single-mode budgets), filter
(etalon error budget), budget (trap-array scalability), curves
(figure data), and synth (seeded synthetic scan generator).

Every subcommand is deterministic: identical invocations produce
byte-identical files and stdout. Randomness exists only in synth,
which requires an explicit seed. Exit codes: 0 success, 2 validation
error (bad flags, config, schema, or domain), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import beamfit, budget as budget_mod, design as design_mod, diffraction, dipole, filtering
from .config import ProjectConfig, config_text, default_config, read_config
from .errors import DomainError, NumericalError
from .hankel import get_transform
from .geometry import (
    LensGeometry,
    cone_from_na,
    na_from_geometry,
    solid_angle_fraction,
)

SCHEMA_VERSION = 1

_CHANNELS = {
    "polar_sigma": dipole.POLAR_SIGMA,
    "polar_pi": dipole.POLAR_PI,
    "equatorial_sigma": dipole.EQUATORIAL_SIGMA,
    "equatorial_pi": dipole.EQUATORIAL_PI,
}


def _json_text(payload: dict) -> str:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_config(args) -> ProjectConfig:
    if args.config is not None:
        return read_config(args.config)
    return default_config()


# ---------------------------------------------------------------------------
# design


def cmd_design(args) -> int:
    config = _load_config(args)
    lens = config.lens_design()
    layout = design_mod.zone_layout(lens)
    geometry = LensGeometry(lens.focal_length, lens.clear_aperture_diameter)
    na = na_from_geometry(geometry)

    warnings = []
    if layout.zone_count == 0:
        warnings.append(
            "aperture is smaller than the first ring radius; layout is empty"
        )

    design_mod.write_zone_csv(layout, args.zones_output)
    efficiency = design_mod.multilevel_efficiency(lens.phase_levels)
    transmission = design_mod.fresnel_plate_transmission(lens.substrate_index)
    summary = {
        "focal_length_m": lens.focal_length,
        "aperture_diameter_m": lens.clear_aperture_diameter,
        "design_wavelength_m": lens.design_wavelength,
        "phase_levels": lens.phase_levels,
        "substrate_index": lens.substrate_index,
        "na": na,
        "f_number": geometry.f_number,
        "solid_angle_fraction": solid_angle_fraction(na),
        "etch_depth_m": layout.etch_depth,
        "zone_count": layout.zone_count,
        "diffraction_efficiency": efficiency,
        "surface_transmission": transmission,
        "efficiency_with_losses": efficiency * transmission,
        "zones_csv": str(args.zones_output),
        "warnings": warnings,
    }
    _emit(_json_text(summary), args.output)
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    config = _load_config(args)
    lens = config.lens_design()
    layout = design_mod.zone_layout(lens)

    truncation_radius = config.truncation_waists * config.input_waist
    truncation_radius = min(truncation_radius, lens.clear_aperture_diameter / 2.0)
    grid_radius = config.grid_padding_factor * truncation_radius
    transform = get_transform(config.grid_points, grid_radius)
    beam = diffraction.gaussian_beam(transform, config.input_waist, config.wavelength)

    # the ideal control is a textbook Gaussian-optics case: thin-lens
    # phase under paraxial propagation, so the focal waist has the
    # closed form lambda f / (pi w_in) to compare against
    paraxial = bool(args.ideal)
    if args.ideal:
        transmitted = diffraction.apply_ideal_lens(
            beam, lens.focal_length, truncation_radius, paraxial=True
        )
    else:
        transmitted = diffraction.apply_binary_pfl(beam, layout.truncated(truncation_radius))

    z_lo = args.z_min_um * 1e-6 if args.z_min_um is not None else lens.focal_length - config.scan_half_width
    z_hi = args.z_max_um * 1e-6 if args.z_max_um is not None else lens.focal_length + config.scan_half_width
    steps = args.steps if args.steps is not None else config.scan_steps
    scan = diffraction.scan_field(
        transmitted,
        np.linspace(z_lo, z_hi, steps),
        input_power=beam.power(),
        n_blade_positions=config.blade_positions,
        fine_points=config.fine_points,
        paraxial=paraxial,
    )

    warnings = []
    if not scan.has_interior_minimum():
        warnings.append(
            "waist minimum sits on the scan boundary; the focus lies outside the z range"
        )

    points = [
        beamfit.WaistPoint(z=float(z), w=float(w), w_uncertainty=float(s), direction="in")
        for z, w, s in zip(scan.z_positions, scan.fitted_waists, scan.waist_uncertainties)
    ]
    caustic = None
    if scan.has_interior_minimum() and len(points) >= 5:
        try:
            fit = beamfit.fit_caustic(points, config.wavelength)
            caustic = beamfit.caustic_fit_report(fit, wavelength=config.wavelength)
        except NumericalError as error:
            warnings.append(f"caustic fit failed: {error}")

    efficiency = diffraction.efficiency_into_focus(
        scan,
        input_power=beam.power(),
        capture_radius_multiplier=config.capture_radius_multiplier,
    )

    Path(args.scan_output).write_text(diffraction.focal_scan_csv_text(scan))
    summary = {
        "lens": "ideal" if args.ideal else "binary_pfl",
        "propagation": "paraxial" if paraxial else "exact",
        "grid_points": config.grid_points,
        "grid_radius_m": grid_radius,
        "input_waist_m": config.input_waist,
        "truncation_radius_m": truncation_radius,
        "z_min_m": z_lo,
        "z_max_m": z_hi,
        "best_focus_z_m": scan.best_focus_z,
        "best_waist_m": scan.best_waist,
        "best_waist_uncertainty_m": float(
            scan.waist_uncertainties[scan.best_focus_index]
        ),
        "input_power": scan.input_power,
        "transmitted_power_fraction": scan.transmitted_power / scan.input_power,
        "focal_efficiency": efficiency,
        "capture_radius_multiplier": config.capture_radius_multiplier,
        "caustic_fit": caustic,
        "scan_csv": str(args.scan_output),
        "warnings": warnings,
    }
    _emit(_json_text(summary), args.output)
    return 0


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args) -> int:
    config = _load_config(args)
    wavelength = (
        args.wavelength_nm * 1e-9 if args.wavelength_nm is not None else config.wavelength
    )
    input_path = args.input if args.input is not None else beamfit.bundled_caustic_dataset_path()
    scans = beamfit.read_scans_csv(input_path)

    points = []
    scan_errors = []
    for index, scan in enumerate(scans):
        try:
            points.append(beamfit.fit_scan(scan))
        except NumericalError as error:
            scan_errors.append({"scan_index": index, "error": str(error)})

    if len(scans) == 1:
        if scan_errors:
            raise NumericalError(scan_errors[0]["error"])
        payload = beamfit.waist_point_report(points[0])
        payload["input"] = str(input_path)
        _emit(_json_text(payload), args.output)
        return 0

    if len(points) < 5:
        raise NumericalError(
            f"only {len(points)} of {len(scans)} scans fitted; "
            "a caustic fit needs at least 5"
        )
    fit = beamfit.fit_caustic(points, wavelength)
    report = beamfit.caustic_fit_report(fit, points=points, wavelength=wavelength)
    report["input"] = str(input_path)
    report["scan_errors"] = scan_errors

    if args.curve_output is not None:
        z_values = [point.z for point in points]
        curve = beamfit.caustic_curve_csv_text(
            fit, wavelength, min(z_values), max(z_values)
        )
        Path(args.curve_output).write_text(curve)
        report["curve_csv"] = str(args.curve_output)

    _emit(_json_text(report), args.output)
    return 0


# ---------------------------------------------------------------------------
# coupling


def cmd_coupling(args) -> int:
    config = _load_config(args)
    channel = _CHANNELS[args.channel]
    eta_diff = args.eta if args.eta is not None else config.eta_diff
    m2 = args.m2 if args.m2 is not None else config.beam_m2
    convention = (
        args.m_convention if args.m_convention is not None else config.m_convention
    )

    if args.divergence_mrad is not None:
        theta = args.divergence_mrad * 1e-3
        na = math.sin(theta) if theta <= math.pi / 2 else 1.0
    else:
        if args.na is not None:
            na = args.na
        else:
            lens = config.lens_design()
            na = na_from_geometry(
                LensGeometry(lens.focal_length, lens.clear_aperture_diameter)
            )
        theta = cone_from_na(na)

    quality = dipole.BeamQuality(divergence_half_angle=theta, m2=m2)
    result = dipole.coupling_budget(channel, quality, eta_diff, convention)
    payload = {
        "channel": args.channel,
        "na": na,
        "divergence_half_angle_rad": theta,
        "effective_divergence_rad": dipole.effective_divergence(quality, convention),
        "m2": m2,
        "m_convention": convention,
        "eta_diff": eta_diff,
        "collection_fraction": result.p_coll / eta_diff,
        "p_coll": result.p_coll,
        "p_coh": result.p_coh,
        "polarization_fidelity": dipole.polarization_fidelity_collected(na),
    }

    if args.collection_curve is not None:
        Path(args.collection_curve).write_text(
            dipole.collection_curve_csv_text(n_steps=args.curve_steps)
        )
        payload["collection_curve_csv"] = str(args.collection_curve)
    if args.fidelity_curve is not None:
        Path(args.fidelity_curve).write_text(
            dipole.fidelity_curve_csv_text(n_steps=args.curve_steps)
        )
        payload["fidelity_curve_csv"] = str(args.fidelity_curve)

    _emit(_json_text(payload), args.output)
    return 0


# ---------------------------------------------------------------------------
# filter


def cmd_filter(args) -> int:
    config = _load_config(args)
    layout = config.frequency_layout()
    if args.na is not None:
        na = args.na
    else:
        lens = config.lens_design()
        na = na_from_geometry(
            LensGeometry(lens.focal_length, lens.clear_aperture_diameter)
        )

    fsr_pi = args.fsr_pi_ghz * 1e9 if args.fsr_pi_ghz is not None else 2.0 * layout.raman_shift
    etalon_pi = filtering.EtalonSpec(finesse=args.finesse_pi, free_spectral_range=fsr_pi)
    pi_info = {
        "finesse": etalon_pi.finesse,
        "free_spectral_range_hz": etalon_pi.free_spectral_range,
        "transmission_at_raman": filtering.etalon_transmission(
            etalon_pi, layout.raman_shift
        ),
        "suppression_at_raman": filtering.suppression_factor(
            etalon_pi, layout.raman_shift
        ),
    }

    etalon_sigma = None
    sigma_info = None
    if not args.no_sigma_etalon:
        fsr_sigma = (
            args.fsr_sigma_mhz * 1e6
            if args.fsr_sigma_mhz is not None
            else 2.0 * layout.zeeman_splitting
        )
        etalon_sigma = filtering.EtalonSpec(
            finesse=args.finesse_sigma, free_spectral_range=fsr_sigma
        )
        sigma_info = {
            "finesse": etalon_sigma.finesse,
            "free_spectral_range_hz": etalon_sigma.free_spectral_range,
            "transmission_at_zeeman": filtering.etalon_transmission(
                etalon_sigma, layout.zeeman_splitting
            ),
            "suppression_at_zeeman": filtering.suppression_factor(
                etalon_sigma, layout.zeeman_splitting
            ),
        }

    error_budget = filtering.scheme_error_budget(na, etalon_pi, layout, etalon_sigma)
    payload = {
        "na": na,
        "raman_shift_hz": layout.raman_shift,
        "zeeman_splitting_hz": layout.zeeman_splitting,
        "pi_etalon": pi_info,
        "sigma_etalon": sigma_info,
        "error_budget": error_budget,
    }
    _emit(_json_text(payload), args.output)
    return 0


# ---------------------------------------------------------------------------
# budget


def cmd_budget(args) -> int:
    config = _load_config(args)
    spec = budget_mod.TrapArraySpec(
        electrode_distance=args.electrode_distance_um * 1e-6,
        segments_per_site=args.segments,
        segment_length_factor=args.segment_length_factor,
        measured_site_fraction=args.measured_fraction,
        focal_length_factor=args.focal_factor,
    )
    spacing = budget_mod.detection_site_spacing(spec)
    array_na = budget_mod.achievable_array_na(spec)
    detector = budget_mod.DetectorSpec(quantum_efficiency=args.quantum_efficiency)
    check = budget_mod.fault_tolerance_check(
        args.check_na, args.check_eta, detector, args.required_p_coll
    )

    layout = config.frequency_layout()
    etalon_pi = filtering.EtalonSpec(
        finesse=filtering.PI_ETALON_FINESSE, free_spectral_range=2.0 * layout.raman_shift
    )
    etalon_sigma = filtering.EtalonSpec(
        finesse=filtering.SIGMA_ETALON_FINESSE,
        free_spectral_range=2.0 * layout.zeeman_splitting,
    )
    filter_budget = filtering.scheme_error_budget(
        array_na, etalon_pi, layout, etalon_sigma
    )

    networking_quality = dipole.BeamQuality(
        divergence_half_angle=cone_from_na(args.networking_na), m2=args.networking_m2
    )
    networking_p_coh = dipole.coherent_coupling(
        dipole.POLAR_SIGMA,
        networking_quality,
        args.networking_eta,
        config.m_convention,
    )
    gain = budget_mod.entanglement_rate_gain(networking_p_coh, args.reference_p_coh)

    payload = {
        "electrode_distance_m": spec.electrode_distance,
        "segments_per_site": spec.segments_per_site,
        "segment_length_factor": spec.segment_length_factor,
        "measured_site_fraction": spec.measured_site_fraction,
        "focal_length_factor": spec.focal_length_factor,
        "detection_site_spacing_m": spacing,
        "spacing_over_d": spacing / spec.electrode_distance,
        "array_na": array_na,
        "fault_tolerance": {
            "na": args.check_na,
            "eta_diff": args.check_eta,
            "required_p_coll": args.required_p_coll,
            "quantum_efficiency": detector.quantum_efficiency,
            **check,
        },
        "filter_budget_at_array_na": filter_budget,
        "networking": {
            "na": args.networking_na,
            "m2": args.networking_m2,
            "eta_diff": args.networking_eta,
            "p_coh": networking_p_coh,
            "reference_p_coh": args.reference_p_coh,
            "rate_gain": gain,
        },
    }
    _emit(_json_text(payload), args.output)
    return 0


# ---------------------------------------------------------------------------
# curves


def cmd_curves(args) -> int:
    config = _load_config(args)
    if args.kind == "collection":
        text = dipole.collection_curve_csv_text(n_steps=args.steps)
    elif args.kind == "fidelity":
        text = dipole.fidelity_curve_csv_text(n_steps=args.steps)
    else:
        layout = config.frequency_layout()
        fsr = args.fsr_ghz * 1e9 if args.fsr_ghz is not None else 2.0 * layout.raman_shift
        etalon = filtering.EtalonSpec(finesse=args.finesse, free_spectral_range=fsr)
        rows = ["detuning_hz,transmission"]
        for detuning in np.linspace(0.0, fsr, args.steps):
            transmission = filtering.etalon_transmission(etalon, float(detuning))
            rows.append(f"{detuning:.17g},{transmission:.17g}")
        text = "\n".join(rows) + "\n"
    _emit(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    rng = np.random.default_rng(args.seed)
    z_positions = np.linspace(
        -args.z_half_range_um * 1e-6, args.z_half_range_um * 1e-6, args.z_steps
    )
    directions = ("in", "out") if args.directions == "both" else (args.directions,)
    config = _load_config(args)
    wavelength = (
        args.wavelength_nm * 1e-9 if args.wavelength_nm is not None else config.wavelength
    )
    scans = beamfit.synthetic_caustic_scans(
        z_positions,
        w0=args.w0_nm * 1e-9,
        m2=args.m2,
        wavelength=wavelength,
        z0=args.z0_um * 1e-6,
        direction_offset=args.offset_um * 1e-6,
        directions=directions,
        total_power=args.total_power,
        background=args.background,
        n_positions=args.n_blade,
        span_factor=args.span_factor,
        noise_fraction=args.noise,
        rng=rng,
    )
    _emit(beamfit.scans_csv_text(scans), args.output)
    return 0


# ---------------------------------------------------------------------------
# config echo (utility; exposes the resolved configuration)


def cmd_show_config(args) -> int:
    config = _load_config(args)
    _emit(config_text(config), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pflens",
        description="Design and analysis toolkit for photon-collection phase Fresnel lenses.",
    )
    parser.add_argument(
        "--config", help="path to a key = value configuration file", default=None
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_design = subparsers.add_parser("design", help="zone layout and lens summary")
    p_design.add_argument("--zones-output", default="design_zones.csv")
    p_design.add_argument("--output", default=None, help="summary JSON path (default stdout)")
    p_design.set_defaults(func=cmd_design)

    p_sim = subparsers.add_parser("simulate", help="scalar-diffraction focal scan")
    p_sim.add_argument("--ideal", action="store_true", help="ideal thin-lens control instead of the binary profile")
    p_sim.add_argument("--z-min-um", type=float, default=None)
    p_sim.add_argument("--z-max-um", type=float, default=None)
    p_sim.add_argument("--steps", type=int, default=None)
    p_sim.add_argument("--scan-output", default="focal_scan.csv")
    p_sim.add_argument("--output", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = subparsers.add_parser("fit", help="fit knife-edge scans and the caustic")
    p_fit.add_argument("--input", default=None, help="scan CSV (default: bundled synthetic dataset)")
    p_fit.add_argument("--wavelength-nm", type=float, default=None)
    p_fit.add_argument("--curve-output", default=None, help="fitted caustic curve CSV")
    p_fit.add_argument("--output", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_coup = subparsers.add_parser("coupling", help="collection and single-mode coupling budget")
    p_coup.add_argument("--channel", choices=sorted(_CHANNELS), default="polar_sigma")
    group = p_coup.add_mutually_exclusive_group()
    group.add_argument("--na", type=float, default=None)
    group.add_argument("--divergence-mrad", type=float, default=None)
    p_coup.add_argument("--m2", type=float, default=None)
    p_coup.add_argument("--eta", type=float, default=None)
    p_coup.add_argument("--m-convention", choices=("sqrt", "unity"), default=None)
    p_coup.add_argument("--collection-curve", default=None)
    p_coup.add_argument("--fidelity-curve", default=None)
    p_coup.add_argument("--curve-steps", type=int, default=101)
    p_coup.add_argument("--output", default=None)
    p_coup.set_defaults(func=cmd_coupling)

    p_filt = subparsers.add_parser("filter", help="etalon suppression and error budget")
    p_filt.add_argument("--na", type=float, default=None)
    p_filt.add_argument("--finesse-pi", type=float, default=filtering.PI_ETALON_FINESSE)
    p_filt.add_argument("--fsr-pi-ghz", type=float, default=None)
    p_filt.add_argument("--finesse-sigma", type=float, default=filtering.SIGMA_ETALON_FINESSE)
    p_filt.add_argument("--fsr-sigma-mhz", type=float, default=None)
    p_filt.add_argument("--no-sigma-etalon", action="store_true")
    p_filt.add_argument("--output", default=None)
    p_filt.set_defaults(func=cmd_filter)

    p_budget = subparsers.add_parser("budget", help="trap-array scalability report")
    p_budget.add_argument("--electrode-distance-um", type=float, default=100.0)
    p_budget.add_argument("--segments", type=int, default=7)
    p_budget.add_argument("--segment-length-factor", type=float, default=0.5)
    p_budget.add_argument("--measured-fraction", type=float, default=0.2)
    p_budget.add_argument("--focal-factor", type=float, default=3.0)
    p_budget.add_argument("--check-na", type=float, default=0.6)
    p_budget.add_argument("--check-eta", type=float, default=0.6)
    p_budget.add_argument("--required-p-coll", type=float, default=0.05)
    p_budget.add_argument("--quantum-efficiency", type=float, default=0.2)
    p_budget.add_argument("--networking-na", type=float, default=0.8)
    p_budget.add_argument("--networking-m2", type=float, default=1.5)
    p_budget.add_argument("--networking-eta", type=float, default=0.5)
    p_budget.add_argument("--reference-p-coh", type=float, default=0.0032)
    p_budget.add_argument("--output", default=None)
    p_budget.set_defaults(func=cmd_budget)

    p_curves = subparsers.add_parser("curves", help="figure-data CSV emitter")
    p_curves.add_argument("--kind", choices=("collection", "fidelity", "etalon"), required=True)
    p_curves.add_argument("--steps", type=int, default=101)
    p_curves.add_argument("--finesse", type=float, default=filtering.PI_ETALON_FINESSE)
    p_curves.add_argument("--fsr-ghz", type=float, default=None)
    p_curves.add_argument("--output", default=None)
    p_curves.set_defaults(func=cmd_curves)

    p_synth = subparsers.add_parser("synth", help="generate synthetic knife-edge scans")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--w0-nm", type=float, default=350.0)
    p_synth.add_argument("--m2", type=float, default=1.08)
    p_synth.add_argument("--z0-um", type=float, default=0.0)
    p_synth.add_argument("--offset-um", type=float, default=1.11)
    p_synth.add_argument("--z-half-range-um", type=float, default=20.0)
    p_synth.add_argument("--z-steps", type=int, default=25)
    p_synth.add_argument("--n-blade", type=int, default=60)
    p_synth.add_argument("--span-factor", type=float, default=3.0)
    p_synth.add_argument("--noise", type=float, default=0.01)
    p_synth.add_argument("--total-power", type=float, default=1.0)
    p_synth.add_argument("--background", type=float, default=0.0)
    p_synth.add_argument("--directions", choices=("both", "in", "out"), default="both")
    p_synth.add_argument("--wavelength-nm", type=float, default=None)
    p_synth.add_argument("--output", default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_show = subparsers.add_parser("show-config", help="print the resolved configuration")
    p_show.add_argument("--output", default=None)
    p_show.set_defaults(func=cmd_show_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except NumericalError as error:
        print(f"numerical error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
