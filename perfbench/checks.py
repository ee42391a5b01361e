"""Output checks applied to every benchmark op.

The bands are copied from tests/test_acceptance.py and are never looser:
criterion 03 (grid convergence of the focal efficiency), criterion 04
(reference focal simulation and its ideal-lens control) and criterion 05
(knife-edge and caustic fitting). Each check returns a list of problems;
an empty list means the op's output is correct.
"""

from __future__ import annotations

import math

# criterion 04
WAIST_BAND_M = (300e-9, 380e-9)
M2_MAX = 1.2
CONTROL_W0_M = 321e-9
CONTROL_REL = 0.03

# criterion 03
EFFICIENCY_TARGET = (2 / math.pi) ** 2
EFFICIENCY_REL = 0.02

# criterion 05
REFERENCE_W0_M = 350e-9
REFERENCE_M2 = 1.08
REFERENCE_OFFSET_M = 1.11e-6
W0_ABS_M = 15e-9
M2_ABS = 0.05
OFFSET_ABS_M = 0.05e-6


def check_focal_report(report: dict, label: str) -> list[str]:
    """A simulate-style report: best waist and fitted w0 in band, M2 < 1.2, no warnings."""
    problems = []
    if report["warnings"]:
        problems.append(f"{label}: warnings {report['warnings']}")
    lo, hi = WAIST_BAND_M
    if not lo <= report["best_waist_m"] <= hi:
        problems.append(f"{label}: best waist {report['best_waist_m']} m outside {WAIST_BAND_M}")
    caustic = report["caustic_fit"]
    if caustic is None:
        return problems + [f"{label}: no caustic fit"]
    w0 = caustic["parameters"]["w0_m"]
    m2 = caustic["parameters"]["m2"]
    if not lo <= w0 <= hi:
        problems.append(f"{label}: fitted w0 {w0} m outside {WAIST_BAND_M}")
    if not m2 < M2_MAX:
        problems.append(f"{label}: fitted M2 {m2} not below {M2_MAX}")
    return problems


def check_control(report: dict) -> list[str]:
    """The paraxial ideal-lens control recovers 321 nm within 3 %."""
    caustic = report["caustic_fit"]
    if caustic is None:
        return ["control: no caustic fit"]
    w0 = caustic["parameters"]["w0_m"]
    if not abs(w0 - CONTROL_W0_M) <= CONTROL_REL * CONTROL_W0_M:
        return [f"control: fitted w0 {w0} m not within {CONTROL_REL:.0%} of {CONTROL_W0_M} m"]
    return []


def check_convergence(efficiencies: list[float]) -> list[str]:
    """Finest-grid efficiency within 2 % of (2/pi)^2, convergence steps shrinking."""
    problems = []
    finest = efficiencies[-1]
    if not abs(finest - EFFICIENCY_TARGET) <= EFFICIENCY_REL * EFFICIENCY_TARGET:
        problems.append(
            f"finest-grid efficiency {finest} not within {EFFICIENCY_REL:.0%} of {EFFICIENCY_TARGET}"
        )
    steps = [abs(b - a) for a, b in zip(efficiencies, efficiencies[1:])]
    if not all(later <= earlier for earlier, later in zip(steps, steps[1:])):
        problems.append(f"convergence steps {steps} do not shrink")
    return problems


def check_fit_report(report: dict, truth: dict, n_scans: int) -> list[str]:
    """Every edge fitted, no warnings, and each fitted parameter named in truth
    within criterion 05's band of its true value."""
    problems = []
    if report["scan_errors"]:
        problems.append(f"scan errors {report['scan_errors']}")
    if len(report["points"]) != n_scans:
        problems.append(f"{len(report['points'])} of {n_scans} scans fitted")
    if report["warnings"]:
        problems.append(f"warnings {report['warnings']}")
    fitted = report["parameters"]
    tolerances = {"w0_m": W0_ABS_M, "m2": M2_ABS, "direction_offset_m": OFFSET_ABS_M}
    for key, expected in truth.items():
        if not abs(fitted[key] - expected) <= tolerances[key]:
            problems.append(f"{key} {fitted[key]} not within {tolerances[key]} of {expected}")
    return problems
