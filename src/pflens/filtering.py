"""Etalon filtering and frequency bookkeeping for ion-photon readout.

The entangling scheme collects sigma photons while rejecting pi
photons that differ from them by the Raman shift, and balances the
residual polarization error of a fast lens against a second, narrower
etalon resolving the Zeeman splitting. A Fabry-Perot etalon of finesse
F and free spectral range FSR transmits

    T(detuning) = 1 / (1 + (2 F / pi)^2 sin^2(pi detuning / FSR)),

so a line parked at half-FSR is suppressed by 1 + (2 F / pi)^2; finesse
50 gives a factor of about 1000, finesse 16 about 100.

Frequencies are in Hz and magnetic fields in tesla throughout. The
default Zeeman coefficient is back-solved from a quoted (67 G, 160 MHz)
operating point; no atomic structure is modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError
from .dipole import (
    POLAR_PI,
    POLAR_SIGMA,
    collection_fraction,
    polarization_fidelity_collected,
)
from .geometry import check_na, cone_from_na

DEFAULT_RAMAN_SHIFT = 12.6e9  # Hz
DEFAULT_ZEEMAN_SPLITTING = 160e6  # Hz
# back-solved from a 160 MHz splitting at 67 G; empirical, not ab initio
DEFAULT_ZEEMAN_COEFFICIENT = 160e6 / 67e-4  # Hz/T
# reference etalons: ~1000x on the pi line, ~100x on the wrong sigma line
PI_ETALON_FINESSE = 50.0
SIGMA_ETALON_FINESSE = 16.0


@dataclass(frozen=True)
class EtalonSpec:
    """Fabry-Perot etalon: finesse and free spectral range [Hz]."""

    finesse: float
    free_spectral_range: float

    def __post_init__(self):
        if not (self.finesse > 0):
            raise DomainError(f"finesse must be > 0, got {self.finesse}")
        if not (self.free_spectral_range > 0):
            raise DomainError(
                f"free_spectral_range must be > 0, got {self.free_spectral_range}"
            )


@dataclass(frozen=True)
class FrequencyLayout:
    """Relevant frequency offsets of the emitted photons [Hz].

    raman_shift separates the unwanted pi photons from the collected
    sigma photons; zeeman_splitting separates the two sigma components.
    zeeman_coefficient [Hz/T] converts an applied field to a splitting.
    """

    raman_shift: float = DEFAULT_RAMAN_SHIFT
    zeeman_splitting: float = DEFAULT_ZEEMAN_SPLITTING
    zeeman_coefficient: float = DEFAULT_ZEEMAN_COEFFICIENT

    def __post_init__(self):
        for name in ("raman_shift", "zeeman_splitting", "zeeman_coefficient"):
            if not (getattr(self, name) >= 0):
                raise DomainError(f"{name} must be >= 0, got {getattr(self, name)}")

    def with_raman_removed(self) -> "FrequencyLayout":
        """Layout after an acousto-optic shift parks the pi line at zero.

        Only the frequency bookkeeping changes; the shifting device
        itself is not modeled.
        """
        return replace(self, raman_shift=0.0)


def etalon_transmission(etalon: EtalonSpec, detuning: float) -> float:
    """Airy transmission of an etalon at the given detuning [Hz].

    Periodic in the free spectral range, 1 on resonance, minimal at
    half-FSR.
    """
    coefficient = (2.0 * etalon.finesse / math.pi) ** 2
    phase = math.sin(math.pi * detuning / etalon.free_spectral_range)
    return 1.0 / (1.0 + coefficient * phase**2)


def suppression_factor(etalon: EtalonSpec, detuning: float) -> float:
    """Reciprocal transmission at the given detuning [Hz].

    Raises DomainError for detunings congruent to 0 mod FSR, where the
    etalon transmits fully and suppression is undefined as a rejection
    figure.
    """
    fsr = etalon.free_spectral_range
    if abs(math.remainder(detuning, fsr)) < 1e-9 * fsr:
        raise DomainError(
            f"detuning {detuning} Hz is resonant with the etalon (FSR {fsr} Hz); "
            "no suppression there"
        )
    return 1.0 / etalon_transmission(etalon, detuning)


def zeeman_splitting(
    field: float, coefficient: float = DEFAULT_ZEEMAN_COEFFICIENT
) -> float:
    """Linear Zeeman splitting [Hz] of an applied field [T]."""
    if not (field >= 0):
        raise DomainError(f"field must be >= 0, got {field}")
    if not (coefficient >= 0):
        raise DomainError(f"coefficient must be >= 0, got {coefficient}")
    return coefficient * field


def scheme_error_budget(
    na: float,
    etalon_pi: EtalonSpec,
    layout: FrequencyLayout,
    etalon_sigma: EtalonSpec | None = None,
) -> dict:
    """First-order readout error budget of the filtered entangling scheme.

    The ion decays to sigma-plus, sigma-minus, or pi with branching
    1/3 each; only sigma photons herald entanglement. pi_leakage is the
    pi fraction of the light actually collected in the polar view,
    attenuated by the pi-rejection etalon at the Raman shift.
    polarization_error is the collected polarization infidelity of the
    aperture, attenuated by the optional second etalon resolving the
    Zeeman splitting. The two terms add; no interference between error
    channels is modeled.
    """
    check_na(na)
    theta = cone_from_na(na)
    sigma_weight = (2.0 / 3.0) * collection_fraction(POLAR_SIGMA, theta)
    pi_weight = (1.0 / 3.0) * collection_fraction(POLAR_PI, theta)
    collected = sigma_weight + pi_weight
    if collected > 0:
        pi_leakage = (
            pi_weight / collected * etalon_transmission(etalon_pi, layout.raman_shift)
        )
    else:
        pi_leakage = 0.0

    polarization_error = 1.0 - polarization_fidelity_collected(na)
    if etalon_sigma is not None:
        polarization_error *= etalon_transmission(
            etalon_sigma, layout.zeeman_splitting
        )

    return {
        "pi_leakage": pi_leakage,
        "polarization_error": polarization_error,
        "combined_infidelity": pi_leakage + polarization_error,
    }
