"""Slow quadrature references for the dipole module's closed forms.

Check-only code: the tests compare pflens.dipole against these integrals
of radiation_pattern, and the library never calls them. An error
estimate above 1e-8 fails the calling test.
"""

from __future__ import annotations

import math

from scipy.integrate import dblquad, quad

from pflens.dipole import EmissionChannel, radiation_pattern

_QUAD_ABS_TOL = 1e-10
_MAX_ERROR_ESTIMATE = 1e-8


def collection_fraction_quadrature(channel: EmissionChannel, theta_max: float) -> float:
    """Collection fraction by direct 2-D solid-angle quadrature; tolerance 1e-10."""
    value, estimate = dblquad(
        lambda theta, phi: float(radiation_pattern(channel, theta, phi))
        * math.sin(theta),
        0.0,
        2.0 * math.pi,
        0.0,
        theta_max,
        epsabs=_QUAD_ABS_TOL,
        epsrel=1e-12,
    )
    assert estimate <= _MAX_ERROR_ESTIMATE, (
        f"collection quadrature did not converge (error estimate {estimate:.2e})"
    )
    return value


def gaussian_overlap_oracle(channel: EmissionChannel, gaussian_divergence: float) -> float:
    """Emission fraction weighted by a Gaussian far-field acceptance.

    Integrates radiation_pattern against the Gaussian intensity
    acceptance exp(-2 sin^2 theta / sin^2 theta_0) over the forward
    hemisphere, theta_0 in (0, pi/2) being the 1/e^2 divergence
    half-angle. This is the slow reference for the top-hat shortcut,
    which evaluates collection_fraction at asin(sin(theta_0) / sqrt(2)).
    """
    sine_sq = math.sin(gaussian_divergence) ** 2

    if channel.orientation == "polar":

        def integrand(theta: float) -> float:
            weight = math.exp(-2.0 * math.sin(theta) ** 2 / sine_sq)
            return (
                2.0
                * math.pi
                * float(radiation_pattern(channel, theta))
                * weight
                * math.sin(theta)
            )

        value, estimate = quad(
            integrand, 0.0, math.pi / 2, epsabs=_QUAD_ABS_TOL, epsrel=1e-12, limit=200
        )
    else:

        def integrand(theta: float, phi: float) -> float:
            weight = math.exp(-2.0 * math.sin(theta) ** 2 / sine_sq)
            return (
                float(radiation_pattern(channel, theta, phi))
                * weight
                * math.sin(theta)
            )

        value, estimate = dblquad(
            integrand,
            0.0,
            2.0 * math.pi,
            0.0,
            math.pi / 2,
            epsabs=_QUAD_ABS_TOL,
            epsrel=1e-12,
        )
    assert estimate <= _MAX_ERROR_ESTIMATE, (
        f"overlap quadrature did not converge (error estimate {estimate:.2e})"
    )
    return value
