"""Knife-edge beam profiling: scan reduction and Gaussian caustic fits.

A razor blade stepped across a Gaussian beam transmits

    P(x) = background + (P_total / 2) erfc(sqrt(2) (x - center) / w)

when the blade cuts IN (covering increasing x), and the complement when
it backs OUT. Fitting one scan yields the 1/e^2 intensity radius w at a
single axial position. Fitting w^2 against z with

    w^2(z) = w0^2 + (m2 lam / (pi w0))^2 (z - z0)^2

yields the waist w0, the propagation factor m2 (>= 1 for physical
beams), and the focus location z0. Scans tagged "in" may carry a common
axial shift relative to "out" scans (a systematic artifact of the scan
direction); the caustic fit exposes it as a fourth parameter,
direction_offset, fixed to zero when only one direction is present.

Both fits use analytic Jacobians and one bounded least-squares solver,
solve_bounded (pflens._lsq): Levenberg-Marquardt with diag(J^T J) scaling (Marquardt,
SIAM J. Appl. Math. 11, 431, 1963), whose trial points are clipped into
the fit's bounds and kept only when their cost is finite and lower. It
stops at a relative step of 1e-10, a relative cost drop of 1e-14, or
where no lower cost is reachable, within 200 model evaluations; then up
to 5 undamped Gauss-Newton steps carry the point to the stationary point
itself, so a rounding-level change in the data moves the fitted values
by a rounding-level amount. Results are deterministic.

The solver works on a stack of problems. fit_scans fits all scans of one
sample count together, sharing one model evaluation and one stacked SVD
per iteration, and the caustic fit is a stack of one. Each problem keeps
its own damping, stopping rules, evaluation budget and failure, and every
operation acts on each problem alone, so fitting is batch invariant: a
scan's waist and uncertainty are the same to the bit whether it is
fitted alone, among others or in any order.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._csv import csv_text, read_text
from ._erfc import erfc
from ._lsq import solve_bounded
from .errors import DomainError, FitError, SchemaError, require

_MIN_SCAN_SAMPLES = 8
MIN_CAUSTIC_POINTS = 5
_DIRECTIONS = ("in", "out")

# normalized transmission levels a distance w / sqrt(2) either side of
# the edge center: erfc(-1) / 2 and erfc(1) / 2
_LEVEL_HIGH = 0.9213503964748574
_LEVEL_LOW = 0.07864960352514257

_MAX_MODEL_EVALS = 200
# largest waist and far-field radius caustic_radius takes [m]: squares overflow from 1.3e154 m
_MAX_WAIST = 1e150
# largest (w_max / w_min)^2 / weight the caustic fit takes: a point's scaled residual and
# Jacobian row are about that size, so their squares stay far below the float limit
_MAX_WEIGHTED = 1e150
# largest |min| + |max| of a scan's blade positions [m]: the edge fit's span max - min,
# its max + min and a fitted width of up to 100 spans stay inside the float range
_MAX_BLADE_EXTENT = 1e300
# largest noise_fraction synthesis takes: a power sample p times 1 + noise_fraction z, for any
# standard normal draw z (|z| < 40), stays below the 1.8e308 float limit for p up to 1e150
_MAX_NOISE = 1e150


def _check_direction(direction: str) -> None:
    if direction not in _DIRECTIONS:
        raise DomainError(f"direction must be 'in' or 'out', got {direction!r}")


@dataclass(frozen=True)
class KnifeEdgeScan:
    """One knife-edge scan: transmitted power vs blade position.

    z is the axial position of the scan [m]. blade_positions [m] must be
    strictly monotone (either direction of travel); powers are
    transmitted powers in consistent but arbitrary units, non-negative.
    direction records whether the blade was cutting into the beam
    ("in", transmission falling with position) or backing out ("out").
    """

    z: float
    blade_positions: np.ndarray
    powers: np.ndarray
    direction: str = "in"

    def __post_init__(self):
        positions = np.asarray(self.blade_positions, dtype=float)
        powers = np.asarray(self.powers, dtype=float)
        object.__setattr__(self, "blade_positions", positions)
        object.__setattr__(self, "powers", powers)
        require(math.isfinite(self.z), "scan position", "finite", self.z)
        if positions.ndim != 1 or powers.ndim != 1:
            raise DomainError("blade_positions and powers must be 1-D sequences")
        if positions.size != powers.size:
            raise DomainError(
                f"blade_positions and powers disagree in length "
                f"({positions.size} vs {powers.size})"
            )
        n = positions.size
        require(n >= _MIN_SCAN_SAMPLES, "a scan's sample count", f"at least {_MIN_SCAN_SAMPLES}", n)
        if not np.all(np.isfinite(positions)) or not np.all(np.isfinite(powers)):
            raise DomainError("scan samples must be finite")
        steps = np.diff(positions)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise DomainError("blade_positions must be strictly monotone")
        # Python floats: an overflowing sum is inf, with no warning
        first, last = float(positions.min()), float(positions.max())
        require(
            abs(first) + abs(last) <= _MAX_BLADE_EXTENT,
            "the blade positions' span",
            f"within |min| + |max| <= {_MAX_BLADE_EXTENT:g} m",
            f"{first:g} to {last:g} m",
        )
        lowest = powers.min()
        require(lowest >= 0, "powers", "non-negative", lowest)
        _check_direction(self.direction)


@dataclass(frozen=True)
class WaistPoint:
    """Fitted 1/e^2 radius at one axial position.

    w and w_uncertainty in meters; w_uncertainty is the 1 sigma value
    from the scan-fit covariance. direction is inherited from the scan.
    """

    z: float
    w: float
    w_uncertainty: float
    direction: str = "in"

    def __post_init__(self):
        require(self.w > 0, "fitted radius", "> 0", self.w)
        require(self.w_uncertainty >= 0, "radius uncertainty", ">= 0", self.w_uncertainty)
        _check_direction(self.direction)


@dataclass(frozen=True)
class CausticFit:
    """Gaussian caustic parameters fitted to waist-vs-z data.

    w0 is the 1/e^2 waist radius [m], m2 the beam propagation factor,
    z0 the focus location [m], and direction_offset [m] the common
    axial shift of "in"-direction points relative to "out" ones (zero,
    and not fitted, when the data contain a single direction).
    covariance is the 4 x 4 matrix over (w0, m2, z0, direction_offset);
    warnings carries conditioning or physicality notes.
    """

    w0: float
    m2: float
    z0: float
    direction_offset: float
    covariance: np.ndarray
    warnings: tuple = field(default=())

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "warnings", tuple(self.warnings))
        require(self.w0 > 0, "w0", "> 0", self.w0)
        require(self.m2 > 0, "m2", "> 0", self.m2)
        if cov.shape != (4, 4):
            raise DomainError(f"covariance must be 4 x 4, got shape {cov.shape}")
        scale = float(np.max(np.abs(cov))) if cov.size else 0.0
        if not np.allclose(cov, cov.T, atol=1e-12 * (1.0 + scale)):
            raise DomainError("covariance must be symmetric")
        if np.linalg.eigvalsh(0.5 * (cov + cov.T)).min() < -1e-9 * (1.0 + scale):
            raise DomainError("covariance must be positive semidefinite")

    @property
    def w0_uncertainty(self) -> float:
        return float(np.sqrt(max(self.covariance[0, 0], 0.0)))

    @property
    def m2_uncertainty(self) -> float:
        return float(np.sqrt(max(self.covariance[1, 1], 0.0)))

    @property
    def z0_uncertainty(self) -> float:
        return float(np.sqrt(max(self.covariance[2, 2], 0.0)))

    @property
    def direction_offset_uncertainty(self) -> float:
        return float(np.sqrt(max(self.covariance[3, 3], 0.0)))


# ---------------------------------------------------------------------------
# models and analytic Jacobians


def _edge_sign(w: float, direction: str) -> float:
    """+1 for "in" and -1 for "out", once w and direction are checked."""
    require(w > 0, "w", "> 0", w)
    _check_direction(direction)
    return 1.0 if direction == "in" else -1.0


# the knife-edge model and its Jacobian broadcast over their arguments: the
# public functions pass scalars, the stacked edge fit (k, 1) columns against
# (k, n) positions, with the same operations in the same order. Both take
# erfc(t) from the caller, so the edge fit computes it once per point

def _edge_argument(x, center, w, sign):
    """t = sign sqrt(2) (x - center) / w."""
    return sign * math.sqrt(2.0) * (x - center) / w


def _edge_model(erfc_t, total, background):
    return background + 0.5 * total * erfc_t


def _edge_jacobian(t, erfc_t, total, w, sign) -> np.ndarray:
    gauss = np.exp(-(t**2)) / math.sqrt(math.pi)
    jac = np.empty(t.shape + (4,))
    jac[..., 0] = 0.5 * erfc_t
    jac[..., 1] = total * sign * math.sqrt(2.0) / w * gauss
    jac[..., 2] = total * t / w * gauss
    jac[..., 3] = 1.0
    return jac


def knife_edge_model(
    blade_position,
    total_power: float,
    center: float,
    w: float,
    *,
    direction: str = "in",
    background: float = 0.0,
):
    """Transmitted power past a knife edge cutting a Gaussian beam.

    For direction "in" the transmission falls from background +
    total_power to background as the blade position sweeps upward; "out"
    is the mirror image. w is the 1/e^2 intensity radius [m].
    """
    sign = _edge_sign(w, direction)
    t = _edge_argument(np.asarray(blade_position, dtype=float), center, w, sign)
    return _edge_model(erfc(t), total_power, background)


def knife_edge_jacobian(
    blade_position,
    total_power: float,
    center: float,
    w: float,
    *,
    direction: str = "in",
    background: float = 0.0,
) -> np.ndarray:
    """Jacobian of knife_edge_model wrt (total_power, center, w, background).

    Returns an (n, 4) array for n blade positions, matching the
    parameter order used by fit_scan.
    """
    sign = _edge_sign(w, direction)
    x = np.atleast_1d(np.asarray(blade_position, dtype=float))
    t = _edge_argument(x, center, w, sign)
    return _edge_jacobian(t, erfc(t), total_power, w, sign)


def caustic_radius(z, w0: float, m2: float, z0: float, wavelength: float):
    """1/e^2 radius of a Gaussian caustic at axial position z [m]."""
    if not (0 < w0 <= _MAX_WAIST):
        raise DomainError(f"w0 must be > 0 and <= {_MAX_WAIST:g} m, got {w0}")
    require(m2 > 0, "m2", "> 0", m2)
    require(0 < wavelength < math.inf, "wavelength", "finite and > 0", wavelength)
    theta = m2 * wavelength / (math.pi * w0)
    far = float(np.max(np.abs(np.asarray(z, dtype=float) - z0), initial=0.0))
    if not (theta * far <= _MAX_WAIST):  # before (theta u)^2 overflows
        raise DomainError(
            f"m2 {m2:g} at wavelength {wavelength:g} m spreads the caustic "
            f"past {_MAX_WAIST:g} m at |z - z0| = {far:g} m"
        )
    return np.sqrt(caustic_squared_model(z, 0.0, w0, m2, z0, 0.0, wavelength))


def caustic_squared_model(
    z,
    in_direction,
    w0: float,
    m2: float,
    z0: float,
    direction_offset: float,
    wavelength: float,
):
    """w^2 at recorded positions z, with "in" points shifted by the offset.

    in_direction is 1 where the point came from an "in"-moving scan and
    0 otherwise; those recorded positions sit direction_offset beyond
    the true axial position.
    """
    z = np.asarray(z, dtype=float)
    ind = np.asarray(in_direction, dtype=float)
    u = z - direction_offset * ind - z0
    theta = m2 * wavelength / (math.pi * w0)
    return w0**2 + (theta * u) ** 2


def caustic_squared_jacobian(
    z,
    in_direction,
    w0: float,
    m2: float,
    z0: float,
    direction_offset: float,
    wavelength: float,
) -> np.ndarray:
    """Jacobian of caustic_squared_model wrt (w0, m2, z0, direction_offset)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    ind = np.atleast_1d(np.asarray(in_direction, dtype=float))
    u = z - direction_offset * ind - z0
    beta = wavelength / (math.pi * w0)
    mb2 = (m2 * beta) ** 2
    jac = np.empty((z.size, 4))
    jac[:, 0] = 2.0 * w0 - 2.0 * mb2 * u**2 / w0
    jac[:, 1] = 2.0 * m2 * beta**2 * u**2
    jac[:, 2] = -2.0 * mb2 * u
    jac[:, 3] = -2.0 * mb2 * u * ind
    return jac


# ---------------------------------------------------------------------------
# scan fitting

# lower bound on the normalized edge width; a fit ending within twice it has collapsed
_EDGE_W_FLOOR = 1e-6


def _initial_edge_parameters(u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Crude (total, center, w, background) starts in normalized units.

    u are blade positions scaled to O(1), q powers scaled to [0, 1], one
    scan per row; the center and width come from the 50% and erfc(+-1)/2
    quantile crossings (the latter sit w / sqrt(2) either side of the
    center).
    """
    rows = np.arange(u.shape[0])

    def crossing(level):
        return u[rows, np.argmin(np.abs(q - level), axis=1)]

    w = np.abs(crossing(_LEVEL_LOW) - crossing(_LEVEL_HIGH)) / math.sqrt(2.0)
    spacing = np.median(np.abs(np.diff(u, axis=1)), axis=1)
    return np.stack(
        [np.ones_like(w), crossing(0.5), np.maximum(w, spacing), np.zeros_like(w)], axis=1
    )


def fit_scan(scan: KnifeEdgeScan) -> WaistPoint:
    """Least-squares edge fit of one scan; returns the 1/e^2 radius.

    Fits (total_power, center, w, background) with the analytic
    Jacobian, bounded so that total_power >= 0 and w > 0. Internally
    the problem is solved in normalized units (positions scaled by
    their span, powers by their range) so convergence thresholds act on
    O(1) quantities regardless of physical magnitudes. The returned
    uncertainty is the 1 sigma value from the residual-scaled
    covariance. This is fit_scans([scan])[0].

    Raises FitError when the data are rank deficient (constant power)
    or the solver fails to converge within the evaluation budget.
    """
    result = fit_scans([scan])[0]
    if isinstance(result, FitError):
        raise result
    return result


def fit_scans(scans) -> list[WaistPoint | FitError]:
    """Edge fits of many scans: each scan's WaistPoint, or the FitError
    fit_scan would raise for it, in the order given.

    Scans with the same sample count are solved as one stack (padding
    others to it would change the SVD's rounding). Each scan keeps its own
    iteration, stopping rules, evaluation budget and failure, so its result
    is the same to the bit whatever else the call fits.
    """
    scans = list(scans)
    results = [None] * len(scans)
    stacks: dict = {}
    for index, scan in enumerate(scans):
        stacks.setdefault(scan.blade_positions.size, []).append(index)
    for indices in stacks.values():
        for index, result in zip(indices, _fit_edge_stack([scans[i] for i in indices])):
            results[index] = result
    return results


def _fit_edge_stack(scans) -> list:
    """fit_scans for scans that share one sample count."""
    x = np.array([scan.blade_positions for scan in scans])
    p = np.array([scan.powers for scan in scans])
    power_span = p.max(axis=1) - p.min(axis=1)
    flat = (power_span <= 0) | (power_span < 1e-12 * np.abs(p).max(axis=1))
    results = [
        FitError("rank-deficient scan: transmitted power is constant, no edge to fit")
        if constant
        else None
        for constant in flat
    ]
    fitted = np.flatnonzero(~flat)
    if not fitted.size:
        return results
    x, p, power_span = x[fitted], p[fitted], power_span[fitted]
    position_span = x.max(axis=1) - x.min(axis=1)
    x_mid = 0.5 * (x.max(axis=1) + x.min(axis=1))
    u = (x - x_mid[:, None]) / position_span[:, None]
    q = (p - p.min(axis=1)[:, None]) / power_span[:, None]
    sign = np.array([[1.0 if scans[i].direction == "in" else -1.0] for i in fitted])

    lower = np.array([0.0, -1.5, _EDGE_W_FLOOR, -np.inf])
    upper = np.array([np.inf, 1.5, 100.0, np.inf])
    start = np.clip(_initial_edge_parameters(u, q), lower, upper)

    # solve_bounded asks for a Jacobian only for rows of its last residuals
    # call, in order, at that call's points: t and erfc(t) are taken from it
    last = {}

    def residuals(rows, params):
        total, center, w, background = params.T[:, :, None]
        t = _edge_argument(u[rows], center, w, sign[rows])
        erfc_t = erfc(t)
        last.update(rows=rows, t=t, erfc_t=erfc_t)
        return _edge_model(erfc_t, total, background) - q[rows]

    def jacobian(rows, params):
        total, _, w, _ = params.T[:, :, None]
        evaluated = last["rows"]
        at = slice(None) if rows.size == evaluated.size else np.searchsorted(evaluated, rows)
        return _edge_jacobian(last["t"][at], last["erfc_t"][at], total, w, sign[rows])

    solution, cost, jac, errors = solve_bounded(
        residuals, jacobian, start, lower, upper, "edge fit", _MAX_MODEL_EVALS
    )
    for row, error in errors.items():
        results[fitted[row]] = error
    solved = np.array([row not in errors for row in range(fitted.size)])
    w_scaled = solution[:, 2]
    collapsed = w_scaled <= 2.0 * _EDGE_W_FLOOR
    for row in np.flatnonzero(solved & collapsed):
        results[fitted[row]] = FitError(
            "edge fit collapsed to zero width", residual=2.0 * cost[row]
        )
    rows = np.flatnonzero(solved & ~collapsed)
    jtj = np.matmul(np.swapaxes(jac[rows], 1, 2), jac[rows])
    singular = np.linalg.cond(jtj) > 1e14
    for row in rows[singular]:
        results[fitted[row]] = FitError(
            "rank-deficient scan: edge parameters are not independently "
            "determined by these samples",
            residual=2.0 * cost[row],
        )
    rows = rows[~singular]
    dof = x.shape[1] - 4  # at least 4: a scan has _MIN_SCAN_SAMPLES = 8 or more
    variance = np.linalg.inv(jtj[~singular])[:, 2, 2] * (2.0 * cost[rows] / dof)
    widths = w_scaled[rows] * position_span[rows]
    sigmas = np.sqrt(np.maximum(variance, 0.0)) * position_span[rows]
    for row, w, sigma in zip(rows, widths, sigmas):
        scan = scans[fitted[row]]
        results[fitted[row]] = WaistPoint(
            z=scan.z, w=float(w), w_uncertainty=float(sigma), direction=scan.direction
        )
    return results


# ---------------------------------------------------------------------------
# caustic fitting


def _in_indicator(points) -> np.ndarray:
    """1.0 for each point from an "in"-moving scan, else 0.0."""
    return np.array([1.0 if point.direction == "in" else 0.0 for point in points])


def fit_caustic(points, wavelength: float) -> CausticFit:
    """Weighted least squares of w^2 vs z over a set of WaistPoints.

    Residuals are weighted by the propagated uncertainty of w^2,
    2 w sigma_w, falling back to an unweighted fit (with a warning)
    when any point lacks a positive uncertainty. direction_offset is
    fitted only when both blade directions are present; otherwise it is
    fixed to zero and its covariance entries are zero.

    Raises DomainError for fewer than MIN_CAUSTIC_POINTS points, waists
    outside [1e-150, 1e150] m or spanning a ratio whose square overflows,
    a z span that overflows, or a weight that overflows, underflows to 0
    or is too small for its residual to square to a float; FitError when
    the solver fails or the fitted waist collapses toward zero.
    """
    points = list(points)
    require(wavelength > 0, "wavelength", "> 0", wavelength)
    least = MIN_CAUSTIC_POINTS
    require(len(points) >= least, "a caustic fit's point count", f"at least {least}", len(points))
    z = np.array([pt.z for pt in points])
    w = np.array([pt.w for pt in points])
    sigma = np.array([pt.w_uncertainty for pt in points])
    # the squares of the waists, and the fit's variances in m^2, must be
    # finite and nonzero
    lowest, highest = float(np.min(w)), float(np.max(w))
    require(
        1.0 / _MAX_WAIST <= lowest and highest <= _MAX_WAIST,
        "a caustic fit's waists",
        f"in [{1.0 / _MAX_WAIST:g}, {_MAX_WAIST:g}] m",
        f"{lowest:g} to {highest:g} m",
    )
    # refused before (w / w_scale)^2 and z.max() - z.min() can overflow; on
    # Python floats an overflow is inf, not a warning
    ratio = highest / lowest
    rule = "small enough to square (below 1.34e+154)"
    name = "a caustic fit's largest-to-smallest waist ratio"
    require(ratio * ratio < math.inf, name, rule, f"{ratio:.3g}")
    z_low, z_high = float(z.min()), float(z.max())
    span = z_high - z_low
    require(span < math.inf, "a caustic fit's z span", "finite", f"{z_low:g} to {z_high:g} m")
    ind = _in_indicator(points)
    mixed = 0.0 < ind.mean() < 1.0

    # normalize: waists by the smallest w, axial positions by the half
    # span, so the solver's tolerances act on O(1) numbers
    i_min = int(np.argmin(w))
    w_scale = float(w[i_min])
    z_scale = 0.5 * span
    if z_scale <= 0:
        raise DomainError("caustic fit needs points at distinct z positions")
    zeta = (z - z[i_min]) / z_scale
    omega = (w / w_scale) ** 2
    # wavelength rescaled so the model keeps its form in scaled units
    lam_scaled = wavelength * z_scale / w_scale**2
    # the model at the start point is 1 + (lam_scaled zeta / pi)^2 with |zeta| <= 2:
    # far from overflow while lam_scaled <= 1e150
    if not (lam_scaled <= 1e150):
        raise DomainError(
            f"caustic model overflows at the fit's start point: wavelength {wavelength} m "
            f"against a {w_scale:.3g} m smallest waist over a {2 * z_scale:.3g} m z span"
        )

    notes = []
    if np.all(sigma > 0):
        # on Python floats, so an overflow is inf and an underflow 0, not a warning
        weight = np.array([2.0 * pt.w * pt.w_uncertainty / w_scale**2 for pt in points])
        for i in (int(np.argmax(weight)), int(np.argmin(weight))):
            name = f"caustic fit point {i}'s weight 2 w sigma_w / w_min^2"
            value = f"w = {w[i]:g} m, sigma_w = {sigma[i]:g} m, w_min = {w_scale:g} m"
            require(0.0 < weight[i] < math.inf, name, "finite and nonzero", value)
        # i is now the smallest weight's point; its residual and Jacobian row
        # are about (w_max / w_min)^2 / weight, and their squares must not overflow
        floor = ratio * ratio / _MAX_WEIGHTED
        rule = f"at least (w_max / w_min)^2 / {_MAX_WEIGHTED:g} = {floor:.3g}"
        require(weight[i] >= floor, name, rule, value)
    else:
        weight = np.ones_like(w)
        notes.append(
            "unweighted fit: at least one point lacks a positive w uncertainty"
        )

    w0_floor = 1e-6
    n_params = 4 if mixed else 3
    start = np.array([1.0, 1.0, 0.0, 0.0][:n_params])
    lower = np.array([w0_floor, 0.05, -np.inf, -np.inf][:n_params])
    upper = np.full(n_params, np.inf)

    def expand(params: np.ndarray) -> tuple[float, float, float, float]:
        if mixed:
            return params[0], params[1], params[2], params[3]
        return params[0], params[1], params[2], 0.0

    # a stack of one problem for solve_bounded
    def residuals(rows, params: np.ndarray) -> np.ndarray:
        a, m2, b, c = expand(params[0])
        model = caustic_squared_model(zeta, ind, a, m2, b, c, lam_scaled)
        return ((model - omega) / weight)[None]

    def jacobian(rows, params: np.ndarray) -> np.ndarray:
        a, m2, b, c = expand(params[0])
        jac = caustic_squared_jacobian(zeta, ind, a, m2, b, c, lam_scaled)
        return (jac[:, :n_params] / weight[:, None])[None]

    solutions, costs, jacs, errors = solve_bounded(
        residuals, jacobian, start[None], lower, upper, "caustic fit", _MAX_MODEL_EVALS
    )
    if errors:
        raise errors[0]
    solution, cost, jac = solutions[0], costs[0], jacs[0]
    a, m2, b, c = expand(solution)
    if a <= 2.0 * w0_floor:
        raise FitError(
            "caustic fit collapsed: fitted w0^2 is not positive", residual=2.0 * cost
        )
    # a Python float: pi w0^2 / wavelength below may pass the float range,
    # and becomes inf without a warning
    w0 = float(a * w_scale)
    z0 = b * z_scale + z[i_min]
    offset = c * z_scale

    jtj = jac.T @ jac
    if np.linalg.cond(jtj) > 1e14:
        notes.append("near-singular normal equations; uncertainties unreliable")
        reduced = np.linalg.pinv(jtj)
    else:
        reduced = np.linalg.inv(jtj)
    dof = z.size - n_params
    scale = 2.0 * cost / dof if dof > 0 else 0.0
    rescale = np.array([w_scale, 1.0, z_scale, z_scale][:n_params])
    block = 0.5 * (reduced + reduced.T) * scale * np.outer(rescale, rescale)
    covariance = np.zeros((4, 4))
    covariance[:n_params, :n_params] = block

    if m2 < 1.0:
        notes.append(
            f"fitted m2 = {m2:.4f} is below 1; physical beams satisfy m2 >= 1"
        )
    rayleigh = math.pi * w0**2 / wavelength
    if span < 2.0 * rayleigh:
        notes.append(
            f"z span {span:.3g} m is below two Rayleigh ranges "
            f"({2.0 * rayleigh:.3g} m); the fit is poorly conditioned"
        )

    return CausticFit(
        w0=float(w0),
        m2=float(m2),
        z0=float(z0),
        direction_offset=float(offset),
        covariance=covariance,
        warnings=tuple(notes),
    )


def derived_beam_parameters(fit: CausticFit, wavelength: float) -> dict:
    """Far-field half-angle and nominal Rayleigh range of a fitted caustic.

    divergence_half_angle = m2 lam / (pi w0) is the asymptotic slope of
    the fitted caustic; rayleigh_range = pi w0^2 / lam is the nominal
    (m2 = 1) value. Both formulas are paraxial and lose meaning as the
    angle approaches 1 rad.
    """
    require(wavelength > 0, "wavelength", "> 0", wavelength)
    return {
        "divergence_half_angle": fit.m2 * wavelength / (math.pi * fit.w0),
        "rayleigh_range": math.pi * fit.w0**2 / wavelength,
    }


# ---------------------------------------------------------------------------
# synthetic data (seeded; the only randomness in the package)


def _require_noise(noise_fraction: float, rng) -> None:
    rule = f"finite and in [0, {_MAX_NOISE:g}]"
    require(0 <= noise_fraction <= _MAX_NOISE, "noise_fraction", rule, noise_fraction)
    require(noise_fraction == 0 or rng is not None, "rng", "seeded for noisy synthesis", rng)


def synthetic_knife_edge_scan(
    z: float,
    w: float,
    center: float = 0.0,
    total_power: float = 1.0,
    background: float = 0.0,
    direction: str = "in",
    n_positions: int = 50,
    span_factor: float = 3.0,
    noise_fraction: float = 0.0,
    rng: np.random.Generator | None = None,
) -> KnifeEdgeScan:
    """Generate one knife-edge scan from the erfc model.

    Blade positions cover center +- span_factor * w. noise_fraction
    applies multiplicative Gaussian noise to each power sample and
    requires a seeded generator.
    """
    require(w > 0, "w", "> 0", w)
    require(
        n_positions >= _MIN_SCAN_SAMPLES, "n_positions", f">= {_MIN_SCAN_SAMPLES}", n_positions
    )
    # before np.linspace, which warns on an infinite span
    require(0 < span_factor < math.inf, "span_factor", "finite and > 0", span_factor)
    _require_noise(noise_fraction, rng)
    # a sample is at most |total_power| + |background|, and noise scales it by
    # 1 + noise_fraction z (|z| < 40): refused before that can overflow
    peak = abs(total_power) + abs(background)
    limit = np.finfo(float).max / (1.0 + 40.0 * noise_fraction)
    rule = f"<= {limit:.3g} at noise_fraction {noise_fraction:g}"
    require(peak <= limit, "|total_power| + |background|", rule, peak)
    positions = np.linspace(center - span_factor * w, center + span_factor * w, n_positions)
    powers = knife_edge_model(
        positions, total_power, center, w, direction=direction, background=background
    )
    if noise_fraction > 0:
        powers = powers * (1.0 + noise_fraction * rng.standard_normal(powers.size))
        powers = np.maximum(powers, 0.0)
    return KnifeEdgeScan(z=z, blade_positions=positions, powers=powers, direction=direction)


def _caustic_samples(z_positions, w0, m2, wavelength, z0, direction_offset, directions):
    """(recorded z, radius, direction) for each (z, direction) pair, in that order.

    The radius is the caustic's at the true z; "in" points record z + direction_offset.
    """
    for z in np.asarray(z_positions, dtype=float):
        radius = float(caustic_radius(z, w0, m2, z0, wavelength))
        for direction in directions:
            _check_direction(direction)
            yield float(z + direction_offset if direction == "in" else z), radius, direction


def synthetic_caustic_points(
    z_positions,
    w0: float,
    m2: float,
    wavelength: float,
    z0: float = 0.0,
    direction_offset: float = 0.0,
    directions=("in", "out"),
    noise_fraction: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list:
    """WaistPoints sampled from a caustic, one per (z, direction) pair.

    Points tagged "in" record an axial position shifted by
    direction_offset; the underlying beam radius is evaluated at the
    true position. noise_fraction perturbs each radius multiplicatively
    and is reported as the point uncertainty.
    """
    _require_noise(noise_fraction, rng)
    points = []
    samples = _caustic_samples(z_positions, w0, m2, wavelength, z0, direction_offset, directions)
    for recorded, radius, direction in samples:
        value = radius
        if noise_fraction > 0:
            value = radius * (1.0 + noise_fraction * float(rng.standard_normal()))
            value = max(value, 1e-3 * radius)
        points.append(
            WaistPoint(
                z=recorded, w=value, w_uncertainty=noise_fraction * radius, direction=direction
            )
        )
    return points


def synthetic_caustic_scans(
    z_positions,
    w0: float,
    m2: float,
    wavelength: float,
    z0: float = 0.0,
    direction_offset: float = 0.0,
    directions=("in", "out"),
    total_power: float = 1.0,
    background: float = 0.0,
    n_positions: int = 50,
    span_factor: float = 3.0,
    noise_fraction: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list:
    """Full knife-edge scans sampled along a caustic.

    One scan per (z, direction) pair, each generated by
    synthetic_knife_edge_scan at the local beam radius; "in" scans
    record positions shifted by direction_offset.
    """
    samples = _caustic_samples(z_positions, w0, m2, wavelength, z0, direction_offset, directions)
    return [
        synthetic_knife_edge_scan(
            z=recorded,
            w=radius,
            total_power=total_power,
            background=background,
            direction=direction,
            n_positions=n_positions,
            span_factor=span_factor,
            noise_fraction=noise_fraction,
            rng=rng,
        )
        for recorded, radius, direction in samples
    ]


# ---------------------------------------------------------------------------
# CSV interchange

SCAN_HEADER = ["z_m", "direction"]
SAMPLE_HEADER = ["blade_position_m", "power"]
COMBINED_HEADER = ["z_m", "blade_position_m", "power", "direction"]
CAUSTIC_CURVE_CSV_HEADER = ["z_m", "w_m"]


def scans_csv_text(scans) -> str:
    """Combined CSV with one row per sample across many scans."""
    rows = (
        (scan.z, position, power, scan.direction)
        for scan in scans
        for position, power in zip(scan.blade_positions, scan.powers)
    )
    return csv_text(COMBINED_HEADER, rows)


def _schema_mismatch(line_number: int, row, expected) -> SchemaError:
    for position, (got, want) in enumerate(zip(row, expected), start=1):
        if got.strip() != want:
            return SchemaError(
                f"line {line_number}: column {position} is {got.strip()!r}, "
                f"expected {want!r}"
            )
    return SchemaError(
        f"line {line_number}: expected {len(expected)} columns "
        f"({','.join(expected)}), got {len(row)}"
    )


def _parse_float(text: str, line_number: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SchemaError(
            f"line {line_number}: {column} value {text.strip()!r} is not a number"
        ) from None


def _parse_direction(text: str, line_number: int) -> str:
    value = text.strip()
    if value not in _DIRECTIONS:
        raise SchemaError(
            f"line {line_number}: direction must be 'in' or 'out', got {value!r}"
        )
    return value


def _read_single_scan(rows) -> list:
    if len(rows) < 2:
        raise SchemaError("scan file ends before the z_m,direction row")
    line_number, row = rows[1]
    if len(row) != 2:
        raise SchemaError(
            f"line {line_number}: expected z and direction values, got {len(row)} columns"
        )
    key = (_parse_float(row[0], line_number, "z_m"), _parse_direction(row[1], line_number))
    body = rows[2:]
    if body and [cell.strip() for cell in body[0][1]] == SAMPLE_HEADER:
        body = body[1:]
    positions, powers = [], []
    for line_number, row in body:
        if len(row) != 2:
            raise _schema_mismatch(line_number, row, SAMPLE_HEADER)
        positions.append(_parse_float(row[0], line_number, SAMPLE_HEADER[0]))
        powers.append(_parse_float(row[1], line_number, SAMPLE_HEADER[1]))
    return {key: (positions, powers)}


def _read_combined_scans(rows) -> dict:
    """Scans of a combined file, read in one pass over its rows with float()
    on each cell; the z text a scan repeats on every row is converted once.

    A malformed row is diagnosed where it is met, so the SchemaError names
    the first malformed line; a scan's direction is checked at its first row.
    """
    groups: dict = {}
    z_values: dict = {}
    for line_number, row in rows[1:]:
        try:
            z, position, power, direction = row
            value = z_values.get(z)
            if value is None:
                value = z_values[z] = float(z)
            position, power = float(position), float(power)
        except ValueError:  # a row of another length, or a cell that is not a number
            if len(row) != 4:
                raise _schema_mismatch(line_number, row, COMBINED_HEADER) from None
            for text, column in zip(row, COMBINED_HEADER[:3]):
                _parse_float(text, line_number, column)
            raise
        key = (value, direction.strip())
        samples = groups.get(key)
        if samples is None:
            _parse_direction(direction, line_number)
            samples = groups[key] = ([], [])
        samples[0].append(position)
        samples[1].append(power)
    return groups


def read_scans_csv(path) -> list:
    """Parse a scan CSV (single-scan or combined schema) into scans.

    The schema is chosen by the header row; anything else raises
    SchemaError naming the offending column and line, and a file that is
    not UTF-8 text raises SchemaError naming the path.
    """
    text = read_text(path, SchemaError)
    rows = [
        (number, row)
        for number, row in enumerate(csv.reader(io.StringIO(text)), start=1)
        if row
    ]
    if not rows:
        raise SchemaError("empty scan file")
    header = [cell.strip() for cell in rows[0][1]]
    if header == SCAN_HEADER:
        groups = _read_single_scan(rows)
    elif header == COMBINED_HEADER:
        if len(rows) < 2:
            raise SchemaError("combined scan file has a header but no samples")
        groups = _read_combined_scans(rows)
    else:
        expected = SCAN_HEADER if len(header) <= 2 else COMBINED_HEADER
        raise _schema_mismatch(rows[0][0], rows[0][1], expected)
    # one scan per (z, direction), in the order the file first names each
    return [
        KnifeEdgeScan(z=z, blade_positions=np.array(x), powers=np.array(p), direction=direction)
        for (z, direction), (x, p) in groups.items()
    ]


def caustic_curve_csv_text(
    fit: CausticFit, wavelength: float, z_min: float, z_max: float, n_points: int = 201
) -> str:
    """Fitted caustic sampled on a uniform z grid (plot data)."""
    require(z_max > z_min, "z_max", "> z_min", z_max)
    require(n_points >= 2, "n_points", ">= 2", n_points)
    grid = np.linspace(z_min, z_max, n_points)
    radii = caustic_radius(grid, fit.w0, fit.m2, fit.z0, wavelength)
    return csv_text(CAUSTIC_CURVE_CSV_HEADER, zip(grid, radii))


# ---------------------------------------------------------------------------
# report assembly


def waist_point_report(point: WaistPoint) -> dict:
    return {
        "z_m": point.z,
        "w_m": point.w,
        "w_uncertainty_m": point.w_uncertainty,
        "direction": point.direction,
    }


def caustic_fit_report(fit: CausticFit, points=None, wavelength: float | None = None) -> dict:
    """Plain-dict summary of a caustic fit for JSON emission.

    Includes per-point model residuals (w - model w) when points are
    given and derived beam parameters when the wavelength is given.
    """
    report = {
        "parameters": {
            "w0_m": fit.w0,
            "m2": fit.m2,
            "z0_m": fit.z0,
            "direction_offset_m": fit.direction_offset,
        },
        "uncertainties": {
            "w0_m": fit.w0_uncertainty,
            "m2": fit.m2_uncertainty,
            "z0_m": fit.z0_uncertainty,
            "direction_offset_m": fit.direction_offset_uncertainty,
        },
        "covariance": [[float(value) for value in row] for row in fit.covariance],
        "covariance_order": ["w0_m", "m2", "z0_m", "direction_offset_m"],
        "warnings": list(fit.warnings),
    }
    if points is not None and wavelength is not None:
        z = [point.z for point in points]
        model = np.sqrt(
            caustic_squared_model(
                z, _in_indicator(points), fit.w0, fit.m2, fit.z0, fit.direction_offset, wavelength
            )
        )
        report["points"] = [
            {**waist_point_report(point), "model_w_m": float(w), "residual_m": float(point.w - w)}
            for point, w in zip(points, model)
        ]
    if wavelength is not None:
        derived = derived_beam_parameters(fit, wavelength)
        report["derived"] = {
            "divergence_half_angle_rad": derived["divergence_half_angle"],
            "rayleigh_range_m": derived["rayleigh_range"],
        }
    return report


def bundled_caustic_dataset_path() -> Path:
    """Path of the packaged synthetic knife-edge dataset (combined CSV)."""
    return Path(__file__).resolve().parent / "data" / "caustic_scans.csv"
