"""Bounded nonlinear least squares for a stack of independent problems.

The one solver behind beamfit's edge and caustic fits: Levenberg-Marquardt
with diag(J^T J) scaling (Marquardt, SIAM J. Appl. Math. 11, 431, 1963),
then a short Gauss-Newton polish, run on many problems at once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FitError

_STEP_TOL = 1e-10
_COST_TOL = 1e-14
_POLISH_STEPS = 5


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for each row of two (k, n) stacks, rounded as the 1-D product rounds it."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_norm(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a (k, n) stack, to the bit."""
    return np.sqrt(_row_dot(a, a))


def _transpose_times(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m[i].T @ v[i] for each problem i of a stack."""
    return np.matmul(np.swapaxes(m, 1, 2), v[:, :, None])[:, :, 0]


def solve_bounded(residuals, jacobian, start, lower, upper, what: str, max_evaluations: int):
    """Minimize cost = |residuals(x)|^2 / 2 over lower <= x <= upper, for a
    stack of independent problems.

    start is (B, P), one row per problem; lower and upper broadcast to it.
    residuals(rows, x) returns the (k, n) residuals and jacobian(rows, x)
    the (k, n, P) Jacobians of the problems `rows` (an increasing index
    array) at their points x (k, P). jacobian is asked only for rows of
    the last residuals call, at that call's points, so it may reuse what
    that call computed.

    Each problem runs its own Levenberg-Marquardt with Marquardt's
    diag(J^T J) scaling: in the variables d x, with d the running largest
    column norms of its J, each damped step comes from one SVD of J / d
    per accepted point, so a refused trial costs a residual evaluation and
    no factorization. Trial points are clipped into the bounds and kept
    only when their cost is finite and lower; the damping falls tenfold
    after a kept trial and rises tenfold after a refused one. A problem
    stops when a kept step is below _STEP_TOL relative to x or drops the
    cost by less than _COST_TOL relative, or when a proposed step is that
    short or the linear model predicts it that small a drop (no lower cost
    is reachable above rounding). Up to _POLISH_STEPS undamped
    Gauss-Newton steps follow, each kept while it is shorter than the step
    before it and longer than eps |x|: they carry x from within the step
    tolerance to the stationary point itself, to rounding.

    The problems still iterating share one residual call, one Jacobian
    call and one stacked SVD per iteration. Every operation acts on each
    problem alone, in the order a lone problem would see, so a problem's
    result does not depend on the rest of its stack, and only finite
    Jacobians reach the SVD (which refuses a whole stack for one bad
    member).

    Returns (x, cost, jac, errors): the final points (B, P), costs (B,) and
    Jacobians (B, n, P), and a dict from row to the FitError naming `what`
    that ended that problem: residuals not finite at the start, a Jacobian
    that is not finite at an accepted point, or max_evaluations residual
    evaluations passed before a stopping rule held. The entries of a failed
    row in x, cost and jac are meaningless.
    """
    x = np.array(start, dtype=float)
    count, n_params = x.shape
    lower = np.broadcast_to(lower, x.shape)
    upper = np.broadcast_to(upper, x.shape)
    evaluations = np.zeros(count, dtype=int)
    errors = {}

    def evaluate(rows, points):
        evaluations[rows] += 1
        # a trial where the model overflows is refused, not warned about
        with np.errstate(all="ignore"):
            values = residuals(rows, points)
            value = 0.5 * _row_dot(values, values)
        return values, np.where(np.isfinite(value), value, np.inf)

    every = np.arange(count)
    r, cost = evaluate(every, x)
    n_residuals = r.shape[1]
    rank = min(n_residuals, n_params)
    jac = np.zeros((count, n_residuals, n_params))
    scale = np.zeros_like(x)
    d = np.ones_like(x)
    s = np.zeros((count, rank))
    vt = np.zeros((count, rank, n_params))
    ur = np.zeros((count, rank))
    iterating = np.isfinite(cost)
    polishing = np.zeros(count, dtype=bool)
    for row in every[~iterating]:
        errors[int(row)] = FitError(f"{what} residuals are not finite at the start point")

    def accept(rows, points, values, costs):
        # move the rows to their new points and factor there: the scaling d,
        # the SVD of J / d and u^T r in its left basis
        if not rows.size:
            return
        x[rows], r[rows], cost[rows] = points, values, costs
        with np.errstate(all="ignore"):
            new = jac[rows] = jacobian(rows, points)
            norms = np.linalg.norm(new, axis=1)
        finite = np.isfinite(norms).all(axis=1)
        if not finite.all():
            for row in rows[~finite]:
                errors[int(row)] = FitError(
                    f"{what} Jacobian is not finite", residual=2.0 * cost[row]
                )
                iterating[row] = polishing[row] = False
            rows, new, norms = rows[finite], new[finite], norms[finite]
        scale[rows] = np.maximum(scale[rows], norms)
        d[rows] = np.where(scale[rows] > 0, scale[rows], 1.0)
        u, s[rows], vt[rows] = np.linalg.svd(new / d[rows, None, :], full_matrices=False)
        ur[rows] = _transpose_times(u, r[rows])

    rows = every[iterating]
    accept(rows, x[rows], r[rows], cost[rows])
    damping = np.full(count, 1e-3)
    last_step = np.full(count, math.inf)
    while iterating.any():
        rows = np.flatnonzero(iterating)
        sr, urr, xr = s[rows], ur[rows], x[rows]
        t = sr * urr / (sr * sr + damping[rows, None])
        # the drop in cost the linear model predicts for the unclipped step
        predicted = _row_dot(t, sr * urr) - _row_dot(0.5 * (sr * t), sr * t)
        trial = np.clip(xr - _transpose_times(vt[rows], t) / d[rows], lower[rows], upper[rows])
        step = _row_norm(trial - xr)
        small = step <= _STEP_TOL * (_STEP_TOL + _row_norm(xr))
        stop = small | (predicted <= _COST_TOL * cost[rows])
        spent = ~stop & (evaluations[rows] >= max_evaluations)
        for row in rows[spent]:
            errors[int(row)] = FitError(
                f"{what} did not converge within {max_evaluations} evaluations",
                residual=2.0 * cost[row],
            )
        iterating[rows[stop | spent]] = False
        polishing[rows[stop]] = True
        go = ~(stop | spent)
        if not go.any():
            continue
        rows, trial, step, small = rows[go], trial[go], step[go], small[go]
        trial_r, trial_cost = evaluate(rows, trial)
        kept = trial_cost < cost[rows]
        damping[rows[~kept]] *= 10.0
        rows, trial, trial_r, trial_cost = rows[kept], trial[kept], trial_r[kept], trial_cost[kept]
        converged = small[kept] | (cost[rows] - trial_cost <= _COST_TOL * cost[rows])
        iterating[rows[converged]] = False
        polishing[rows[converged]] = True
        damping[rows] /= 10.0
        last_step[rows] = step[kept]
        accept(rows, trial, trial_r, trial_cost)

    eps = np.finfo(float).eps
    for _ in range(_POLISH_STEPS):
        polishing &= evaluations < max_evaluations
        rows = np.flatnonzero(polishing)
        sr, urr, xr = s[rows], ur[rows], x[rows]
        keep = sr > sr[:, :1] * eps * max(n_residuals, n_params)
        newton = np.divide(urr, sr, out=np.zeros_like(urr), where=keep)
        trial = np.clip(xr - _transpose_times(vt[rows], newton) / d[rows], lower[rows], upper[rows])
        step = _row_norm(trial - xr)
        moves = (eps * _row_norm(xr) < step) & (step < last_step[rows])
        rows, trial, step = rows[moves], trial[moves], step[moves]
        if not rows.size:
            break
        trial_r, trial_cost = evaluate(rows, trial)
        finite = np.isfinite(trial_cost)
        # the rest stop: no shorter step, or no finite cost there
        polishing[:] = False
        polishing[rows[finite]] = True
        rows = rows[finite]
        last_step[rows] = step[finite]
        accept(rows, trial[finite], trial_r[finite], trial_cost[finite])
    return x, cost, jac, errors
