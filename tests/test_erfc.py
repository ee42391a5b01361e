"""pflens._erfc: the numpy erfc behind the knife-edge model, checked against mpmath.

The coefficient table in pflens/_erfc.py is generated by coefficient_text below;
`python tests/test_erfc.py` prints it.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy import special

from pflens import _erfc, beamfit
from pflens._erfc import erfc

# largest relative error of erfc on the sample points below, as measured on
# the committed table (5.80e-16 at x = 20.68); scipy.special.erfc's on the
# same points is 5.7e-14, and 4.0e-15 over [-6, 6.9]
MAX_RELATIVE_ERROR = 5.8e-16


def piece_coefficients(k: int) -> list[float]:
    """P_k's coefficients of w^0 ... w^DEGREE, computed afresh with mpmath.

    P_k interpolates its target at the DEGREE + 1 Chebyshev points of
    |w| <= 1/16: erfc(x) exp(x^2 - x_k^2) for k >= 0, erfc(x) for k < 0,
    where x = x_k - w and x_k = k / 8.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(160):
        x_k = mpmath.mpf(k) / 8

        def target(w):
            value = mpmath.erfc(x_k - w)
            return value * mpmath.exp(-w * (2 * x_k - w)) if k >= 0 else value

        n = _erfc._DEGREE + 1
        nodes = [mpmath.cos(mpmath.pi * (j + mpmath.mpf(0.5)) / n) / 16 for j in range(n)]
        vandermonde = mpmath.matrix([[w**i for i in range(n)] for w in nodes])
        solved = mpmath.lu_solve(vandermonde, mpmath.matrix([target(w) for w in nodes]))
        scale = 2**_erfc._SCALE_BITS if k >= _erfc._FIRST_SCALED else 1
        return [float(solved[i] * scale) for i in range(n)]


def coefficient_text() -> str:
    """_erfc._COEFFICIENTS as committed: each piece on two lines of five numbers."""
    lines = []
    for k in range(_erfc._FIRST_PIECE, _erfc._LAST_PIECE + 1):
        row = [repr(c) for c in piece_coefficients(k)]
        lines += [" ".join(row[:5]), " ".join(row[5:])]
    return "\n".join(lines)


def sample_points() -> np.ndarray:
    """4001 points over [-6, 26.5] and 801 over the subnormal tail to 27.3."""
    return np.concatenate([np.linspace(-6.0, 26.5, 4001), np.linspace(26.5, 27.3, 801)[1:]])


def exact(points) -> list:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(120):
        return [mpmath.erfc(mpmath.mpf(float(x))) for x in points]


def relative_errors(values, reference) -> np.ndarray:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(120):
        errors = [abs(mpmath.mpf(float(v)) - r) / r for v, r in zip(values, reference)]
    return np.array([float(e) for e in errors])


def test_table_regenerates_from_mpmath():
    pieces = range(_erfc._FIRST_PIECE, _erfc._LAST_PIECE + 1)
    regenerated = np.array([piece_coefficients(k) for k in pieces])
    # the table pairs c_2m + i c_2m+1, one column per piece
    committed = np.ascontiguousarray(_erfc._TABLE.T).view(float)
    assert committed.shape == (len(pieces), _erfc._DEGREE + 3)
    assert np.array_equal(committed[:, : _erfc._DEGREE + 1], regenerated)


def test_relative_error_within_the_measured_bound_and_below_scipys():
    points = sample_points()
    reference = exact(points)
    normal = np.array([float(r) for r in reference]) >= np.finfo(float).tiny
    ours = relative_errors(erfc(points), reference)[normal]
    theirs = relative_errors(special.erfc(points), reference)[normal]
    assert ours.max() <= MAX_RELATIVE_ERROR
    assert ours.max() <= theirs.max()
    # also where scipy's own exp(-x^2) rounding is small
    central = np.abs(points[normal]) <= 6.9
    assert ours[central].max() <= theirs[central].max()


def test_subnormal_tail_to_the_underflow_point():
    # below 2.2e-308 the result keeps the same relative error, plus the half
    # step of the subnormal grid it rounds to; from about 27.226 it is 0
    mpmath = pytest.importorskip("mpmath")
    points = np.linspace(26.5, 27.3, 801)
    values = erfc(points)
    with mpmath.workprec(120):
        for x, value, reference in zip(points, values, exact(points)):
            error = abs(mpmath.mpf(float(value)) - reference)
            assert error <= MAX_RELATIVE_ERROR * reference + mpmath.mpf(2) ** -1075, x
    assert values[-1] == 0.0 and values[points < 27.2].min() > 0.0


def test_special_values_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = erfc(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324]))
    assert values[0] == 1.0 and values[1] == 1.0
    assert values[2] == 0.0 and values[3] == 2.0
    assert np.isnan(values[4])
    assert values[5] == 0.0 and values[6] == 2.0 and values[7] == 1.0


@pytest.mark.parametrize(
    "x, shape",
    [
        (0.5, ()),
        (np.float64(0.5), ()),
        (np.array(0.5), ()),
        ([0.5], (1,)),
        (np.zeros((2, 3)), (2, 3)),
        (np.zeros(0), (0,)),
    ],
    ids=["float", "numpy-scalar", "0-d", "list", "2-d", "empty"],
)
def test_shape_kept(x, shape):
    value = erfc(x)
    assert np.shape(value) == shape
    assert np.asarray(value).dtype == np.float64


def test_strided_and_integer_input_as_contiguous_float():
    x = np.linspace(-3.0, 3.0, 41)
    assert np.array_equal(erfc(x[::2]), erfc(x[::2].copy()))
    assert np.array_equal(erfc(np.arange(-3, 4)), erfc(np.arange(-3.0, 4.0)))


def test_close_to_scipy_without_mpmath():
    # a check that needs no mpmath: both functions are within 6e-14 relative
    # of the truth on [-6, 26.5]
    x = np.linspace(-6.0, 26.5, 2001)
    assert np.max(np.abs(erfc(x) / special.erfc(x) - 1.0)) < 1e-13


def test_edge_levels_are_half_erfc_of_one_to_an_ulp():
    assert abs(beamfit._LEVEL_HIGH - 0.5 * erfc(-1.0)) <= np.spacing(beamfit._LEVEL_HIGH)
    assert abs(beamfit._LEVEL_LOW - 0.5 * erfc(1.0)) <= np.spacing(beamfit._LEVEL_LOW)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(120):
        for level, x in ((beamfit._LEVEL_HIGH, -1), (beamfit._LEVEL_LOW, 1)):
            assert abs(level - float(mpmath.erfc(x) / 2)) <= np.spacing(level)


def test_negative_x_is_two_minus_erfc_of_minus_x_to_an_ulp():
    # the two sides come from separate pieces
    x = np.linspace(0.0, 30.0, 2401)
    assert np.max(np.abs(erfc(-x) - (2.0 - erfc(x)))) <= np.spacing(2.0)


if __name__ == "__main__":
    print(coefficient_text())
