"""Quasi-discrete Hankel transform of order zero.

Collocation on Bessel-function zeros: with j_1 < j_2 < ... the positive
roots of J0 and S = j_{N+1}, fields sampled at r_n = j_n R / S map to
angular spectra sampled at k_m = j_m / R. The transform pair used here
(k-space convention) is

    A(k_m) = 2 pi * (2 R^2 / S^2) * sum_n f(r_n) J0(j_m j_n / S) / J1(j_n)^2
    f(r_n) = sum_m A(k_m) J0(j_m j_n / S) / (pi R^2 J1(j_m)^2)

Both directions share the symmetric kernel J0(j_m j_n / S), so only one
N x N float64 matrix is stored. For N in the ten-thousands this matrix
is the dominant memory cost (8 N^2 bytes) and its N^2 Bessel
evaluations the dominant build time. The build evaluates only the upper
triangle, in blocks of rows filled in place, and mirrors each block into
the lower triangle, so the stored kernel is exactly symmetric.

Two stages share one row-block helper: the kernel build and
resample_matrix (the Fourier-Bessel rows that scan planes are resampled
through). Each fills disjoint row blocks of its output in place, on a
thread pool with one thread per CPU this process may use (its affinity
mask where the platform has one, else the CPU count); the Bessel ufunc
releases the interpreter lock. No entry's arithmetic depends on which
thread computes it or when, so both outputs are bit-identical whatever
the thread count.

forward and inverse take samples of shape (N,) or a stack of Z columns
of shape (N, Z) and return the same shape. A complex stack is viewed as
2Z interleaved float64 columns, so a single pass of BLAS-3 products over
the kernel's row blocks covers the real and imaginary parts of every
column: the kernel is read once per call, not twice per column.

The quadrature is spectrally accurate for fields that decay by r = R and
whose spectra decay by k = S / R.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import j0, j1, jn_zeros

from .errors import DomainError

_KERNEL_BLOCK_ROWS = 512
# resample_matrix has few rows (the fine grid, 512 by default), so its
# blocks are smaller for every CPU to get a share
_RESAMPLE_BLOCK_ROWS = 64
# total kernel bytes (8 N^2 per transform) get_transform keeps cached: one
# 18000-point kernel (2.6 GB) fits, two (5.2 GB) never do
_CACHE_MAX_BYTES = 4 * 1024**3


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_row_blocks(n_rows: int, block_rows: int, fill: Callable[[int, int], None]) -> None:
    """Call fill(start, stop) for each block of rows, one thread per usable CPU.

    The blocks must write disjoint parts of the output.
    """
    starts = range(0, n_rows, block_rows)
    with ThreadPoolExecutor(max_workers=max(1, min(_usable_cpus(), len(starts)))) as pool:
        # consuming the results re-raises any error from a block
        list(pool.map(lambda start: fill(start, min(start + block_rows, n_rows)), starts))


class HankelTransform:
    """Order-zero quasi-discrete Hankel transform on [0, R].

    Precomputes the Bessel-zero grid and the transform kernel once;
    instances are immutable after construction and safe to share.
    """

    def __init__(self, n_points: int, max_radius: float):
        if not (isinstance(n_points, int) and n_points >= 4):
            raise DomainError(f"n_points must be an integer >= 4, got {n_points}")
        if not (max_radius > 0):
            raise DomainError(f"max_radius must be > 0, got {max_radius}")
        self.n_points = n_points
        self.max_radius = float(max_radius)

        roots = jn_zeros(0, n_points + 1)
        self._j = roots[:n_points]
        self._S = roots[n_points]
        self.radii = self._j * (self.max_radius / self._S)
        self.k_radial = self._j / self.max_radius
        self._j1sq = j1(self._j) ** 2

        self._kernel = self._build_kernel()

        # quadrature weights for radial power integrals: 2 pi int |f|^2 r dr;
        # forward applies the kernel to samples times these weights
        self.power_weights = (4.0 * np.pi * self.max_radius**2 / self._S**2) / self._j1sq
        # same rule in k space: (1 / 2 pi) int |A|^2 k dk; inverse likewise
        self.spectral_power_weights = 1.0 / (np.pi * self.max_radius**2 * self._j1sq)

    def _build_kernel(self) -> np.ndarray:
        n = self.n_points
        kernel = np.empty((n, n), dtype=np.float64)
        scaled = self._j / self._S

        def fill_block(start: int, stop: int) -> None:
            # rows [start, stop) from the diagonal rightwards, then their
            # mirror image below the diagonal block
            upper = kernel[start:stop, start:]
            np.multiply.outer(self._j[start:stop], scaled[start:], out=upper)
            j0(upper, out=upper)
            kernel[stop:, start:stop] = upper[:, stop - start :].T
            diagonal = kernel[start:stop, start:stop]
            below = np.tril_indices(stop - start, -1)
            diagonal[below] = diagonal.T[below]

        _fill_row_blocks(n, _KERNEL_BLOCK_ROWS, fill_block)
        return kernel

    def _apply(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim not in (1, 2) or values.shape[0] != self.n_points:
            raise DomainError(
                f"expected shape ({self.n_points},) or ({self.n_points}, Z), "
                f"got {values.shape}"
            )
        # the kernel is real, so complex columns are viewed as interleaved
        # real and imaginary float64 columns: one product per row block
        # covers both parts of every column, and the kernel is read once
        columns = values.reshape(self.n_points, -1) * weights[:, None]
        is_complex = np.iscomplexobj(columns)
        if is_complex:
            columns = np.ascontiguousarray(columns).view(np.float64)
        result = np.empty(columns.shape)
        # row blocks keep the BLAS packing workspace to a few MiB; one
        # product over all N rows grows it with N (about 60 MiB at N = 18000)
        for start in range(0, self.n_points, _KERNEL_BLOCK_ROWS):
            stop = start + _KERNEL_BLOCK_ROWS
            np.matmul(self._kernel[start:stop], columns, out=result[start:stop])
        if is_complex:
            result = result.view(np.complex128)
        return result.reshape(values.shape)

    def forward(self, field_values: np.ndarray) -> np.ndarray:
        """Angular spectrum A(k_m) of samples f(r_n), one per column of (N, Z) input."""
        return self._apply(field_values, self.power_weights)

    def inverse(self, spectrum_values: np.ndarray) -> np.ndarray:
        """Field samples f(r_n) from an angular spectrum A(k_m), one per column of (N, Z) input."""
        return self._apply(spectrum_values, self.spectral_power_weights)

    def resample_matrix(self, radii: np.ndarray) -> np.ndarray:
        """Matrix evaluating the band-limited field at arbitrary radii.

        Row i of the result, applied to an angular spectrum, sums the
        Fourier-Bessel series at radii[i]:
        j0(outer(radii, k_radial)) / (pi R^2 J1(j_m)^2). Used to
        interpolate focal fields onto grids much finer than the native
        collocation points. Blocks of rows are filled in place on the
        row-block thread pool the kernel build uses; the result is
        bit-identical to the formula evaluated in one piece.
        """
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if np.any(radii < 0) or np.any(radii > self.max_radius):
            raise DomainError("resample radii must lie in [0, max_radius]")
        matrix = np.empty((radii.size, self.n_points))
        norm = np.pi * self.max_radius**2 * self._j1sq

        def fill_block(start: int, stop: int) -> None:
            rows = matrix[start:stop]
            np.multiply.outer(radii[start:stop], self.k_radial, out=rows)
            j0(rows, out=rows)
            np.divide(rows, norm, out=rows)

        _fill_row_blocks(radii.size, _RESAMPLE_BLOCK_ROWS, fill_block)
        return matrix

    def radial_power(self, field_values: np.ndarray) -> float:
        """Discretized total power 2 pi int |f(r)|^2 r dr."""
        return float(np.sum(self.power_weights * np.abs(field_values) ** 2))

    def spectral_power(self, spectrum_values: np.ndarray) -> float:
        """Discretized total power (1 / 2 pi) int |A(k)|^2 k dk."""
        return float(
            np.sum(self.spectral_power_weights * np.abs(spectrum_values) ** 2)
        )


_transform_cache: dict[tuple[int, float], HankelTransform] = {}


def get_transform(n_points: int, max_radius: float) -> HankelTransform:
    """Shared HankelTransform instances keyed by grid parameters.

    Kernels are expensive (time and memory), so repeated requests for
    the same grid reuse one instance. Before a new kernel is built, the
    oldest grids are dropped until the cached kernels plus the new one
    take at most _CACHE_MAX_BYTES (8 N^2 bytes each); a kernel larger
    than the bound is still built, and cached alone.
    """
    key = (n_points, float(max_radius))
    if key not in _transform_cache:
        while _transform_cache and (
            8 * (n_points**2 + sum(n**2 for n, _ in _transform_cache)) > _CACHE_MAX_BYTES
        ):
            _transform_cache.pop(next(iter(_transform_cache)))
        _transform_cache[key] = HankelTransform(n_points, max_radius)
    return _transform_cache[key]


def clear_transform_cache() -> None:
    """Release all cached transform kernels (they can be gigabytes)."""
    _transform_cache.clear()
