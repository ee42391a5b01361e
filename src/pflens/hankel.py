"""Quasi-discrete Hankel transform of order zero.

Collocation on Bessel-function zeros: with j_1 < j_2 < ... the positive
roots of J0 and S = j_{N+1}, fields sampled at r_n = j_n R / S map to
angular spectra sampled at k_m = j_m / R. The transform pair used here
(k-space convention) is

    A(k_m) = 2 pi * (2 R^2 / S^2) * sum_n f(r_n) J0(j_m j_n / S) / J1(j_n)^2
    f(r_n) = sum_m A(k_m) J0(j_m j_n / S) / (pi R^2 J1(j_m)^2)

Both directions share the symmetric kernel J0(j_m j_n / S), and only
its upper triangle is stored, in row super-blocks of 512 rows: the block
at row A holds kernel[A:A + r, A:], r = min(512, N - A), so the whole
takes 8 sum r (N - A) bytes, about 4 N^2 + 2048 N (1.3 GB at N = 18000;
_kernel_bytes). No N x N array is allocated. A call whose input is zero
from row s (its support) on needs only the blocks that start below s,
and fills just those still missing, in ascending order. Each is filled
in place in rows of 128 from the diagonal rightwards; the lower triangle
of its r x r diagonal block is then copied from the upper, so the kernel
the blocks stand for is exactly symmetric. Filling and storing it is the
dominant time and memory for N in the ten-thousands; a grid whose whole
kernel would not fit in MemAvailable less 512 MiB is refused before
anything is allocated.

Within a row block [m0, m0 + B) the kernel entry J0(x), x = j_m s_n with
s_n = j_n / S, is evaluated in one of two ways:

* direct: scipy's j0, for the columns where x0 = j_m0 s_n < 60. That is
  all of the first block (so the whole kernel for N <= 128), 6.8 % of
  the triangle at N = 4096 and 1.8 % at N = 18000.
* asymptotic: Hankel's large-argument expansion for the other columns,

      J0(x) = Re[ sqrt(2 / pi) e^{-i pi/4} sum_k i^k a_k x^{-k-1/2} e^{ix} ],
      a_k = (-1)^k prod_{l<=k} (2l - 1)^2 / (k! 8^k).

  With delta_i = j_i - (i + 3/4) pi (0-based i, small by McMahon's
  expansion) and eta_m = delta_m - delta_m0, the phase splits as
  j_m s_n = j_m0 s_n + d pi s_n + eta_m s_n, d = m - m0, and
  e^{i eta_m s_n} is expanded in powers p of i eta_m s_n. Each entry is then

      J0(j_m s_n) = Re[ (U V)[m, n] E[d, n] ],
      U[m, (k, p)] = sqrt(2/pi) e^{-i pi/4} i^k a_k j_m^{-k-1/2} (i eta_m)^p / p!,
      V[(k, p), n] = s_n^{p-k-1/2} e^{i j_m0 s_n},
      E[d, n] = e^{i d pi s_n},

  so each column chunk of a block costs one real matrix product over
  the stacked real and imaginary parts, then Re(UV) Re(E) - Im(UV) Im(E)
  elementwise, and no Bessel call. E is one B x N table shared by every
  block.

Term-count rule: for a column chunk whose smallest argument is x0, the
orders k < K are kept, where K is the first order with |a_K| x0^-K <
1e-17; for a block whose largest |eta_m s_n| is h, the term (k, p) is
kept while |a_k| x0^-k h^p / p! >= 1e-17 (at most 12 orders at x0 = 60,
6 at 1000, 5 at 10^4; p <= 4). Every omitted term, and each series'
remainder, is below 1e-17 times the amplitude sqrt(2 / (pi x)) < 0.11,
so truncation adds under 1e-15 to any entry. The deviation from
j0(outer(j, j / S)) is set instead by rounding of the phase x, which
reaches N pi: about 4e-14 at N = 4096 and below 1e-13 up to N = 18000.
All block, chunk and term choices depend on N only.

A focal spot spans few collocation gaps, so every knife-edge curve is
taken on a near-axis fine grid that the transform owns: fine_radii, evenly
spaced over [0, fine_span], where fine_span = min(60 max_spacing, R) and
max_spacing is the widest gap between collocation radii. fine_values sums
spectra at 128 Chebyshev nodes on that span and interpolates from them to
the fine radii (_FINE_NODES says why 128 suffice on every grid). The
nodes' Fourier-Bessel matrix (resample_matrix's rows at the nodes) is
128 x N, 18 MB at N = 18000, the same for every fine_points; the
transform allocates it at the first fine_values call and keeps it. It is
full width, but its columns are filled lazily, each once, as far as the
spectra reach.

Two stages share one row-block helper: the kernel fill and the
Fourier-Bessel rows of resample_matrix and the node matrix. Each
fills disjoint row blocks of its output in place, on a thread pool with
one thread per CPU this process may use (its affinity mask where the
platform has one, else the CPU count); the Bessel ufunc and BLAS release
the interpreter lock. The kernel's products are cut into tiles of at
most 10^6 multiply-adds, which OpenBLAS runs on the calling thread (its
small-matrix path on AVX-512 CPUs), so the pool's threads do not contend
with BLAS threads of their own. No entry's arithmetic depends on which
thread computes it, when, or what was filled before, so both outputs are
bit-identical whatever the thread count.

forward and inverse take samples of shape (N,) or a stack of Z columns
of shape (N, Z) and return the same shape. A complex stack is viewed as
2Z interleaved float64 columns, transposed to a C x N array X (C = Z or
2Z), so every product is a plain (C x K) @ (K x M) BLAS-3 product. The
super-blocks are taken in ascending order, each first through its
diagonal block D (out[:, A:b] += X[:, A:b] D) and then through its column
panels P = kernel[A:b, c0:c1] of at most 4096 columns, ascending; each
panel is applied both ways while it is in cache (BLAS-3 work on
triangle-only storage, as in the rectangular full packed format of
Gustavson, Wasniewski, Dongarra and Langou, ACM TOMS 37(2), 18, 2010):

    out[:, A:b] += X[:, c0:c1] P^T,    out[:, c0:c1] += X[:, A:b] P.

Blocks and panels starting at or beyond the support s would add exact
zeros (a panel, through its first product), so they are skipped. So is a
product that writes only rows at or beyond forward's output-row bound (a
scan's light cone): only blocks starting below min(s, bound) are filled,
and rows from the bound on come back zero; the rest are bit-identical to
a full forward's, as the products kept keep their shapes and order. The
kernel is read once per call, and the fixed order makes the result the
same on every call.

The quadrature is spectrally accurate for fields that decay by r = R and
whose spectra decay by k = S / R.

scipy.special (j0, j1, jn_zeros) is imported when the first transform is
built, not with this module: importing it takes about 0.25 s and 23 MiB,
which the commands that build no transform (all but simulate) never pay.
"""

from __future__ import annotations

import bisect
import math
import os
import queue
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal

import numpy as np

from .errors import DomainError, ResolutionError, require

# rows per block of the kernel fill; also the row count of the shared
# phase table E, up to 16 B x N bytes (37 MB at N = 18000)
_KERNEL_BLOCK_ROWS = 128
# columns per asymptotic chunk: the term count K is chosen per chunk
_KERNEL_CHUNK_COLUMNS = 512
# kernel columns from which Hankel's expansion replaces j0 in a row block
_ASYMPTOTIC_MIN_ARGUMENT = 60.0
# series terms are kept while their bound, relative to sqrt(2 / (pi x)),
# reaches this
_SERIES_TOLERANCE = 1e-17
# largest M N K of one product in the kernel fill: OpenBLAS runs dgemm
# this small on the calling thread
_TILE_MULTIPLY_ADDS = 10**6
# rows per super-block of the packed kernel, a multiple of _KERNEL_BLOCK_ROWS
_PACKED_BLOCK_ROWS = 512
# columns per panel of a super-block in forward / inverse: 16 MB of kernel
_PANEL_COLUMNS = 4096
# the node matrix has few rows (_FINE_NODES), so resample blocks are
# smaller for every CPU to get a share
_RESAMPLE_BLOCK_ROWS = 64
# the near-axis fine grid spans this many of the widest collocation gaps
_FINE_SPAN_SPACINGS = 60
_MIN_FINE_POINTS = 32  # fewest radii a fine grid may have
# Chebyshev nodes the near-axis fine grid is resampled through. A spectrum
# holds k <= j_N / R < S / R and the fine grid reaches at most 60 spacings
# of under pi R / S, so k r <= 60 pi there. J0(k r cos t) has Chebyshev
# coefficients J_n(k r / 2)^2 at order 2n, below 1e-19 from n = 128 at
# k r = 60 pi: the even interpolant through 2 x 128 first-kind points is
# exact to j0's rounding on every grid (112 nodes leave 5e-9)
_FINE_NODES = 128
# memory a new kernel must leave free, for the grids, tables, resample
# matrices and scan planes that grow with N beside it
_MEMORY_HEADROOM_BYTES = 512 * 1024**2
# memory assumed available where /proc/meminfo cannot be read
_FALLBACK_AVAILABLE_BYTES = 4 * 1024**3
# largest grid radius [m]: R^2 and 1 / R^2 in the weights stay far inside
# the float range
_MAX_RADIUS = 1e100


def _hankel_coefficients(count: int) -> list[float]:
    """a_k = (-1)^k prod_{l<=k} (2l - 1)^2 / (k! 8^k) for k < count."""
    # plain floats: numpy calls at import time would add to every
    # process's memory, kernel or not
    coefficients = [1.0]
    for k in range(1, count):
        coefficients.append(coefficients[-1] * (-((2.0 * k - 1) ** 2) / (8.0 * k)))
    return coefficients


# |a_k| / x^k falls below the tolerance by k = 12 at x = 60, the smallest
# argument the expansion is used for; 24 orders leave room
_HANKEL_COEFFICIENTS = _hankel_coefficients(24)


def _series_orders(x_min: float) -> int:
    """K: the first order with |a_K| x_min^-K below the tolerance."""
    k = 0
    while abs(_HANKEL_COEFFICIENTS[k]) / x_min**k >= _SERIES_TOLERANCE:
        k += 1
    return k


def _series_terms(x_min: float, eta_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Orders k and Taylor powers p of the terms kept, sorted by k.

    (k, p) is kept for k < K(x_min) while |a_k| x_min^-k eta_max^p / p!
    reaches the tolerance, so p = 0 is always kept.
    """
    orders, powers = [], []
    for k in range(_series_orders(x_min)):
        bound = abs(_HANKEL_COEFFICIENTS[k]) / x_min**k
        p = 0
        while bound >= _SERIES_TOLERANCE:
            orders.append(k)
            powers.append(p)
            p += 1
            bound *= eta_max / p
    return np.array(orders), np.array(powers)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_row_blocks(starts: range, fill: Callable[[int, int], None]) -> None:
    """Call fill(start, stop) for each block of rows in starts, one thread per usable CPU.

    The blocks must write disjoint parts of the output.
    """
    with ThreadPoolExecutor(max_workers=max(1, min(_usable_cpus(), len(starts)))) as pool:
        # consuming the results re-raises any error from a block
        list(pool.map(lambda start: fill(start, min(start + starts.step, starts.stop)), starts))


def _fine_interpolation(radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The _FINE_NODES Chebyshev nodes on (0, radii[-1]) and the matrix from them to radii.

    The nodes are the positive half of the 2 q first-kind points
    x_j = radii[-1] cos t_j, t_j = (j + 1/2) pi / 2q, on [-radii[-1],
    radii[-1]]. Their barycentric weights are (-1)^j sin t_j, and -x_j's
    is the negative of x_j's (Berrut and Trefethen, SIAM Rev. 46, 501,
    2004). A field even in r takes one value on each pair, which then
    adds (-1)^j sin t_j 2 x_j / (r^2 - x_j^2) to the formula, so row i of
    the (radii x q) matrix is those terms at radii[i], normalized to sum 1.
    """
    angles = (np.arange(_FINE_NODES) + 0.5) * (np.pi / (2 * _FINE_NODES))
    cosines = np.cos(angles)
    weights = (-1.0) ** np.arange(_FINE_NODES) * np.sin(angles) * cosines
    # in units of radii[-1]; the product is the accurate form of u^2 - c^2 near a node
    u = radii[:, None] / radii[-1]
    with np.errstate(divide="ignore"):
        terms = weights / ((u - cosines) * (u + cosines))
    # a radius on a node takes that node's value
    on_node = np.isinf(terms)
    hits = on_node.any(axis=1)
    terms[hits] = on_node[hits]
    return radii[-1] * cosines, terms / terms.sum(axis=1, keepdims=True)


def _check_fine_points(fine_points: int) -> None:
    """Refuse a near-axis fine grid of fewer than _MIN_FINE_POINTS points."""
    require(fine_points >= _MIN_FINE_POINTS, "fine_points", f">= {_MIN_FINE_POINTS}", fine_points)


def _kernel_bytes(n_points: int) -> int:
    """Bytes of the packed kernel of an n_points grid: about 4 N^2 + 2048 N.

    Each super-block at row A stores kernel[A:A + r, A:], r = min(B, N - A),
    B = 512. With q, r = divmod(N, B) the q full blocks hold
    sum_{i<q} B (N - B i) = B q N - B^2 q (q - 1) / 2 entries and the last
    holds r (N - B q) = r^2.
    """
    full, rest = divmod(n_points, _PACKED_BLOCK_ROWS)
    return 8 * (
        _PACKED_BLOCK_ROWS * full * n_points
        - _PACKED_BLOCK_ROWS**2 * full * (full - 1) // 2
        + rest * rest
    )


def _support(values: np.ndarray) -> int:
    """One past the last row of (N,) or (N, Z) values with a nonzero entry."""
    nonzero = np.flatnonzero(values.reshape(values.shape[0], -1).any(axis=1))
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _available_memory() -> int:
    """MemAvailable from /proc/meminfo in bytes, else _FALLBACK_AVAILABLE_BYTES."""
    try:
        with open("/proc/meminfo") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return _FALLBACK_AVAILABLE_BYTES


def _check_kernel_fits(n_points: int) -> None:
    """Refuse, before anything is allocated, a kernel that would not fit in memory."""
    budget = _available_memory() - _MEMORY_HEADROOM_BYTES
    needed = _kernel_bytes(n_points)
    if needed > budget:
        # a kernel takes over 4 N^2 bytes, so no grid beyond sqrt(budget / 4) fits
        above = min(n_points, math.isqrt(max(budget, 0) // 4) + 2)
        largest = bisect.bisect_right(range(above), budget, key=_kernel_bytes) - 1
        raise ResolutionError(
            f"a {n_points}-point grid needs a {Decimal(needed) / 10**9:,.2f} GB transform kernel, "
            f"but {max(budget, 0) / 1e9:,.2f} GB of memory is available for it "
            f"({_MEMORY_HEADROOM_BYTES / 2**30:.2g} GiB is kept free): "
            + (f"grid_points <= {largest} fits" if largest >= 4 else "no grid fits")
        )


class _KernelRows:
    """Upper-triangle rows of the kernel J0(j_m j_n / S), one row block at a time.

    Holds what every block shares: the phase table E from first_column (the
    first row filled) on, powers of s_n, each block's split column and series
    terms, and one set of product buffers per usable CPU. Plans and powers span
    all columns: numpy's broadcast power may round differently at an offset.

    All of it is allocated on the constructing thread, and fill writes
    every temporary into these buffers: arrays that pool threads allocate
    and free stay resident in their malloc arenas after the fill, and
    would add to the peak memory of what runs next.
    """

    def __init__(self, roots: np.ndarray, last_root: float, first_column: int):
        n = roots.size
        self._roots = roots
        self._scaled = roots / last_root
        # j_i and (i + 3/4) pi are within a factor 2, so this difference is exact
        self._offsets = roots - (np.arange(n) + 0.75) * np.pi
        # Re E and Im E in one allocation: 37 MB at N = 18000 from column 0
        self._first_column = first_column
        phase = np.empty((2, _KERNEL_BLOCK_ROWS, n - first_column))
        steps = np.arange(_KERNEL_BLOCK_ROWS) * np.pi
        np.multiply.outer(steps, self._scaled[first_column:], out=phase[0])
        np.sin(phase[0], out=phase[1])
        np.cos(phase[0], out=phase[0])
        self._phase_real, self._phase_imag = phase
        self._plans = [self._plan(start) for start in range(0, n, _KERNEL_BLOCK_ROWS)]
        most_terms = max(orders.size for _, orders, _, _ in self._plans)
        self._buffers: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(_usable_cpus()):
            self._buffers.put(
                (
                    np.empty(_KERNEL_BLOCK_ROWS),
                    np.empty(2 * _KERNEL_BLOCK_ROWS * most_terms),
                    np.empty(4 * _KERNEL_BLOCK_ROWS * most_terms),
                    np.empty((most_terms, _KERNEL_CHUNK_COLUMNS)),
                    np.empty((2, _KERNEL_CHUNK_COLUMNS)),
                    np.empty((most_terms, 2, _KERNEL_CHUNK_COLUMNS)),
                    np.empty((2 * _KERNEL_BLOCK_ROWS, _KERNEL_CHUNK_COLUMNS)),
                )
            )
        # powers s_n^(e - 1/2) for every e = p - k some block uses; plans index rows
        exponents = np.concatenate([e for *_, e in self._plans] + [[0]])
        lowest = int(exponents.min())
        self._powers = self._scaled ** (np.arange(lowest, exponents.max() + 1)[:, None] - 0.5)
        for *_, rows in self._plans:
            rows -= lowest

    def _plan(self, start: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """The block at start's first asymptotic column, and its terms (k, p):
        k, rows [Re, Im of the U coefficient, -k - 1/2, p], and p - k."""
        n = self._roots.size
        stop = min(start + _KERNEL_BLOCK_ROWS, n)
        threshold = _ASYMPTOTIC_MIN_ARGUMENT / self._roots[start]
        split = max(start, int(np.searchsorted(self._scaled, threshold)))
        if split == n:
            return split, np.array([], int), np.empty((4, 0)), np.array([], int)
        # |eta_m s_n| over the block; s_n < 1
        eta = self._offsets[start:stop] - self._offsets[start]
        eta_max = float(np.max(np.abs(eta))) * self._scaled[-1]
        orders, powers = _series_terms(self._roots[start] * self._scaled[split], eta_max)
        # sqrt(2/pi) e^{-i pi/4} i^k a_k i^p / p! = a_k / p! i^(k+p) (1 - i) / sqrt(pi)
        coefficients = np.array(
            [
                _HANKEL_COEFFICIENTS[k] / math.factorial(p) * 1j ** int(k + p) * (1 - 1j)
                for k, p in zip(orders, powers)
            ]
        ) / math.sqrt(math.pi)
        factors = np.array([coefficients.real, coefficients.imag, -orders - 0.5, powers])
        return split, orders, factors, powers - orders

    def fill(self, start: int, stop: int, out: np.ndarray) -> None:
        """Write kernel[start:stop, start:] into out, for rows of the block at start."""
        from scipy.special import j0

        roots, scaled = self._roots, self._scaled
        n = roots.size
        split, orders, factors, power_rows = self._plans[start // _KERNEL_BLOCK_ROWS]
        direct = out[:, : split - start]
        np.multiply.outer(roots[start:stop], scaled[start:split], out=direct)
        j0(direct, out=direct)
        if split == n:
            return

        rows, terms = stop - start, orders.size
        # at most one fill per usable CPU runs at a time, so a set is free
        buffers = self._buffers.get()
        eta_buffer, flat_factors, flat_weights, amplitude_buffer, trig, columns, product = buffers
        try:
            eta = np.subtract(self._offsets[start:stop], self._offsets[start], out=eta_buffer[:rows])
            # Re U = (Re c j_m^(-k-1/2)) eta_m^p, Im U likewise: as complex U rounds
            root_factor = flat_factors[: rows * terms].reshape(rows, terms)
            eta_factor = flat_factors[rows * terms : 2 * rows * terms].reshape(rows, terms)
            np.power(roots[start:stop, None], factors[2], out=root_factor)
            np.power(eta[:, None], factors[3], out=eta_factor)
            # [Re U, -Im U; Im U, Re U] with columns (term, part), so the terms of
            # the lowest K orders are a leading slice
            weights = flat_weights[: 4 * rows * terms].reshape(2, rows, terms, 2)
            for part, coefficient in zip(weights[:, :, :, 0], factors[:2]):
                np.multiply(coefficient, root_factor, out=part)
                np.multiply(part, eta_factor, out=part)
            np.negative(weights[1, :, :, 0], out=weights[0, :, :, 1])
            weights[1, :, :, 1] = weights[0, :, :, 0]
            weights = weights.reshape(2 * rows, 2 * terms)
            for c0 in range(split, n, _KERNEL_CHUNK_COLUMNS):
                c1 = min(c0 + _KERNEL_CHUNK_COLUMNS, n)
                width = c1 - c0
                used = int(np.searchsorted(orders, _series_orders(roots[start] * scaled[c0])))
                # V rows: s_n^(p-k-1/2) times the real and imaginary parts of e^{i j_m0 s_n}
                amplitude = amplitude_buffer[:used, :width]
                # rows are in range; mode="clip" lets take write out unbuffered
                rows_used = power_rows[:used]
                np.take(self._powers[:, c0:c1], rows_used, axis=0, out=amplitude, mode="clip")
                phase, sine = trig[:, :width]
                np.multiply(roots[start], scaled[c0:c1], out=phase)
                np.sin(phase, out=sine)
                cosine = np.cos(phase, out=phase)
                v = columns[:used, :, :width]
                np.multiply(amplitude, cosine, out=v[:, 0])
                np.multiply(amplitude, sine, out=v[:, 1])
                v = v.reshape(2 * used, width)
                w = weights[:, : 2 * used]
                g = product[: 2 * rows, :width]
                tile = max(1, _TILE_MULTIPLY_ADDS // (2 * rows * 2 * used))
                for t0 in range(0, width, tile):
                    np.matmul(w, v[:, t0 : t0 + tile], out=g[:, t0 : t0 + tile])
                real, imag = g[:rows], g[rows:]
                e0, e1 = c0 - self._first_column, c1 - self._first_column
                np.multiply(real, self._phase_real[:rows, e0:e1], out=real)
                np.multiply(imag, self._phase_imag[:rows, e0:e1], out=imag)
                np.subtract(real, imag, out=out[:, c0 - start : c1 - start])
        finally:
            self._buffers.put(buffers)


class HankelTransform:
    """Order-zero quasi-discrete Hankel transform on [0, R].

    Precomputes the Bessel-zero grid. Kernel blocks are filled when a
    call's input first reaches them, under a lock that has concurrent
    calls fill each once; apart from them and the near-axis node matrix
    it keeps, an instance is immutable after construction, and shareable.
    A max_radius above 1e100 m is refused with ResolutionError before
    any work.
    """

    def __init__(self, n_points: int, max_radius: float):
        require(isinstance(n_points, int) and n_points >= 4, "n_points", "an integer >= 4", n_points)
        require(max_radius > 0, "max_radius", "> 0", max_radius)
        if not (max_radius <= _MAX_RADIUS):
            raise ResolutionError(
                f"grid radius {max_radius:.3g} m is above the {_MAX_RADIUS:g} m a transform allows"
            )
        self.n_points = n_points
        self.max_radius = float(max_radius)
        _check_kernel_fits(n_points)

        # here, not at the top of the module (see the module docstring)
        from scipy.special import j1, jn_zeros

        roots = jn_zeros(0, n_points + 1)
        self._j = roots[:n_points]
        self._S = roots[n_points]
        self.radii = self._j * (self.max_radius / self._S)
        # the widest gap between collocation radii, (j_N - j_{N-1}) R / j_{N+1},
        # is just under R / (N + 3/4)
        self.max_spacing = float(np.max(np.diff(self.radii)))
        self.fine_span = min(_FINE_SPAN_SPACINGS * self.max_spacing, self.max_radius)
        self.k_radial = self._j / self.max_radius
        self._j1sq = j1(self._j) ** 2

        self._blocks: list[np.ndarray | None] = [None] * -(-n_points // _PACKED_BLOCK_ROWS)
        self._fill_lock = threading.Lock()

        # quadrature weights for radial power integrals: 2 pi int |f|^2 r dr;
        # forward applies the kernel to samples times these weights
        self.power_weights = (4.0 * np.pi * self.max_radius**2 / self._S**2) / self._j1sq
        # same rule in k space: (1 / 2 pi) int |A|^2 k dk; inverse likewise
        self.spectral_power_weights = 1.0 / (np.pi * self.max_radius**2 * self._j1sq)
        # the Chebyshev nodes' resample matrix, made at the first fine_values
        # call, and how many of its columns are filled
        self._fine_matrix: np.ndarray | None = None
        self._fine_filled = 0

    def _filled_blocks(self, support: int) -> list[np.ndarray]:
        """The super-blocks starting below support, the missing ones filled.

        They are allocated on this thread before the fill's tables, which
        then sit above them in the heap and go when the fill returns.
        """
        n = self.n_points
        count = -(-support // _PACKED_BLOCK_ROWS)
        with self._fill_lock:
            filled = sum(block is not None for block in self._blocks)
            if filled < count:
                first = filled * _PACKED_BLOCK_ROWS
                blocks = [
                    np.empty((min(_PACKED_BLOCK_ROWS, n - start), n - start))
                    for start in range(first, support, _PACKED_BLOCK_ROWS)
                ]
                rows = _KernelRows(self._j, self._S, first)

                def fill_block(start: int, stop: int) -> None:
                    block = blocks[(start - first) // _PACKED_BLOCK_ROWS]
                    for row in range(0, stop - start, _KERNEL_BLOCK_ROWS):
                        last = min(row + _KERNEL_BLOCK_ROWS, stop - start)
                        rows.fill(start + row, start + last, block[row:last, row:])
                    for row in range(1, stop - start):
                        block[row, :row] = block[:row, row]

                stop = min(count * _PACKED_BLOCK_ROWS, n)
                _fill_row_blocks(range(first, stop, _PACKED_BLOCK_ROWS), fill_block)
                # kept only once whole: an error leaves no part-filled block
                self._blocks[filled:count] = blocks
            return self._blocks[:count]

    def _apply(self, values: np.ndarray, weights: np.ndarray, rows: int) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim not in (1, 2) or values.shape[0] != self.n_points:
            raise DomainError(
                f"expected shape ({self.n_points},) or ({self.n_points}, Z), "
                f"got {values.shape}"
            )
        support = _support(values)
        blocks = self._filled_blocks(min(support, rows))
        # one row per column, so both products below are (C x K) @ (K x M).
        # The kernel is real, so a complex column becomes interleaved real
        # and imaginary float64 rows: one pass over the kernel covers both
        stack = values.reshape(self.n_points, -1).T
        is_complex = np.iscomplexobj(stack)
        x = np.empty(((1 + is_complex) * stack.shape[0], self.n_points))
        if is_complex:
            np.multiply(stack.real, weights, out=x[0::2])
            np.multiply(stack.imag, weights, out=x[1::2])
        else:
            np.multiply(stack, weights, out=x)
        out = np.zeros_like(x)
        for start, block in zip(range(0, support, _PACKED_BLOCK_ROWS), blocks):
            near = slice(start, start + block.shape[0])
            for first in range(0, block.shape[1], _PANEL_COLUMNS):
                # kernel[near, far] = panel, and below the (symmetric) diagonal
                # block kernel[far, near] = panel.T, applied while it is in cache
                panel = block[:, first : first + _PANEL_COLUMNS]
                stop = start + first + panel.shape[1]
                if start + first < support:
                    out[:, near] += x[:, start + first : stop] @ panel.T
                below = max(block.shape[0] - first, 0)
                if start + first + below < rows:
                    out[:, start + first + below : stop] += x[:, near] @ panel[:, below:]
        out[:, rows:] = 0.0
        # freed first, so at most two C x N arrays are alive at once
        del x
        result = np.ascontiguousarray(out.T)
        return (result.view(np.complex128) if is_complex else result).reshape(values.shape)

    def forward(self, field_values: np.ndarray, rows: int | None = None) -> np.ndarray:
        """Angular spectrum A(k_m) of samples f(r_n), one per column of (N, Z) input.

        Only rows m < rows (default N) are computed; the rest are zero.
        """
        return self._apply(field_values, self.power_weights, self.n_points if rows is None else rows)

    def inverse(self, spectrum_values: np.ndarray) -> np.ndarray:
        """Field samples f(r_n) from an angular spectrum A(k_m), one per column of (N, Z) input."""
        return self._apply(spectrum_values, self.spectral_power_weights, self.n_points)

    def resample_matrix(self, radii: np.ndarray) -> np.ndarray:
        """Matrix evaluating the band-limited field at arbitrary radii.

        Row i of the result, applied to an angular spectrum, sums the
        Fourier-Bessel series at radii[i]:
        j0(outer(radii, k_radial)) / (pi R^2 J1(j_m)^2). No stage of the
        pipeline calls it: fine_values fills the rows it keeps, at its
        Chebyshev nodes, through the same _fill_resample_columns, so they
        equal this matrix at the nodes. Blocks of rows are filled in place
        on the row-block thread pool the kernel fill uses; the result is
        bit-identical to the formula evaluated in one piece.
        """
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        matrix = np.empty((radii.size, self.n_points))
        self._fill_resample_columns(radii, matrix, 0, self.n_points)
        return matrix

    def _fill_resample_columns(self, radii, matrix, first: int, stop: int) -> None:
        """Write columns [first, stop) of resample_matrix(radii) into matrix, in place."""
        from scipy.special import j0

        if np.any(radii < 0) or np.any(radii > self.max_radius):
            raise DomainError("resample radii must lie in [0, max_radius]")
        norm = np.pi * self.max_radius**2 * self._j1sq[first:stop]

        def fill_block(start: int, end: int) -> None:
            rows = matrix[start:end, first:stop]
            np.multiply.outer(radii[start:end], self.k_radial[first:stop], out=rows)
            j0(rows, out=rows)
            np.divide(rows, norm, out=rows)

        _fill_row_blocks(range(0, radii.size, _RESAMPLE_BLOCK_ROWS), fill_block)

    def fine_radii(self, fine_points: int) -> np.ndarray:
        """Near-axis fine grid: fine_points >= 32 radii evenly spaced over [0, fine_span]."""
        _check_fine_points(fine_points)
        return np.linspace(0.0, self.fine_span, fine_points)

    def fine_values(self, spectra: np.ndarray, fine_points: int) -> np.ndarray:
        """Angular spectra, shape (N,) or (N, Z), summed on fine_radii(fine_points).

        The spectra are summed at the _FINE_NODES Chebyshev nodes through
        the kept node matrix (q x N, the same for every fine_points), with
        the columns viewed as interleaved real and imaginary float64
        columns, so one product covers both parts of every column. A
        (fine_points x q) interpolation matrix, built per call, then
        carries the node values to the fine radii. The node matrix is made
        at the first call and freed with the transform; its columns are
        filled when spectra first reach them, each once, under the fill
        lock, and the rest are zero and meet only zero rows of spectra.
        """
        nodes, interpolation = _fine_interpolation(self.fine_radii(fine_points))
        support = _support(spectra)
        with self._fill_lock:
            if self._fine_matrix is None:
                self._fine_matrix = np.zeros((_FINE_NODES, self.n_points))
            if self._fine_filled < support:
                self._fill_resample_columns(nodes, self._fine_matrix, self._fine_filled, support)
                self._fine_filled = support
        columns = np.ascontiguousarray(spectra, dtype=complex).reshape(spectra.shape[0], -1)
        fine = (interpolation @ (self._fine_matrix @ columns.view(np.float64))).view(np.complex128)
        return fine.reshape((fine_points,) + spectra.shape[1:])

    def radial_power(self, field_values: np.ndarray) -> float:
        """Discretized total power 2 pi int |f(r)|^2 r dr."""
        return float(np.sum(self.power_weights * np.abs(field_values) ** 2))

    def spectral_power(self, spectrum_values: np.ndarray) -> float:
        """Discretized total power (1 / 2 pi) int |A(k)|^2 k dk."""
        return float(
            np.sum(self.spectral_power_weights * np.abs(spectrum_values) ** 2)
        )


_transform: HankelTransform | None = None


def get_transform(n_points: int, max_radius: float) -> HankelTransform:
    """A shared HankelTransform for the grid, holding one grid at a time.

    Kernels are expensive (time and memory), so repeated requests for
    the same grid reuse one instance. A request for another grid (another
    N, or the same N with another R) drops the cached transform before
    the new one is made, so its memory preflight sees the old kernel
    freed once no caller holds it, and no two kernels are ever cached.
    """
    global _transform
    transform = _transform
    grid = (n_points, float(max_radius))
    if transform is None or (transform.n_points, transform.max_radius) != grid:
        transform = _transform = None
        transform = _transform = HankelTransform(n_points, max_radius)
    return transform


def clear_transform_cache() -> None:
    """Release the cached transform kernel (it can be gigabytes)."""
    global _transform
    _transform = None
