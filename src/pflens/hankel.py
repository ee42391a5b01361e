"""Quasi-discrete Hankel transform of order zero.

Collocation on Bessel-function zeros: with j_1 < j_2 < ... the positive
roots of J0 and S = j_{N+1}, fields sampled at r_n = j_n R / S map to
angular spectra sampled at k_m = j_m / R. The transform pair used here
(k-space convention) is

    A(k_m) = 2 pi * (2 R^2 / S^2) * sum_n f(r_n) J0(j_m j_n / S) / J1(j_n)^2
    f(r_n) = sum_m A(k_m) J0(j_m j_n / S) / (pi R^2 J1(j_m)^2)

Both directions share the symmetric kernel J0(j_m j_n / S), and only
its upper triangle is stored, as tiles: row block A (512 rows from row
A) holds kernel[A:A + r, A:], r = min(512, N - A), cut at the multiples
of 1024 into tiles of at most 512 x 1024 entries (4 MiB). The second row
block of each 1024 columns starts with a 512 x 512 diagonal tile, so
the tiles of the whole kernel take 8 sum r (N - A) bytes, about
4 N^2 + 2048 N (1.3 GB at N = 18000; _kernel_bytes), and no N x N
array is allocated. Tiles are filled in place in rows of 128 from the
diagonal rightwards; the lower triangle of each diagonal tile's leading
square is then copied from the upper, so the kernel the tiles stand for
is exactly symmetric. Filling and storing it is the dominant time and
memory for N in the ten-thousands; a grid whose whole kernel would not
fit in MemAvailable less 512 MiB (_memory_budget) is refused before
anything is allocated, and so is a scan whose planes would not fit beside
the kernel bytes not yet held (_check_scan_fits).

Within a fill block of B = 128 rows [m0, m0 + B) the kernel entry
J0(x), x = j_m s_n with s_n = j_n / S, is evaluated in one of two ways:

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
  block. Chunks run from the block's first asymptotic column to the next
  multiple of 512, then 512 apart, so every tile's columns are whole
  chunks and an entry is the same whichever tiles a call fills.

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

Two stages share one row-block pool: the kernel fill and the
Fourier-Bessel rows of resample_matrix and the node matrix. Each fills
disjoint parts of its output in place, on a thread pool with one thread
per CPU this process may use (its affinity mask where the platform has
one, else the CPU count); the Bessel ufunc and BLAS release the
interpreter lock. The fill's products are cut into pieces of at most
10^6 multiply-adds, which OpenBLAS runs on the calling thread (its
small-matrix path on AVX-512 CPUs), so the pool's threads do not contend
with BLAS threads of their own. No entry's arithmetic depends on which
thread computes it, when, which tiles a call asks for, or what was
filled before, so both outputs are bit-identical whatever the thread
count.

forward and inverse take samples of shape (N,) or a stack of Z columns
of shape (N, Z) and return complex values of the same shape;
forward_inverse takes one field, forwards it, multiplies the spectrum by
each of Z transfer columns (a scan's propagators) and inverts them all.
Samples are taken as complex (a real input has zero imaginary part) and
viewed as 2Z interleaved float64 columns, transposed to a 2Z x N array
X, so every product is a plain (2Z x K) @ (K x M) BLAS-3 product. Each
call is one pass over the row blocks in ascending order.
At row block k [a, b) the pass fills the tiles T = kernel[a:b, c0:c1]
it needs, and applies each both ways while it is in cache (BLAS-3 work
on triangle-only storage, as in the rectangular full packed format of
Gustavson, Wasniewski, Dongarra and Langou, ACM TOMS 37(2), 18, 2010):

    A[:, a:b] += X[:, c0:c1] T^T,    A[:, c0:c1] += X[:, a:b] T

(the second beyond the diagonal square). A's columns a:b are then whole:
every earlier row block has pushed into them. forward and inverse stop
here. forward_inverse forms Y[:, a:b], A's spectrum there times each
transfer column and the spectral weights, and inverts through the same
tiles: tiles in columns beyond the last row of Y at once (out[:, c0:c1]
+= Y[:, a:b] T), and the tiles of 1024 columns [q0, q1) both ways once
the last row block in them is done, when Y is whole there:

    out[:, q0:q1] += Y[:, i:i + 512] T,    out[:, i:i + 512] += Y[:, q0:q1] T^T.

So each tile is read twice per pass, as forward then inverse read it,
and the kernel is filled once. A transform's first pass keeps no tile:
a tile goes back to a buffer pool once read for the last time, so the
pass holds the tiles that a later column block still reads, about
(rows of Y / 2)^2 entries mid-pass. Fills are made in bands of row
blocks, each filled before its products, long near the ends of the pass
and short mid-pass, so the pass holds at most two row blocks more than
that; each switch from products back to a fill costs about 30 ms on
2 CPUs while the BLAS threads of the products wait for work. The default
`simulate` scan (rows of Y to 14336 of 18000) peaks at about 690 MiB,
against 1316 MiB when its forward and inverse kept the kernel. From a
transform's second pass on, every tile filled is kept and never filled
again (verify_warm's later ops fill nothing). The arithmetic is the same
either way, so a kept pass and a pass that keeps nothing give
bit-identical results. Passes on one transform run one at a time.

A row block starting at or beyond the input's support s, or a product
whose input columns start there, would add exact zeros, so it is
skipped; forward_inverse also skips what lies beyond its spectrum's
row bound (see there). The fixed order makes the result the same on
every call.

The quadrature is spectrally accurate for fields that decay by r = R and
whose spectra decay by k = S / R.

scipy.special (j0, j1, jn_zeros) is imported when the first transform is
built, not with this module: importing it takes about 0.25 s and 23 MiB,
which the commands that build no transform (all but simulate) never pay.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import queue
import threading
from collections.abc import Callable, Sequence
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
_PIECE_MULTIPLY_ADDS = 10**6
# rows per row block of the packed kernel, a multiple of _KERNEL_BLOCK_ROWS
_PACKED_BLOCK_ROWS = 512
# columns per kernel tile, a multiple of _PACKED_BLOCK_ROWS and of
# _KERNEL_CHUNK_COLUMNS: a full tile is 512 x 1024, 4 MiB
_TILE_COLUMNS = 1024
# tile buffers of a pass that keeps none are made this many at a time: 64 MiB,
# above glibc's largest mmap threshold (32 MiB), so they are returned to the
# system when the pass ends
_SLOT_GROUP = 16
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


def _map_on_pool(work: Callable, items: Sequence) -> None:
    """Call work(item) for each item, in order, one thread per usable CPU.

    The items must write disjoint parts of the output.
    """
    with ThreadPoolExecutor(max_workers=max(1, min(_usable_cpus(), len(items)))) as pool:
        # consuming the results re-raises any error from an item
        list(pool.map(work, items))


def _tile_edges(n_points: int, start: int) -> list[int]:
    """Column edges of the tiles of the row block at start: start, the
    multiples of _TILE_COLUMNS above it, and n_points."""
    above = (start // _TILE_COLUMNS + 1) * _TILE_COLUMNS
    return [start, *range(above, n_points, _TILE_COLUMNS), n_points]


def _row_tile(flat: np.ndarray, n_points: int, start: int, c0: int, c1: int) -> np.ndarray:
    """Columns c0:c1 of the row block at start, a tile: a view of the row
    block's flat array, which holds its tiles one after another."""
    rows = min(_PACKED_BLOCK_ROWS, n_points - start)
    return flat[rows * (c0 - start) : rows * (c1 - start)].reshape(rows, c1 - c0)


def _columns(rows: np.ndarray, shape: tuple) -> np.ndarray:
    """2Z x N interleaved real and imaginary rows back to complex (N,) or (N, Z) values."""
    return np.ascontiguousarray(rows.T).view(np.complex128).reshape(shape)


def _bands(plan: list, n_points: int, y_rows: int, inner: int) -> list[list]:
    """plan's row blocks (start, edges, count) in bands, each filled before its products.

    A pass that keeps no tile holds, at row block k, the tiles of earlier
    row blocks that a column block from k's on reads again: up to about
    (y_rows / 2)^2 entries mid-pass, and few near its ends. A band may hold
    as many more entries as that peak leaves below the peak plus two row
    blocks, so bands are long near the ends and a row block or two
    mid-pass. Each switch from products back to a fill costs time while
    the BLAS threads of the products wait for more work (about 30 ms on
    2 CPUs), so fewer bands are faster.
    """
    height = _PACKED_BLOCK_ROWS

    def held(start: int) -> int:
        # entries of earlier row blocks, below y_rows, kept for a column block from start's on
        q0 = start // _TILE_COLUMNS * _TILE_COLUMNS
        earlier = range(0, min(start, y_rows), height)
        return sum(min(height, n_points - i) * max(inner - max(q0, i), 0) for i in earlier)

    sizes = [min(height, n_points - start) * (edges[count] - start) for start, edges, count in plan]
    cap = max(held(start) for start, _, _ in plan) + 2 * max(sizes)
    bands, size = [], cap
    for block, entries in zip(plan, sizes):
        if size + entries > cap:
            bands.append([])
            size = held(block[0])
        bands[-1].append(block)
        size += entries
    return bands


class _TileSlots:
    """Reusable tile buffers for a pass that keeps no tile.

    Each buffer holds a full tile, and a tile is a contiguous view of its
    leading entries. Buffers are made _SLOT_GROUP at a time, and given back
    once a tile is read for the last time, so the pass allocates only as
    many as it holds at once.
    """

    def __init__(self):
        self._free: list[np.ndarray] = []
        self._taken: dict[int, np.ndarray] = {}

    def take(self, rows: int, columns: int) -> np.ndarray:
        if not self._free:
            self._free.extend(np.empty((_SLOT_GROUP, _PACKED_BLOCK_ROWS * _TILE_COLUMNS)))
        buffer = self._free.pop()
        tile = buffer[: rows * columns].reshape(rows, columns)
        self._taken[id(tile)] = buffer
        return tile

    def give(self, tile: np.ndarray) -> None:
        self._free.append(self._taken.pop(id(tile)))


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

    Each row block at row A stores kernel[A:A + r, A:], r = min(B, N - A),
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


def _memory_budget() -> int:
    """Bytes new arrays may take: MemAvailable less _MEMORY_HEADROOM_BYTES."""
    return _available_memory() - _MEMORY_HEADROOM_BYTES


def _check_kernel_fits(n_points: int) -> None:
    """Refuse, before anything is allocated, a kernel that would not fit in memory."""
    budget = _memory_budget()
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

    def fill(self, start: int, stop: int, pieces: list[tuple[int, np.ndarray]]) -> None:
        """Write kernel[start:stop, first:first + out.shape[1]] into out for each (first, out) in pieces.

        The rows are those of the fill block at start. Each first is start
        or a multiple of _KERNEL_CHUNK_COLUMNS, and each piece's columns end
        at one or at N: asymptotic chunks run from the block's split column
        to the next multiple, then one multiple apart, so every entry is the
        same whichever columns a call asks for.
        """
        from scipy.special import j0

        roots, scaled = self._roots, self._scaled
        split, orders, factors, power_rows = self._plans[start // _KERNEL_BLOCK_ROWS]
        for first, out in pieces:
            direct = out[:, : max(min(split, first + out.shape[1]) - first, 0)]
            np.multiply.outer(roots[start:stop], scaled[first : first + direct.shape[1]], out=direct)
            j0(direct, out=direct)
        pieces = [(first, out) for first, out in pieces if first + out.shape[1] > split]
        if not pieces:
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
            for first, out in pieces:
                begin, last = max(split, first), first + out.shape[1]
                above = (begin // _KERNEL_CHUNK_COLUMNS + 1) * _KERNEL_CHUNK_COLUMNS
                chunks = [begin, *range(above, last, _KERNEL_CHUNK_COLUMNS), last]
                for c0, c1 in zip(chunks, chunks[1:]):
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
                    piece = max(1, _PIECE_MULTIPLY_ADDS // (2 * rows * 2 * used))
                    for t0 in range(0, width, piece):
                        np.matmul(w, v[:, t0 : t0 + piece], out=g[:, t0 : t0 + piece])
                    real, imag = g[:rows], g[rows:]
                    e0, e1 = c0 - self._first_column, c1 - self._first_column
                    np.multiply(real, self._phase_real[:rows, e0:e1], out=real)
                    np.multiply(imag, self._phase_imag[:rows, e0:e1], out=imag)
                    np.subtract(real, imag, out=out[:, c0 - first : c1 - first])
        finally:
            self._buffers.put(buffers)


class HankelTransform:
    """Order-zero quasi-discrete Hankel transform on [0, R].

    Precomputes the Bessel-zero grid. Every pass takes complex samples
    (a real input has zero imaginary part) and returns complex values.
    Kernel tiles are filled when a call's input first reaches them: the
    first pass keeps none, and later passes keep every tile they fill.
    Passes run one at a time, under a lock; apart from the kept tiles and
    the near-axis node matrix, an instance is immutable after
    construction, and shareable. A max_radius above 1e100 m is refused
    with ResolutionError before any work.
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

        # the kept kernel: one flat array per row block, its tiles in column
        # order (_row_tile), and how many of them, always a leading run, are filled
        blocks = -(-n_points // _PACKED_BLOCK_ROWS)
        self._row_blocks: list[np.ndarray | None] = [None] * blocks
        self._kept_tiles = [0] * blocks
        # passes that read the kernel: the first keeps no tile, later ones keep all they fill
        self._passes = 0
        self._lock = threading.Lock()

        # quadrature weights for radial power integrals: 2 pi int |f|^2 r dr;
        # forward applies the kernel to samples times these weights
        self.power_weights = (4.0 * np.pi * self.max_radius**2 / self._S**2) / self._j1sq
        # same rule in k space: (1 / 2 pi) int |A|^2 k dk; inverse likewise
        self.spectral_power_weights = 1.0 / (np.pi * self.max_radius**2 * self._j1sq)
        # the Chebyshev nodes' resample matrix, made at the first fine_values
        # call, and how many of its columns are filled
        self._fine_matrix: np.ndarray | None = None
        self._fine_filled = 0

    def _tiles(self, band: list, table: _KernelRows | None, tile: Callable) -> list[list[np.ndarray]]:
        """The first count tiles of each row block (start, edges, count) in band, filled.

        tile(start, edges, i) gives tile i of the row block at start. Only
        tiles not yet kept are filled, and kept unless the pass is the
        transform's first. The band is filled on the row-block pool, one task
        per fill block of rows; then each diagonal tile filled has the lower
        triangle of its leading square copied from the upper.
        """
        height = _PACKED_BLOCK_ROWS
        filled = [self._kept_tiles[start // height] for start, _, _ in band]
        tiles, work = [], []
        for (start, edges, count), done in zip(band, filled):
            row_tiles = [tile(start, edges, i) for i in range(count)]
            tiles.append(row_tiles)
            rows = row_tiles[0].shape[0]
            for row in range(start, start + rows, _KERNEL_BLOCK_ROWS) if done < count else ():
                last = min(row + _KERNEL_BLOCK_ROWS, start + rows)
                pieces = []
                for i in range(done, count):
                    first = max(edges[i], row)
                    pieces.append((first, row_tiles[i][row - start : last - start, first - edges[i] :]))
                work.append((row, last, pieces))
        if work:
            _map_on_pool(lambda item: table.fill(*item), work)
        for (start, _, count), row_tiles, done in zip(band, tiles, filled):
            if done == 0:
                diagonal = row_tiles[0]
                for row in range(1, diagonal.shape[0]):
                    diagonal[row, :row] = diagonal[:row, row]
            if self._passes > 1 and done < count:
                # kept as this pass (counted in _passes) is not the first; counted
                # only once filled: an error leaves no part-filled tile kept
                self._kept_tiles[start // height] = count
        return tiles

    def _sweep(
        self, x: np.ndarray, support: int, transfer: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One ascending pass over the kernel's row blocks (module docstring).

        x holds the weighted input rows of N entries (_weighted), zero from
        column support on. Returns A = x K and, with transfer (rows x Z
        complex), A on its first rows columns (zero from there on) and Y K
        for the 2Z rows of Y: the real and imaginary parts of A's spectrum
        times each transfer column, times spectral_power_weights. A pass after
        the transform's first keeps every tile it fills; the first frees each
        tile once read for the last time, and keeps none.
        """
        n, height = self.n_points, _PACKED_BLOCK_ROWS
        rows = n if transfer is None else transfer.shape[0]
        spectrum = np.zeros_like(x)
        fields = y = None
        y_rows = 0
        if transfer is not None:
            fields = np.zeros((2 * transfer.shape[1], n))
            if support and transfer.shape[0]:
                y_rows = min(-(-_support(transfer) // height) * height, n)
                y = np.zeros((fields.shape[0], y_rows))
        # row blocks where Y is nonzero need every tile; the others only the
        # tiles starting below the input's support or the output rows
        plan = []
        for start in range(0, max(min(support, rows), y_rows), height):
            edges = _tile_edges(n, start)
            count = len(edges) - 1
            if start >= y_rows:
                count = bisect.bisect_left(edges, max(support, rows), hi=count)
            plan.append((start, edges, count))
        if not plan:
            return spectrum, fields
        # column blocks below inner hold rows of Y: their tiles are read again
        # when the last of those rows is reached
        inner = min(-(-y_rows // _TILE_COLUMNS) * _TILE_COLUMNS, n)

        with self._lock:
            keep = self._passes > 0
            self._passes += 1
            if keep:
                missing = [
                    edges[self._kept_tiles[start // height]]
                    for start, edges, count in plan
                    if self._kept_tiles[start // height] < count
                ]
                first = min(missing, default=None)
                # allocated before the fill's tables, which then sit above them
                # in the heap and go when the pass returns
                for start, _, _ in plan:
                    if self._row_blocks[start // height] is None:
                        width = n - start
                        self._row_blocks[start // height] = np.empty(min(height, width) * width)
            else:
                slots = _TileSlots()
                first = 0
            table = None if first is None else _KernelRows(self._j, self._S, first)

            def tile(start: int, edges: list[int], index: int) -> np.ndarray:
                c0, c1 = edges[index], edges[index + 1]
                if keep:
                    return _row_tile(self._row_blocks[start // height], n, start, c0, c1)
                return slots.take(min(height, n - start), c1 - c0)

            release = (lambda tile: None) if keep else slots.give
            held: dict[tuple[int, int], np.ndarray] = {}
            bands = [plan] if keep else _bands(plan, n, y_rows, inner)
            filled = (zip(band, self._tiles(band, table, tile)) for band in bands)
            for (start, edges, count), tiles in itertools.chain.from_iterable(filled):
                stop = min(start + height, n)
                columns = list(zip(edges, edges[1:]))
                for (c0, c1), block in zip(columns, tiles):
                    # A[rows of this block] from columns c0:c1, then, while the
                    # tile is in cache, A[c0:c1] from this block's rows (by
                    # symmetry), beyond the diagonal square
                    if start < rows and c0 < support:
                        spectrum[:, start:stop] += x[:, c0:c1] @ block.T
                    p0 = max(c0, stop)
                    if start < support and p0 < min(c1, rows):
                        spectrum[:, p0:c1] += x[:, start:stop] @ block[:, p0 - c0 :]
                if start >= y_rows:
                    for block in tiles:
                        release(block)
                    continue

                # A is whole on this block's rows: every push into them is made
                self._transfer_rows(spectrum, transfer, y, start, stop)
                for (c0, c1), block in zip(columns, tiles):
                    if c0 >= inner:
                        fields[:, c0:c1] += y[:, start:stop] @ block
                        release(block)
                    else:
                        held[start, c0] = block
                # the last row block of its column block: Y is whole there, so
                # the column block's tiles are applied both ways, then freed
                q0 = start // _TILE_COLUMNS * _TILE_COLUMNS
                q1, qr = min(q0 + _TILE_COLUMNS, n), min(q0 + _TILE_COLUMNS, y_rows)
                if stop < qr:
                    continue
                for i in range(0, q0, height):
                    block = held.pop((i, q0))
                    fields[:, q0:q1] += y[:, i : i + height] @ block
                    fields[:, i : i + height] += y[:, q0:qr] @ block[:, : qr - q0].T
                    release(block)
                for d0 in range(q0, qr, height):
                    block = held.pop((d0, d0))
                    d1 = d0 + block.shape[0]
                    fields[:, d0:q1] += y[:, d0:d1] @ block
                    if d1 < qr:
                        fields[:, d0:d1] += y[:, d1:qr] @ block[:, d1 - d0 : qr - d0].T
                    release(block)
        spectrum[:, rows:] = 0.0
        return spectrum, fields

    def _transfer_rows(self, spectrum, transfer, y, start: int, stop: int) -> None:
        """Write rows start:stop of Y (see _sweep) from A's spectrum there."""
        rows = slice(start, min(stop, transfer.shape[0]))
        values = np.empty(rows.stop - rows.start, dtype=complex)
        values.real, values.imag = spectrum[:, rows]
        product = values[:, None] * transfer[rows]
        weights = self.spectral_power_weights[rows]
        np.multiply(product.real.T, weights, out=y[0::2, rows])
        np.multiply(product.imag.T, weights, out=y[1::2, rows])

    def _weighted(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """(N,) or (N, Z) values times weights, as 2Z interleaved rows of the
        real and imaginary parts, so one pass over the real kernel covers both."""
        if values.ndim not in (1, 2) or values.shape[0] != self.n_points:
            raise DomainError(
                f"expected shape ({self.n_points},) or ({self.n_points}, Z), "
                f"got {values.shape}"
            )
        stack = values.reshape(self.n_points, -1).T
        x = np.empty((2 * stack.shape[0], self.n_points))
        np.multiply(stack.real, weights, out=x[0::2])
        np.multiply(stack.imag, weights, out=x[1::2])
        return x

    def _apply(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        x = self._weighted(values, weights)
        out, _ = self._sweep(x, _support(values))
        # freed first, so at most two 2Z x N arrays are alive at once
        del x
        return _columns(out, values.shape)

    def forward(self, field_values: np.ndarray) -> np.ndarray:
        """Angular spectrum A(k_m) of samples f(r_n), one per column of (N, Z) input."""
        return self._apply(field_values, self.power_weights)

    def inverse(self, spectrum_values: np.ndarray) -> np.ndarray:
        """Field samples f(r_n) from an angular spectrum A(k_m), one per column of (N, Z) input."""
        return self._apply(spectrum_values, self.spectral_power_weights)

    def forward_inverse(
        self, field_values: np.ndarray, transfer: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(spectrum, fields): forward, times each column of transfer, and inverse, in one kernel pass.

        field_values has shape (N,); transfer is (rows, Z), rows <= N. rows
        bounds the spectrum (a scan's light cone): the pass skips each
        product that writes only rows from rows on, so it fills the row
        blocks starting below min(s, rows), s the field's support, with
        their tiles starting below max(s, rows), and every tile of the row
        blocks where transfer is nonzero. The products kept keep their
        shapes and order, so the spectrum is forward(field_values) with its
        rows from rows on set to zero, bit for bit. Column z of the (N, Z)
        fields is inverse(spectrum * transfer[:, z]) up to rounding. The
        pass keeps the tiles it fills unless it is the transform's first.
        """
        values = np.asarray(field_values)
        transfer = np.asarray(transfer)
        if values.shape != (self.n_points,) or transfer.ndim != 2 or not (
            transfer.shape[0] <= self.n_points and transfer.shape[1] >= 1
        ):
            raise DomainError(
                f"expected shapes ({self.n_points},) and (rows <= {self.n_points}, Z >= 1), "
                f"got {values.shape} and {transfer.shape}"
            )
        x = self._weighted(values, self.power_weights)
        spectrum, fields = self._sweep(x, _support(values), transfer)
        del x
        return _columns(spectrum, values.shape), _columns(fields, (self.n_points, transfer.shape[1]))

    def _check_scan_fits(self, planes: int) -> None:
        """Refuse, before anything is allocated, a scan whose planes, beside the
        kernel bytes not yet held, would not fit in memory. A plane holds at
        most three columns of N complex samples at once (its transfer, fields,
        and Y or the fields' returned copy; later its fields, spectra and small
        fine values and fits) and products a tile and a row block wide."""
        plane_bytes = 16 * (3 * self.n_points + _TILE_COLUMNS + _PACKED_BLOCK_ROWS)
        kernel = _kernel_bytes(self.n_points) - sum(b.nbytes for b in self._row_blocks if b is not None)
        budget = _memory_budget() - kernel
        if planes * plane_bytes > budget:
            largest = max(budget, 0) // plane_bytes
            raise ResolutionError(
                f"a {planes}-plane scan needs {planes * plane_bytes / 1e9:,.2f} GB for its planes, "
                f"but {max(budget, 0) / 1e9:,.2f} GB of memory is available for them "
                f"({_MEMORY_HEADROOM_BYTES / 2**30:.2g} GiB is kept free, and "
                f"{kernel / 1e9:,.2f} GB for the kernel tiles not yet held): "
                + (f"scan_steps <= {largest} fits" if largest else "no scan fits")
            )

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

        def fill_block(start: int) -> None:
            end = start + _RESAMPLE_BLOCK_ROWS
            rows = matrix[start:end, first:stop]
            np.multiply.outer(radii[start:end], self.k_radial[first:stop], out=rows)
            j0(rows, out=rows)
            np.divide(rows, norm, out=rows)

        _map_on_pool(fill_block, range(0, radii.size, _RESAMPLE_BLOCK_ROWS))

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
        with self._lock:
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
