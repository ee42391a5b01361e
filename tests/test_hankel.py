"""Quasi-discrete Hankel transform: kernel, round trips, Parseval, batches, caching."""

from __future__ import annotations

import gc
import re
import sys
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.special
from scipy.special import j0, jn_zeros

from pflens import (
    DomainError,
    HankelTransform,
    LensDesign,
    ResolutionError,
    apply_binary_pfl,
    apply_ideal_lens,
    clear_transform_cache,
    diffraction,
    focal_scan,
    gaussian_beam,
    get_transform,
    hankel,
    zone_layout,
)


@pytest.fixture(scope="module")
def transform() -> HankelTransform:
    return HankelTransform(n_points=512, max_radius=1e-3)


def gaussian(radii: np.ndarray, waist) -> np.ndarray:
    """exp(-r^2 / w^2); a sequence of waists gives one column per waist."""
    waist = np.asarray(waist, dtype=float)
    if waist.ndim:
        return np.exp(-((radii[:, None] / waist) ** 2))
    return np.exp(-((radii / waist) ** 2))


class TestGridStructure:
    def test_radii_increasing_and_bounded(self, transform):
        assert transform.n_points == 512
        assert transform.radii.shape == (512,)
        assert np.all(np.diff(transform.radii) > 0)
        assert transform.radii[0] > 0
        assert transform.radii[-1] < transform.max_radius

    @pytest.mark.parametrize("n_points", [4, 64, 1300, 4096, 18000])
    def test_max_spacing_is_the_widest_gap_below_r_over_n_plus_three_quarters(self, n_points):
        # the bound apply_binary_pfl's minimum grid_points is computed from
        t = HankelTransform(n_points, 2.64e-3)
        assert t.max_spacing == np.max(np.diff(t.radii))
        assert t.max_spacing < t.max_radius / (n_points + 0.75)
        assert t.fine_span == min(60 * t.max_spacing, t.max_radius)
        assert isinstance(t.max_spacing, float) and isinstance(t.fine_span, float)

    def test_bessel_zeros_are_scipys_bit_for_bit(self):
        # the grid's N + 1 roots: jn_zeros up to _SCIPY_ZEROS, McMahon and
        # Newton beyond, so no output bit depends on which made them
        reference = jn_zeros(0, 60001)
        for n_points in (4, 5, 127, 128, 129, 2048, 14400, 18000, 60000):
            roots = hankel._bessel_zeros(n_points + 1)
            assert np.array_equal(roots, reference[: n_points + 1]), n_points
        t = HankelTransform(129, 1e-3)
        assert np.array_equal(t._j, reference[:129]) and t._S == reference[129]

    def test_spectral_grid_increasing(self, transform):
        assert transform.k_radial.shape == (512,)
        assert np.all(np.diff(transform.k_radial) > 0)
        assert transform.k_radial[0] > 0

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(DomainError):
            HankelTransform(n_points=0, max_radius=1e-3)
        with pytest.raises(DomainError):
            HankelTransform(n_points=64, max_radius=0.0)

    def test_vast_radius_refused_before_any_work(self, monkeypatch):
        # R^2 in the power weights overflows a float from about 1.3e154 m on;
        # at the bound both weight vectors are finite and nonzero
        widest = HankelTransform(n_points=64, max_radius=1e100)
        for weights in (widest.power_weights, widest.spectral_power_weights):
            assert np.all(np.isfinite(weights)) and np.all(weights > 0)

        def no_zeros(*args):
            raise AssertionError("jn_zeros ran for a refused grid")

        monkeypatch.setattr(scipy.special, "jn_zeros", no_zeros)
        for radius in (1e160, 1e200, np.inf):
            with pytest.raises(ResolutionError, match="above the 1e\\+100 m a transform allows"):
                HankelTransform(n_points=64, max_radius=radius)


def kept_tiles(t: HankelTransform):
    """(start, c0, tile) for each kept tile of t, all or none: tile = kernel[start:start + rows, c0:c1]."""
    starts = range(0, t.n_points, hankel._PACKED_BLOCK_ROWS)
    for start, tiles in zip(starts, t._row_blocks or ()):
        for c0, tile in zip(hankel._tile_edges(t.n_points, start), tiles):
            yield start, c0, tile


def first_pass(t: HankelTransform) -> None:
    """t's first pass, which keeps no tile: a forward of one sample, which fills the first fill block only."""
    sample = np.zeros(t.n_points)
    sample[0] = 1.0
    t.forward(sample)


def keep_whole_kernel(t: HankelTransform) -> None:
    """Fill and keep t's whole kernel, unless it is kept: t's second pass keeps
    it whatever the pass reaches, so a second one-sample forward serves."""
    if not t._passes:
        first_pass(t)
    if t._row_blocks is None:
        first_pass(t)


def fill_blocks_below(n_points: int, bound: int) -> Counter:
    """Entries a pass fills in each fill block starting below bound (its rows
    from the diagonal on), by the block's first row, as filled_entries counts them."""
    block = hankel._KERNEL_BLOCK_ROWS
    return Counter(
        {start: min(block, n_points - start) * (n_points - start) for start in range(0, bound, block)}
    )


@pytest.fixture
def filled_entries(monkeypatch) -> Counter:
    """Kernel entries filled while the test runs, by the first row of each fill block."""
    entries = Counter()
    fill = hankel._KernelRows.fill

    def counting(rows, start, stop, pieces):
        entries[start] += (stop - start) * sum(out.shape[1] for _, out in pieces)
        fill(rows, start, stop, pieces)

    monkeypatch.setattr(hankel._KernelRows, "fill", counting)
    return entries


@pytest.fixture(scope="module", params=[100, 1300, 4096, 8192])
def packed_case(request):
    """A transform checked one row block at a time against j0(outer(j, j / S)).

    100 is all direct j0 in one row block and tile, 1300 ends in a ragged
    row block and tile; at 4096 and 8192 the expansion fills most of the
    kernel. The dense reference is never held as an N x N array: each
    row block gives the deviation of its tiles and its rows of the
    reference products of forward and inverse.
    """
    n = request.param
    t = HankelTransform(n_points=n, max_radius=1e-3)
    keep_whole_kernel(t)
    rng = np.random.default_rng(n)
    inputs = {}
    for shape in [(n,), (n, 1), (n, 42)]:
        inputs["real", shape] = rng.standard_normal(shape)
        inputs["complex", shape] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # every input, weighted for each direction, as float64 columns of one
    # matrix, so each row block makes one real product per direction
    directions = {"forward": t.power_weights, "inverse": t.spectral_power_weights}
    stacks = {
        direction: np.hstack(
            [
                (values.reshape(n, -1) * weights[:, None]).view(np.float64)
                for values in inputs.values()
            ]
        )
        for direction, weights in directions.items()
    }
    products = {direction: np.empty_like(stack) for direction, stack in stacks.items()}
    tiles = {}
    for start, c0, tile in kept_tiles(t):
        tiles.setdefault(start, []).append((c0, tile))
    deviation, symmetric = 0.0, True
    for start in range(0, n, hankel._PACKED_BLOCK_ROWS):
        stop = min(start + hankel._PACKED_BLOCK_ROWS, n)
        direct = j0(np.outer(t._j[start:stop], t._j / t._S))
        for c0, tile in tiles[start]:
            deviation = max(deviation, np.max(np.abs(tile - direct[:, c0 : c0 + tile.shape[1]])))
        diagonal = tiles[start][0][1][:, : stop - start]
        symmetric &= np.array_equal(diagonal, diagonal.T)
        for direction, stack in stacks.items():
            np.matmul(direct, stack, out=products[direction][start:stop])
    expected = {}
    for direction, product in products.items():
        first = 0
        for key, values in inputs.items():
            width = values.reshape(n, -1).view(np.float64).shape[1]
            columns = np.ascontiguousarray(product[:, first : first + width])
            expected[direction, key] = columns.view(values.dtype).reshape(values.shape)
            first += width
    return t, inputs, expected, deviation, symmetric


class TestKernel:
    def test_matches_direct_evaluation_and_is_symmetric(self, packed_case):
        # off the diagonal tiles the kernel is symmetric by construction:
        # the tiles stand for the lower triangle through their transpose
        _, _, _, deviation, symmetric = packed_case
        assert symmetric
        assert deviation < 1e-13

    def test_transforms_match_dense_products(self, packed_case):
        t, inputs, expected, _, _ = packed_case
        for (direction, key), reference in expected.items():
            result = getattr(t, direction)(inputs[key])
            assert result.shape == reference.shape
            # every pass returns complex values; a real input's are real
            assert result.dtype == np.complex128
            if key[0] == "real":
                assert not np.any(result.imag)
            error = np.max(np.abs(result - reference)) / np.max(np.abs(reference))
            assert error <= 1e-12, (direction, key, error)

    def test_stores_only_the_upper_triangle(self, packed_case):
        t = packed_case[0]
        n = t.n_points
        rows = hankel._PACKED_BLOCK_ROWS
        assert sum(tile.nbytes for tiles in t._row_blocks for tile in tiles) == hankel._kernel_bytes(n)
        # a row block's tiles run from its diagonal to N, their edges on
        # multiples of the tile width: the diagonal tile of the second row
        # block of each column block is square
        expected = []
        for start in range(0, n, rows):
            edges = [start, *range((start // 1024 + 1) * 1024, n, 1024), n]
            assert hankel._tile_edges(n, start) == edges
            expected += [(start, c0, (min(rows, n - start), c1 - c0)) for c0, c1 in zip(edges, edges[1:])]
        assert [(start, c0, tile.shape) for start, c0, tile in kept_tiles(t)] == expected
        # about half the dense 8 N^2 bytes once N spans several row blocks
        if n >= 4096:
            assert hankel._kernel_bytes(n) < 0.57 * 8 * n**2

    def test_default_grid_row_blocks_match_direct_evaluation(self):
        # fill blocks of the 18000-point kernel, filled without the 2.6 GB matrix:
        # all direct, direct then asymptotic, asymptotic only, and the ragged last
        n_points = 18000
        roots = jn_zeros(0, n_points + 1)
        j, scaled = roots[:n_points], roots[:n_points] / roots[n_points]
        rows = hankel._KernelRows(j, roots[n_points])
        block = hankel._KERNEL_BLOCK_ROWS
        for start in (0, block, 70 * block, (n_points - 1) // block * block):
            stop = min(start + block, n_points)
            out = np.empty((stop - start, n_points - start))
            rows.fill(start, stop, [(start, out)])
            direct = j0(np.outer(j[start:stop], scaled[start:]))
            assert np.max(np.abs(out - direct)) < 1e-13
            # the same rows asked for as tiles, in two pieces of columns per call:
            # every entry is the one the whole row gave
            edges = hankel._tile_edges(n_points, start // 512 * 512)
            tiles = [np.empty((stop - start, c1 - max(c0, start))) for c0, c1 in zip(edges, edges[1:])]
            firsts = [max(c0, start) for c0 in edges[:-1]]
            for pair in range(0, len(tiles), 2):
                rows.fill(start, stop, list(zip(firsts, tiles))[pair : pair + 2])
            assert np.array_equal(np.hstack(tiles), out)

    def test_expansion_replaces_most_bessel_calls(self, monkeypatch):
        evaluated = []

        def counting_j0(x, *args, **kwargs):
            evaluated.append(np.size(x))
            return j0(x, *args, **kwargs)

        monkeypatch.setattr(scipy.special, "j0", counting_j0)
        n_points = 4096
        t = HankelTransform(n_points=n_points, max_radius=1e-3)
        first_pass(t)
        # the keeping pass's fill only: under 10 % of the upper triangle goes through j0
        evaluated.clear()
        keep_whole_kernel(t)
        assert 0 < sum(evaluated) < 0.1 * n_points * (n_points + 1) / 2

    def test_threaded_build_is_deterministic(self, monkeypatch):
        # 1300 points: three row blocks and five tiles, the last ragged, so four CPUs all get work
        kernels = []
        for cpus in (4, 4, 1):
            monkeypatch.setattr(hankel, "_usable_cpus", lambda: cpus)
            t = HankelTransform(n_points=1300, max_radius=1e-3)
            keep_whole_kernel(t)
            kernels.append([tile for *_, tile in kept_tiles(t)])
        assert [len(tiles) for tiles in kernels] == [5, 5, 5]
        for a, b, c in zip(*kernels):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)

    def test_repeat_calls_are_bit_identical(self):
        # the first call keeps no tile, the second keeps them, the third fills none
        t = HankelTransform(n_points=1300, max_radius=1e-3)
        rng = np.random.default_rng(3)
        columns = rng.standard_normal((1300, 42)) + 1j * rng.standard_normal((1300, 42))
        for values in (columns[:, 0], columns.real, columns):
            assert np.array_equal(t.forward(values), t.forward(values))
            assert np.array_equal(t.inverse(values), t.inverse(values))


def supported(n_points: int, support: int, columns: int = 3, seed: int = 0) -> np.ndarray:
    """Complex (n_points, columns) input, nonzero in every column of row support - 1 and zero from there on."""
    rng = np.random.default_rng(seed)
    values = np.zeros((n_points, columns), complex)
    values[:support] = rng.standard_normal((support, columns)) + 1j * rng.standard_normal(
        (support, columns)
    )
    values[support - 1] += 1.0
    return values


def unskipped_apply(t: HankelTransform, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """forward / inverse of complex (N, Z) values through every kept tile and product, none skipped."""
    x = np.ascontiguousarray((values * weights[:, None]).view(np.float64).T)
    out = np.zeros_like(x)
    for start, c0, tile in kept_tiles(t):
        stop, c1 = start + tile.shape[0], c0 + tile.shape[1]
        out[:, start:stop] += x[:, c0:c1] @ tile.T
        pushed = max(c0, stop)
        out[:, pushed:c1] += x[:, start:stop] @ tile[:, pushed - c0 :]
    return np.ascontiguousarray(out.T).view(np.complex128)


def cone_transfer(n_points: int, cone: int, planes: int = 2) -> np.ndarray:
    """(n_points, planes) unit phases below row cone, zero from there on: a light cone at cone."""
    transfer = np.zeros((n_points, planes), complex)
    transfer[:cone] = np.exp(1j * np.linspace(0.0, 3.0, cone * planes)).reshape(cone, planes)
    return transfer


def bounded_forward(t: HankelTransform, values: np.ndarray, cone: int) -> np.ndarray:
    """The spectrum of (N,) values from forward_inverse with a light cone at cone."""
    spectrum, _ = t.forward_inverse(values, cone_transfer(t.n_points, cone, 1))
    return spectrum


class TestLazyFill:
    # 1300 points: three row blocks, the last ragged, and two column blocks,
    # the last ragged

    # kernel entries the parent's super-blocks of 512 whole rows filled for
    # forward(supported(1300, support))
    PARENT_SUPPORT = {1: 567296, 511: 567296, 512: 567296, 513: 872448, 1100: 927120, 1300: 927120}
    # ... and for a forward then inverse of the propagated spectra, by (N,
    # field support, light cone of the transfer)
    PARENT_SCANS = {
        (1300, 1300, 1300): 927120,
        (1300, 1300, 650): 872448,
        (1300, 400, 1000): 872448,
        (1300, 1100, 513): 872448,
        (4096, 4096, 1050): 5210112,
        (4096, 2000, 3000): 8060928,
        (4096, 3000, 2049): 7372800,
    }

    @pytest.mark.parametrize("support", [1, 511, 512, 513, 1100, 1300])
    def test_support_fills_the_blocks_it_reaches(self, support, filled_entries):
        # a first pass fills the fill blocks starting below the support and keeps none
        t = HankelTransform(n_points=1300, max_radius=1e-3)
        t.forward(supported(1300, support))
        assert filled_entries == fill_blocks_below(1300, support)
        assert sum(filled_entries.values()) <= self.PARENT_SUPPORT[support]
        assert t._row_blocks is None

    def test_zero_input_fills_nothing(self, filled_entries):
        t = HankelTransform(n_points=1300, max_radius=1e-3)
        for values in (np.zeros(1300), np.zeros((1300, 4), complex)):
            assert not np.any(t.forward(values))
            assert not np.any(t.inverse(values))
        spectrum, fields = t.forward_inverse(np.zeros(1300), np.ones((1300, 2)))
        assert not np.any(spectrum) and not np.any(fields)
        assert not filled_entries
        assert t._row_blocks is None and t._passes == 0

    def test_fill_order_and_threads_leave_the_kernel_bit_identical(self, monkeypatch):
        monkeypatch.setattr(hankel, "_usable_cpus", lambda: 1)
        reference = HankelTransform(n_points=1300, max_radius=1e-3)
        keep_whole_kernel(reference)
        expected = [tile for *_, tile in kept_tiles(reference)]
        # (support, light cone) of bounded passes after a first pass, which keeps
        # nothing: the first of them fills and keeps the whole kernel, though
        # (40, 600) and (513, 700) read only the first row block
        for cpus in (1, 2, 4):
            monkeypatch.setattr(hankel, "_usable_cpus", lambda: cpus)
            for calls in (
                [], [(1, 1300)], [(600, 1300)], [(1, 1300), (1025, 1300)], [(40, 600)],
                [(513, 700), (1300, 1300)],
            ):
                t = HankelTransform(n_points=1300, max_radius=1e-3)
                t.forward(supported(1300, 1))
                for support, cone in calls:
                    bounded_forward(t, supported(1300, support)[:, 0], cone)
                keep_whole_kernel(t)
                tiles = [tile for *_, tile in kept_tiles(t)]
                assert len(tiles) == len(expected)
                for tile, reference_tile in zip(tiles, expected):
                    assert np.array_equal(tile, reference_tile), (cpus, calls)

    def test_concurrent_first_calls_run_one_at_a_time(self, filled_entries):
        t = HankelTransform(n_points=1300, max_radius=1e-3)
        values = supported(1300, 1300, columns=4)
        calls = 4
        barrier = threading.Barrier(calls)
        results = [None] * calls

        def first_call(i):
            barrier.wait(timeout=30)
            results[i] = t.inverse(values)

        threads = [threading.Thread(target=first_call, args=(i,)) for i in range(calls)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # one call keeps nothing, the next fills every row again and keeps
        # it, and the others fill nothing
        rows = {start: min(128, 1300 - start) * (1300 - start) for start in range(0, 1300, 128)}
        assert filled_entries == Counter({start: 2 * entries for start, entries in rows.items()})
        for result in results[1:]:
            assert np.array_equal(result, results[0])

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_support_limited_results_match_a_full_kernel(self, direction):
        full = HankelTransform(n_points=1300, max_radius=1e-3)
        keep_whole_kernel(full)
        weights = {"forward": full.power_weights, "inverse": full.spectral_power_weights}
        for support in (1, 300, 700, 1300):
            lazy = HankelTransform(n_points=1300, max_radius=1e-3)
            values = supported(1300, support, seed=support)
            result = getattr(lazy, direction)(values)
            assert np.array_equal(result, getattr(full, direction)(values)), support
            # skipping the products whose input is zero changes no bit
            assert np.array_equal(result, unskipped_apply(full, values, weights[direction]))

    @pytest.mark.parametrize("case", PARENT_SCANS)
    def test_scans_keep_tiles_from_their_second_pass(self, case, filled_entries):
        n, support, cone = case
        t = HankelTransform(n_points=n, max_radius=1e-3)
        field = supported(n, support, columns=1, seed=support)[:, 0]
        transfer = cone_transfer(n, cone)
        results, filled, kept = [], [], []
        for _ in range(3):
            filled_entries.clear()
            results.append(t.forward_inverse(field, transfer))
            filled.append(sum(filled_entries.values()))
            kept.append(t._row_blocks)
        # the first scan fills the fill blocks below the light cone, no more
        # than the parent's forward and inverse, and keeps nothing; the second
        # fills the whole triangle and keeps it, the third fills nothing
        triangle = sum(min(128, n - start) * (n - start) for start in range(0, n, 128))
        assert filled[0] == sum(fill_blocks_below(n, cone).values())
        assert 0 < filled[0] <= self.PARENT_SCANS[case]
        assert filled == [filled[0], triangle, 0]
        assert kept[0] is None and kept[1] is not None and kept[2] is kept[1]
        # streamed and kept passes give the same bits
        for spectrum, fields in results[1:]:
            assert np.array_equal(spectrum, results[0][0])
            assert np.array_equal(fields, results[0][1])
        # the spectrum is a whole forward's with the rows from the light cone
        # on set to zero; the fields are the inverse of its propagated
        # columns, to rounding
        spectrum, fields = results[0]
        whole = t.forward(field)
        whole[cone:] = 0
        assert np.array_equal(spectrum, whole)
        reference = t.inverse(spectrum[:, None] * transfer)
        assert fields.shape == (n, 2)
        assert np.max(np.abs(fields - reference)) <= 1e-14 * np.max(np.abs(reference))

    def test_a_second_pass_fills_each_entry_once_whatever_it_reaches(self, filled_entries):
        # a scan whose light cone reaches 3 of the 8 row blocks: its second
        # pass fills every entry of the upper triangle once and keeps every
        # row block, and a third pass fills nothing
        n = 4096
        t = HankelTransform(n_points=n, max_radius=1e-3)
        field = supported(n, n, columns=1, seed=5)[:, 0]
        transfer = cone_transfer(n, 1050)
        results = [t.forward_inverse(field, transfer)]
        filled_entries.clear()
        results.append(t.forward_inverse(field, transfer))
        assert filled_entries == Counter(
            {start: min(128, n - start) * (n - start) for start in range(0, n, 128)}
        )
        rows = hankel._PACKED_BLOCK_ROWS
        assert [sum(tile.size for tile in tiles) for tiles in t._row_blocks] == [
            min(rows, n - start) * (n - start) for start in range(0, n, rows)
        ]
        filled_entries.clear()
        results.append(t.forward_inverse(field, transfer))
        assert not filled_entries
        for spectrum, fields in results[1:]:
            assert np.array_equal(spectrum, results[0][0])
            assert np.array_equal(fields, results[0][1])

    def test_a_keeping_fill_that_fails_keeps_nothing(self, monkeypatch):
        class FillFailed(Exception):
            pass

        fill = hankel._KernelRows.fill

        def failing(rows, start, stop, pieces):
            if start == 640:
                raise FillFailed
            fill(rows, start, stop, pieces)

        t = HankelTransform(n_points=1300, max_radius=1e-3)
        values = supported(1300, 1300)
        first_pass(t)
        with monkeypatch.context() as patched:
            patched.setattr(hankel._KernelRows, "fill", failing)
            with pytest.raises(FillFailed):
                t.forward(values)
        assert t._row_blocks is None
        # the next pass fills the kernel again and keeps it, with the bits of
        # a transform whose fill never failed
        clean = HankelTransform(n_points=1300, max_radius=1e-3)
        keep_whole_kernel(clean)
        assert np.array_equal(t.forward(values), clean.forward(values))
        tiles = list(kept_tiles(t))
        assert len(tiles) == 5
        for (*_, tile), (*_, reference) in zip(tiles, kept_tiles(clean)):
            assert np.array_equal(tile, reference)

    @pytest.mark.parametrize("n_points", [1300, 4096])
    def test_a_long_scan_is_one_pass(self, n_points, filled_entries, monkeypatch):
        # 130 planes, more than two batches of 64: one forward_inverse and no
        # other pass, each kernel entry filled at most once, and no tile kept
        t = HankelTransform(n_points=n_points, max_radius=400e-6)
        calls = []

        def recorded(name):
            method = getattr(t, name)
            return lambda *args: calls.append(name) or method(*args)

        for name in ("forward", "inverse", "forward_inverse"):
            monkeypatch.setattr(t, name, recorded(name))
        field = apply_ideal_lens(gaussian_beam(t, 75e-6, 854e-9), 200e-6, 150e-6)
        assert t._passes == 0
        scan = diffraction.scan_field(field, np.linspace(195e-6, 205e-6, 130), fine_points=256)
        assert scan.has_interior_minimum() and scan.fitted_waists.shape == (130,)
        assert calls == ["forward_inverse"] and t._passes == 1
        assert filled_entries
        for start, entries in filled_entries.items():
            assert entries <= min(128, n_points - start) * (n_points - start), start
        assert t._row_blocks is None


class TestRowBound:
    # 1300 points: three row blocks, the last ragged; with 512-column tiles
    # every diagonal tile is square, with 2048 the first row block is one tile.
    # (field support, light cone); supported(1300, 0) is nonzero in its last row
    CASES = [
        (1300, 1), (1300, 299), (1300, 300), (1300, 301), (1300, 511), (1300, 512),
        (1300, 513), (1300, 811), (1300, 812), (1300, 813), (1300, 1024), (1300, 1299),
        (700, 512), (700, 900), (513, 1100), (40, 600), (1300, 0),
    ]

    @pytest.mark.parametrize("tile_columns", [hankel._TILE_COLUMNS, 512, 2048])
    @pytest.mark.parametrize("support, cone", CASES)
    def test_bounded_forward_matches_full_forward_below_the_bound(
        self, monkeypatch, filled_entries, tile_columns, support, cone
    ):
        monkeypatch.setattr(hankel, "_TILE_COLUMNS", tile_columns)
        columns = supported(1300, support, seed=cone)
        bounded = HankelTransform(n_points=1300, max_radius=1e-3)
        bounded_forward(bounded, columns[:, 0], cone)
        # the fill blocks starting below the light cone, whatever the support
        assert filled_entries == fill_blocks_below(1300, cone)
        # the first call on each transform keeps nothing, the later ones keep
        full = HankelTransform(n_points=1300, max_radius=1e-3)
        for values in (*columns.T, columns[:, 0].real):
            reference = full.forward(values)
            reference[cone:] = 0
            assert np.array_equal(bounded_forward(bounded, values, cone), reference)
        values = columns[:, 0]
        assert np.array_equal(bounded_forward(bounded, values, 1300), full.forward(values))

    # (pass, field support s, light cone t or None): row bounds b inside a
    # row block, s for forward and inverse and t for forward_inverse, with s
    # below, inside and beyond t's row block
    INNER_BOUNDS = [
        ("forward", 129, None), ("forward", 700, None), ("forward", 1025, None),
        ("inverse", 129, None), ("inverse", 700, None), ("inverse", 1025, None),
        ("forward_inverse", 129, 50), ("forward_inverse", 1025, 129),
        ("forward_inverse", 1300, 700), ("forward_inverse", 129, 700),
        ("forward_inverse", 300, 1025),
    ]

    @pytest.mark.parametrize("direction, support, cone", INNER_BOUNDS)
    def test_a_first_pass_fills_below_a_bound_inside_a_row_block(
        self, monkeypatch, filled_entries, direction, support, cone
    ):
        n = 1300
        if cone is None:
            args, bound = (supported(n, support, seed=support),), support
        else:
            field = supported(n, support, columns=1, seed=support)[:, 0]
            args, bound = (field, cone_transfer(n, cone)), cone

        def run(t: HankelTransform) -> tuple:
            result = getattr(t, direction)(*args)
            return result if isinstance(result, tuple) else (result,)

        # a first pass's tiles start as NaN: an entry neither filled, zeroed
        # nor mirrored would show in every result
        take = hankel._TileSlots.take

        def poisoned(slots, rows, columns):
            tile = take(slots, rows, columns)
            tile.fill(np.nan)
            return tile

        monkeypatch.setattr(hankel._TileSlots, "take", poisoned)
        t = HankelTransform(n_points=n, max_radius=1e-3)
        first = run(t)
        assert filled_entries == fill_blocks_below(n, bound)
        assert t._row_blocks is None
        kept = run(t)
        assert t._row_blocks is not None
        # a first pass with the bound at N fills its row blocks whole
        tiles = hankel._tiles
        monkeypatch.setattr(
            hankel, "_tiles", lambda band, row_tiles, table, bound: tiles(band, row_tiles, table, n)
        )
        filled_entries.clear()
        whole = run(HankelTransform(n_points=n, max_radius=1e-3))
        assert filled_entries == fill_blocks_below(n, min(-(-bound // 512) * 512, n))
        for reference in (kept, whole):
            assert len(first) == len(reference)
            for result, expected in zip(first, reference):
                assert np.all(np.isfinite(result))
                assert np.array_equal(result, expected)

    def test_criterion_03_scan_stops_at_the_light_cone(self, filled_entries):
        # every plane's exact propagator underflows to 0 beyond k ~ 1.12 k0,
        # row ~1050 of 8192: the kernel pass, the inverse and the fine
        # resample matrix stop there
        t = HankelTransform(n_points=8192, max_radius=400e-6)
        layout = zone_layout(LensDesign(200e-6, 300e-6, 854e-9))
        field = gaussian_beam(t, 75e-6, 854e-9)
        z = np.linspace(198e-6, 202e-6, 9)
        focal_scan(field, layout, (z[0], z[-1]), z.size, fine_points=256)
        transmitted = apply_binary_pfl(field, layout)
        kz = diffraction._transfer_wavenumber(t, transmitted.wavenumber)
        transfer = diffraction._transfer(kz, z)
        cone = hankel._support(transfer)
        assert 1024 < cone < 1100
        # the nine fill blocks starting below the light cone (8.85M entries,
        # where three whole row blocks were 11.50M); the scan's one pass keeps none
        assert filled_entries == fill_blocks_below(8192, 1152)
        assert sum(filled_entries.values()) == 8_847_360
        assert t._row_blocks is None
        spectrum, _ = t.forward_inverse(transmitted.amplitude, transfer)
        # the matrix fills the columns the propagated spectra reach: the last
        # few rows below the light cone underflow to 0 in spectrum x phase
        assert t._fine_filled == hankel._support(spectrum[:, None] * transfer)
        assert cone - 16 < t._fine_filled <= cone


class TestRoundTripAndParseval:
    # each check runs on (N,) samples and on an (N, Z) stack of columns

    def test_forward_inverse_round_trip(self, transform):
        for waist in (150e-6, [90e-6, 150e-6, 210e-6]):
            field = gaussian(transform.radii, waist)
            recovered = transform.inverse(transform.forward(field))
            assert recovered.shape == field.shape
            assert np.max(np.abs(recovered - field)) < 1e-12

    def test_inverse_forward_round_trip(self, transform):
        for waist in (2e4, [1.5e4, 2e4, 3e4]):
            spectrum = gaussian(transform.k_radial, waist)
            recovered = transform.forward(transform.inverse(spectrum))
            assert recovered.shape == spectrum.shape
            assert np.max(np.abs(recovered - spectrum)) < 1e-12

    def test_parseval(self, transform):
        field = gaussian(transform.radii, 150e-6) * np.exp(
            1j * 2e3 * transform.radii
        )
        spectrum = transform.forward(field)
        p_real = transform.radial_power(field)
        # (1 / 2 pi) int |A(k)|^2 k dk
        p_spec = float(np.sum(transform.spectral_power_weights * np.abs(spectrum) ** 2))
        assert p_spec == pytest.approx(p_real, rel=1e-6)

    def test_radial_power_matches_analytic_gaussian(self, transform):
        # integral of exp(-2 r^2 / w^2) 2 pi r dr = pi w^2 / 2
        waist = 150e-6
        field = gaussian(transform.radii, waist)
        assert transform.radial_power(field) == pytest.approx(
            np.pi * waist**2 / 2, rel=1e-6
        )

    def test_forward_matches_analytic_gaussian_pair(self, transform):
        # under A(k) = 2 pi int f(r) J0(kr) r dr, exp(-r^2/w^2)
        # transforms to pi w^2 exp(-k^2 w^2 / 4)
        for waist in (120e-6, [90e-6, 120e-6]):
            spectrum = transform.forward(gaussian(transform.radii, waist))
            waist = np.asarray(waist)
            k = transform.k_radial[:, None] if waist.ndim else transform.k_radial
            expected = np.pi * waist**2 * np.exp(-((k * waist) ** 2) / 4)
            assert np.max(np.abs(spectrum - expected)) / expected.max() < 1e-9


class TestBatchedColumns:
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
    def test_columns_match_one_dimensional_calls(self, transform, direction, complex_input):
        rng = np.random.default_rng(7)
        columns = rng.standard_normal((transform.n_points, 5))
        if complex_input:
            columns = columns + 1j * rng.standard_normal(columns.shape)
        apply = getattr(transform, direction)
        batched = apply(columns)
        one_by_one = np.stack([apply(columns[:, z]) for z in range(5)], axis=1)
        assert batched.shape == columns.shape
        assert batched.dtype == np.complex128
        assert np.max(np.abs(batched - one_by_one)) <= 1e-14 * np.max(np.abs(one_by_one))
        if complex_input:
            # the transform is real-linear: the real parts' transforms are the reference
            parts = apply(columns.real).real + 1j * apply(columns.imag).real
            assert np.max(np.abs(batched - parts)) <= 1e-14 * np.max(np.abs(parts))

    def test_real_samples_pass_as_their_complex_cast(self, transform):
        # a real input is taken as complex with zero imaginary part: every
        # pass gives the cast's bits, signed zeros included
        def same_bits(a, b):
            return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))

        rng = np.random.default_rng(11)
        n = transform.n_points
        columns = rng.standard_normal((n, 3))
        columns[::7] = -0.0
        columns[n // 2 :] = 0.0
        transfer = np.zeros((n, 2), complex)
        transfer[: n // 2] = np.exp(1j * rng.uniform(0.0, 3.0, (n // 2, 2)))
        for values in (columns, columns[:, 0]):
            cast = values.astype(complex)
            for direction in ("forward", "inverse"):
                apply = getattr(transform, direction)
                assert same_bits(apply(values), apply(cast)), (direction, values.shape)
        for fused, reference in zip(
            transform.forward_inverse(columns[:, 0], transfer),
            transform.forward_inverse(columns[:, 0].astype(complex), transfer),
        ):
            assert same_bits(fused, reference)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("shape", [(513, 3), (512, 3, 1), (3, 512)])
    def test_rejects_other_shapes(self, transform, direction, shape):
        with pytest.raises(DomainError):
            getattr(transform, direction)(np.ones(shape))

    @pytest.mark.parametrize(
        "field_shape, transfer_shape",
        [
            ((512, 1), (512, 2)), ((512,), (512,)), ((512,), (513, 2)), ((512,), (511, 2)),
            ((512,), (512, 0)),
        ],
    )
    def test_forward_inverse_rejects_other_shapes(self, transform, field_shape, transfer_shape):
        with pytest.raises(DomainError):
            transform.forward_inverse(np.ones(field_shape), np.ones(transfer_shape))


class TestResample:
    def test_resample_matrix_evaluates_spectrum_at_new_radii(self, transform):
        waist = 150e-6
        spectrum = transform.forward(gaussian(transform.radii, waist))
        targets = np.linspace(0.0, 600e-6, 64)
        resampled = transform.resample_matrix(targets) @ spectrum
        assert np.max(np.abs(resampled - gaussian(targets, waist))) < 1e-9

    def test_threaded_build_is_bit_identical_to_direct_formula(self, transform, monkeypatch):
        # five row blocks, the last one ragged
        radii = np.linspace(0.0, transform.max_radius, 4 * hankel._RESAMPLE_BLOCK_ROWS + 9)
        direct = j0(np.outer(radii, transform.k_radial)) / (
            np.pi * transform.max_radius**2 * transform._j1sq
        )
        monkeypatch.setattr(hankel, "_usable_cpus", lambda: 4)
        threaded = transform.resample_matrix(radii)
        monkeypatch.setattr(hankel, "_usable_cpus", lambda: 1)
        sequential = transform.resample_matrix(radii)
        assert np.array_equal(threaded, direct)
        assert np.array_equal(threaded, sequential)

    def test_resample_rejects_radii_outside_grid(self, transform):
        spectrum = transform.forward(gaussian(transform.radii, 150e-6))
        with pytest.raises(DomainError):
            transform.resample_matrix(np.array([transform.max_radius * 1.01]))

    def test_concurrent_fine_fills_fill_each_column_once(self, monkeypatch):
        filled = Counter()
        fill = HankelTransform._fill_resample_columns

        def counting(t, radii, matrix, first, stop):
            filled.update(range(first, stop))
            fill(t, radii, matrix, first, stop)

        monkeypatch.setattr(HankelTransform, "_fill_resample_columns", counting)
        t = HankelTransform(n_points=1300, max_radius=1e-3)
        supports = [100, 700, 1300, 300, 1000, 1, 650, 1299]
        barrier = threading.Barrier(len(supports))

        def call(support):
            barrier.wait(timeout=30)
            return t.fine_values(supported(1300, support, columns=1), 100)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(supports)) as pool:
                results = list(pool.map(call, supports, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert filled == Counter(range(1300))
        nodes, _ = hankel._fine_interpolation(t.fine_radii(100))
        assert np.array_equal(t._fine_matrix, t.resample_matrix(nodes))
        for support, result in zip(supports, results):
            assert np.array_equal(result, t.fine_values(supported(1300, support, columns=1), 100))


class TestCache:
    def test_get_transform_reuses_instances(self):
        clear_transform_cache()
        a = get_transform(256, 1e-3)
        b = get_transform(256, 1e-3)
        assert a is b

    def test_distinct_parameters_distinct_instances(self):
        a = get_transform(256, 1e-3)
        b = get_transform(256, 2e-3)
        assert a is not b

    def test_clear_cache_releases_instances(self):
        a = get_transform(256, 1e-3)
        clear_transform_cache()
        b = get_transform(256, 1e-3)
        assert a is not b

    def test_another_grid_replaces_the_cached_one(self):
        clear_transform_cache()
        a = get_transform(256, 1e-3)
        # another N, then the same N at another R
        for n_points, max_radius in ((128, 1e-3), (128, 2e-3)):
            b = get_transform(n_points, max_radius)
            assert b is not a and (b.n_points, b.max_radius) == (n_points, max_radius)
            assert hankel._transform is b
            assert get_transform(n_points, max_radius) is b
            a = b
        clear_transform_cache()

    def test_replaced_transform_is_collectable_once_dropped(self):
        clear_transform_cache()
        dropped = weakref.ref(get_transform(256, 1e-3))
        get_transform(128, 1e-3)
        gc.collect()
        assert dropped() is None
        clear_transform_cache()

    def test_refused_build_leaves_the_cache_empty(self, monkeypatch):
        clear_transform_cache()
        get_transform(256, 1e-3)
        monkeypatch.setattr(hankel, "_available_memory", lambda: hankel._MEMORY_HEADROOM_BYTES)
        with pytest.raises(ResolutionError, match="no grid fits"):
            get_transform(128, 1e-3)
        assert hankel._transform is None


class TestMemoryPreflight:
    # the memory figure is monkeypatched: nothing here allocates a large kernel

    def test_kernel_bytes_formula(self):
        # one super-block below 512 points; about 4 N^2 + 2048 N above
        assert hankel._kernel_bytes(100) == 8 * 100**2
        assert hankel._kernel_bytes(512) == 8 * 512**2
        assert hankel._kernel_bytes(18000) == pytest.approx(4 * 18000**2 + 2048 * 18000, rel=1e-3)
        assert 1.33e9 < hankel._kernel_bytes(18000) < 1.34e9

    def test_kernel_bytes_closed_form_matches_block_sum(self):
        rows = hankel._PACKED_BLOCK_ROWS
        for n in range(1, 3001):
            stored = sum(min(rows, n - start) * (n - start) for start in range(0, n, rows))
            assert hankel._kernel_bytes(n) == 8 * stored, n

    def test_carried_slots_closed_form_matches_the_tiles_carried(self):
        # _slots at every row block, against the tiles counted one by one at
        # every rows of Y a pass can have (0 for a forward, multiples of 512
        # below N, and N): its own, and each earlier row block's tiles below
        # inner whose column block's last row block below y_rows (where the
        # pass frees them) is not yet done
        height, width = hankel._PACKED_BLOCK_ROWS, hankel._TILE_COLUMNS
        for n in (513, 1300, 2048, 2124, 3124, 4500, 8192, 18000):
            plan = [(start, hankel._tile_edges(n, start)) for start in range(0, n, height)]
            for y_rows in [0, *range(height, n, height), n]:
                inner = min(-(-y_rows // width) * width, n)
                slots = hankel._slots(plan, y_rows, inner)
                for (start, edges), counted in zip(plan, slots):
                    carried = sum(
                        (min(c0 // width * width + width, y_rows) - 1) // height * height >= start
                        for i, row_edges in plan[: start // height]
                        if i < y_rows
                        for c0 in row_edges[:-1]
                        if c0 < inner
                    )
                    assert counted == carried + len(edges) - 1, (n, y_rows, start)

    def test_a_band_fills_within_the_floor_of_an_ascending_pass(self):
        # a band's fill holds the tiles carried into its first row block and
        # its own row blocks' tiles: for every pass a grid can run (a
        # forward's rows of Y are 0; a scan's are a multiple of 512 below N,
        # or N), no more than the most _slots counts at one row block, the
        # least an ascending pass that keeps no tile can hold
        height, width = hankel._PACKED_BLOCK_ROWS, hankel._TILE_COLUMNS
        for n in (1300, 2124, 3124, 4096, 14400, 18000):
            for y_rows in [0, *range(height, n, height), n]:
                inner = min(-(-y_rows // width) * width, n)
                for bound in range(height, n + height, height) if not y_rows else [y_rows]:
                    plan = [(start, hankel._tile_edges(n, start)) for start in range(0, bound, height)]
                    bands = hankel._bands(plan, y_rows, inner)
                    assert [block for band in bands for block in band] == plan
                    slots = dict(zip((start for start, _ in plan), hankel._slots(plan, y_rows, inner)))
                    floor = max(slots.values())
                    for band in bands:
                        start, edges = band[0]
                        fill = slots[start] - (len(edges) - 1)
                        fill += sum(len(edges) - 1 for _, edges in band)
                        assert fill <= floor, (n, y_rows, bound, start)

    @pytest.mark.parametrize("y_rows, peak", [(14336, 113), (14400, 128)])
    def test_the_default_grids_first_pass_holds_its_floor(self, y_rows, peak):
        # the default scan (rows of Y to 14336) and the ideal lens's (to N),
        # replayed without a fill: bands by _bands, tiles freed as _sweep
        # frees them. Sized by entries, the same passes held 130 and 138
        n = 14400
        height, width = hankel._PACKED_BLOCK_ROWS, hankel._TILE_COLUMNS
        inner = min(-(-y_rows // width) * width, n)
        plan = [(start, hankel._tile_edges(n, start)) for start in range(0, y_rows, height)]
        live, most, held = 0, 0, set()
        for band in hankel._bands(plan, y_rows, inner):
            live += sum(len(edges) - 1 for _, edges in band)
            most = max(most, live)
            for start, edges in band:
                kept = {(start, c0) for c0 in edges[:-1] if c0 < inner}
                held |= kept
                live -= len(edges) - 1 - len(kept)
                q0 = start // width * width
                last = min(q0 + width, y_rows)
                if start + height >= last:
                    done = {(r0, max(r0, q0)) for r0 in range(0, last, height)}
                    held -= done
                    live -= len(done)
        assert live == 0 and not held
        assert most == max(hankel._slots(plan, y_rows, inner)) == peak
        assert hankel._first_pass_bytes(n) == 512 * 2**20

    @pytest.mark.parametrize("n_points, floor", [(2124, 8), (3124, 12)])
    def test_a_full_height_first_pass_holds_its_floor(self, n_points, floor, monkeypatch):
        # live tiles counted through the buffer pool on a real pass, on grids
        # where bands sized by entries held more (10 and 14)
        live, most = [0], [0]
        take, give = hankel._TileSlots.take, hankel._TileSlots.give

        def counting_take(slots, rows, columns):
            live[0] += 1
            most[0] = max(most[0], live[0])
            return take(slots, rows, columns)

        def counting_give(slots, tile):
            live[0] -= 1
            give(slots, tile)

        monkeypatch.setattr(hankel._TileSlots, "take", counting_take)
        monkeypatch.setattr(hankel._TileSlots, "give", counting_give)
        height = hankel._PACKED_BLOCK_ROWS
        plan = [(start, hankel._tile_edges(n_points, start)) for start in range(0, n_points, height)]
        HankelTransform(n_points, 1e-3).forward_inverse(np.ones(n_points), cone_transfer(n_points, n_points))
        assert live[0] == 0
        assert most[0] == max(hankel._slots(plan, n_points, n_points)) == floor

    @pytest.mark.parametrize("n_points", [1300, 2124, 3124, 4096, 5000])
    def test_a_first_pass_holds_no_more_tiles_than_the_scan_check_counts(
        self, n_points, monkeypatch
    ):
        # with one buffer per slot group, a full-height scan's first pass
        # makes exactly the buffers _first_pass_bytes counts, and a shorter
        # scan or a forward makes no more
        monkeypatch.setattr(hankel, "_SLOT_GROUP", 1)
        made = []
        take = hankel._TileSlots.take

        def counting(slots, rows, columns):
            tile = take(slots, rows, columns)
            made.append(len(slots._free) + len(slots._taken))
            return tile

        monkeypatch.setattr(hankel._TileSlots, "take", counting)
        slot = 8 * hankel._PACKED_BLOCK_ROWS * hankel._TILE_COLUMNS
        counted = hankel._first_pass_bytes(n_points) // slot
        field = np.ones(n_points)
        for cone in (n_points, n_points // 2 + 1, 600):
            made.clear()
            HankelTransform(n_points, 1e-3).forward_inverse(field, cone_transfer(n_points, cone))
            assert max(made) == counted if cone == n_points else max(made) <= counted
            made.clear()
            HankelTransform(n_points, 1e-3).forward(supported(n_points, cone))
            assert max(made) <= counted

    def test_grid_too_large_for_memory_refused_before_any_work(self, monkeypatch):
        def no_zeros(*args):
            raise AssertionError("jn_zeros ran for a refused grid")

        available = 3 * 1024**3
        monkeypatch.setattr(hankel, "_available_memory", lambda: available)
        monkeypatch.setattr(scipy.special, "jn_zeros", no_zeros)
        with pytest.raises(ResolutionError, match=r"30000-point grid needs a 3.66 GB") as error:
            HankelTransform(n_points=30000, max_radius=1e-3)
        largest = int(re.search(r"grid_points <= (\d+) fits", str(error.value)).group(1))
        budget = available - hankel._MEMORY_HEADROOM_BYTES
        assert hankel._kernel_bytes(largest) <= budget < hankel._kernel_bytes(largest + 1)
        hankel._check_kernel_fits(largest)
        with pytest.raises(ResolutionError):
            hankel._check_kernel_fits(largest + 1)

    def test_no_grid_fits_in_too_little_memory(self, monkeypatch):
        monkeypatch.setattr(hankel, "_available_memory", lambda: hankel._MEMORY_HEADROOM_BYTES)
        with pytest.raises(ResolutionError, match="no grid fits"):
            HankelTransform(n_points=64, max_radius=1e-3)

    def test_fixed_cap_where_meminfo_cannot_be_read(self, monkeypatch):
        def unreadable(*args, **kwargs):
            raise OSError("no /proc here")

        monkeypatch.setattr(hankel, "open", unreadable, raising=False)
        assert hankel._available_memory() == hankel._FALLBACK_AVAILABLE_BYTES
