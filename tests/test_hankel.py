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


def super_blocks(t: HankelTransform):
    """(start, block) for each super-block of t's packed kernel: block = kernel[start:stop, start:]."""
    return zip(range(0, t.n_points, hankel._PACKED_BLOCK_ROWS), t._blocks)


@pytest.fixture(scope="module", params=[100, 1300, 4096, 8192])
def packed_case(request):
    """A transform checked one slab of rows at a time against j0(outer(j, j / S)).

    100 is all direct j0 in one row block and super-block, 1300 ends in a
    ragged row block and super-block; at 4096 and 8192 the expansion fills
    most of the kernel. The dense reference is never held as an N x N array:
    each slab gives the deviation of its super-block and its rows of the
    reference products of forward and inverse.
    """
    n = request.param
    t = HankelTransform(n_points=n, max_radius=1e-3)
    # blocks are filled on first use; fill them all
    t._filled_blocks(n)
    rng = np.random.default_rng(n)
    inputs = {}
    for shape in [(n,), (n, 1), (n, 42)]:
        inputs["real", shape] = rng.standard_normal(shape)
        inputs["complex", shape] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # every input, weighted for each direction, as float64 columns of one
    # matrix, so each slab makes one real product per direction
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
    deviation, symmetric = 0.0, True
    for start, block in super_blocks(t):
        stop = start + block.shape[0]
        direct = j0(np.outer(t._j[start:stop], t._j / t._S))
        deviation = max(deviation, np.max(np.abs(block - direct[:, start:])))
        diagonal = block[:, : stop - start]
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
        # off the diagonal blocks the kernel is symmetric by construction:
        # the blocks stand for kernel[stop:, start:stop] through their transpose
        _, _, _, deviation, symmetric = packed_case
        assert symmetric
        assert deviation < 1e-13

    def test_transforms_match_dense_products(self, packed_case):
        t, inputs, expected, _, _ = packed_case
        for (direction, key), reference in expected.items():
            result = getattr(t, direction)(inputs[key])
            assert result.shape == reference.shape
            assert result.dtype == reference.dtype
            error = np.max(np.abs(result - reference)) / np.max(np.abs(reference))
            assert error <= 1e-12, (direction, key, error)

    def test_stores_only_the_upper_triangle(self, packed_case):
        t = packed_case[0]
        n = t.n_points
        assert sum(block.nbytes for block in t._blocks) == hankel._kernel_bytes(n)
        for start, block in super_blocks(t):
            assert block.shape == (min(hankel._PACKED_BLOCK_ROWS, n - start), n - start)
        # about half the dense 8 N^2 bytes once N spans several super-blocks
        if n >= 4096:
            assert hankel._kernel_bytes(n) < 0.57 * 8 * n**2

    def test_default_grid_row_blocks_match_direct_evaluation(self):
        # row blocks of the 18000-point kernel, filled without the 2.6 GB matrix:
        # all direct, direct then asymptotic, asymptotic only, and the ragged last
        n_points = 18000
        roots = jn_zeros(0, n_points + 1)
        j, scaled = roots[:n_points], roots[:n_points] / roots[n_points]
        rows = hankel._KernelRows(j, roots[n_points], 0)
        block = hankel._KERNEL_BLOCK_ROWS
        for start in (0, block, 70 * block, (n_points - 1) // block * block):
            stop = min(start + block, n_points)
            out = np.empty((stop - start, n_points - start))
            rows.fill(start, stop, out)
            direct = j0(np.outer(j[start:stop], scaled[start:]))
            assert np.max(np.abs(out - direct)) < 1e-13

    def test_expansion_replaces_most_bessel_calls(self, monkeypatch):
        evaluated = []

        def counting_j0(x, *args, **kwargs):
            evaluated.append(np.size(x))
            return j0(x, *args, **kwargs)

        monkeypatch.setattr(scipy.special, "j0", counting_j0)
        n_points = 4096
        HankelTransform(n_points=n_points, max_radius=1e-3)._filled_blocks(n_points)
        # under 10 % of the upper triangle goes through j0
        assert 0 < sum(evaluated) < 0.1 * n_points * (n_points + 1) / 2

    def test_threaded_build_is_deterministic(self, monkeypatch):
        # 1300 points: three super-blocks, the last ragged, so four CPUs all get work
        monkeypatch.setattr(hankel, "_usable_cpus", lambda: 4)
        first = HankelTransform(n_points=1300, max_radius=1e-3)._filled_blocks(1300)
        second = HankelTransform(n_points=1300, max_radius=1e-3)._filled_blocks(1300)
        monkeypatch.setattr(hankel, "_usable_cpus", lambda: 1)
        sequential = HankelTransform(n_points=1300, max_radius=1e-3)._filled_blocks(1300)
        assert len(first) == len(second) == len(sequential) == 3
        for a, b, c in zip(first, second, sequential):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)

    def test_repeat_calls_are_bit_identical(self):
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
    """forward / inverse of complex (N, Z) values through every block and product, none skipped."""
    x = np.ascontiguousarray((values * weights[:, None]).view(np.float64).T)
    out = np.zeros_like(x)
    for start, block in super_blocks(t):
        near = slice(start, start + block.shape[0])
        for first in range(0, block.shape[1], hankel._PANEL_COLUMNS):
            panel = block[:, first : first + hankel._PANEL_COLUMNS]
            stop = start + first + panel.shape[1]
            out[:, near] += x[:, start + first : stop] @ panel.T
            below = max(block.shape[0] - first, 0)
            out[:, start + first + below : stop] += x[:, near] @ panel[:, below:]
    return np.ascontiguousarray(out.T).view(np.complex128)


class TestLazyFill:
    # 1300 points: three super-blocks, the last ragged

    @pytest.mark.parametrize("support", [1, 511, 512, 513, 1100, 1300])
    def test_support_fills_the_blocks_it_reaches(self, support):
        t = HankelTransform(n_points=1300, max_radius=1e-3)
        t.forward(supported(1300, support))
        filled = [block is not None for block in t._blocks]
        expected = -(-support // hankel._PACKED_BLOCK_ROWS)
        assert filled == [True] * expected + [False] * (len(filled) - expected)

    def test_zero_input_fills_nothing(self):
        t = HankelTransform(n_points=1300, max_radius=1e-3)
        for values in (np.zeros(1300), np.zeros((1300, 4), complex)):
            assert not np.any(t.forward(values))
            assert not np.any(t.inverse(values))
        assert t._blocks == [None] * 3

    def test_fill_order_and_threads_leave_the_kernel_bit_identical(self, monkeypatch):
        monkeypatch.setattr(hankel, "_usable_cpus", lambda: 1)
        reference = HankelTransform(n_points=1300, max_radius=1e-3)._filled_blocks(1300)
        for cpus in (1, 2, 4):
            monkeypatch.setattr(hankel, "_usable_cpus", lambda: cpus)
            for prefixes in ([1], [600], [1, 1025], [513, 1300]):
                t = HankelTransform(n_points=1300, max_radius=1e-3)
                for support in prefixes:
                    t._filled_blocks(support)
                blocks = t._filled_blocks(1300)
                assert len(blocks) == len(reference)
                for block, expected in zip(blocks, reference):
                    assert np.array_equal(block, expected), (cpus, prefixes)

    def test_concurrent_first_calls_fill_each_block_once(self, monkeypatch):
        filled_rows = Counter()
        fill = hankel._KernelRows.fill

        def counting_fill(rows, start, stop, out):
            filled_rows[start] += 1
            fill(rows, start, stop, out)

        monkeypatch.setattr(hankel._KernelRows, "fill", counting_fill)
        t = HankelTransform(n_points=1300, max_radius=1e-3)
        values = supported(1300, 1300, columns=4)
        barrier = threading.Barrier(2)
        results = [None, None]

        def first_call(i):
            barrier.wait()
            results[i] = t.inverse(values)

        threads = [threading.Thread(target=first_call, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert filled_rows == Counter(range(0, 1300, hankel._KERNEL_BLOCK_ROWS))
        assert np.array_equal(results[0], results[1])

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_support_limited_results_match_a_full_kernel(self, direction):
        full = HankelTransform(n_points=1300, max_radius=1e-3)
        full._filled_blocks(1300)
        weights = {"forward": full.power_weights, "inverse": full.spectral_power_weights}
        for support in (1, 300, 700, 1300):
            lazy = HankelTransform(n_points=1300, max_radius=1e-3)
            values = supported(1300, support, seed=support)
            result = getattr(lazy, direction)(values)
            assert np.array_equal(result, getattr(full, direction)(values)), support
            # skipping the products whose input is zero changes no bit
            assert np.array_equal(result, unskipped_apply(full, values, weights[direction]))


class TestRowBound:
    # 1300 points: three super-blocks, the last ragged; with 300-column panels
    # each super-block holds several, their edges at start + 300 i
    CASES = [
        (1300, 1), (1300, 299), (1300, 300), (1300, 301), (1300, 511), (1300, 512),
        (1300, 513), (1300, 811), (1300, 812), (1300, 813), (1300, 1024), (1300, 1299),
        (700, 512), (700, 900), (513, 1100), (40, 600), (1300, 0),
    ]

    @pytest.mark.parametrize("panel", [hankel._PANEL_COLUMNS, 300])
    @pytest.mark.parametrize("support, rows", CASES)
    def test_bounded_forward_matches_full_forward_below_the_bound(
        self, monkeypatch, panel, support, rows
    ):
        monkeypatch.setattr(hankel, "_PANEL_COLUMNS", panel)
        columns = supported(1300, support, seed=rows)
        bounded = HankelTransform(n_points=1300, max_radius=1e-3)
        bounded.forward(columns, rows=rows)
        filled = [block is not None for block in bounded._blocks]
        expected = -(-min(support, rows) // hankel._PACKED_BLOCK_ROWS)
        assert filled == [True] * expected + [False] * (3 - expected)
        full = HankelTransform(n_points=1300, max_radius=1e-3)
        for values in (columns, columns[:, 0], columns.real):
            result = bounded.forward(values, rows=rows)
            reference = full.forward(values)
            assert np.array_equal(result[:rows], reference[:rows])
            assert not np.any(result[rows:])
        assert np.array_equal(bounded.forward(columns, rows=1300), full.forward(columns))

    def test_criterion_03_scan_stops_at_the_light_cone(self):
        # every plane's exact propagator underflows to 0 beyond k ~ 1.12 k0,
        # row ~1050 of 8192: the forward, the inverse and the fine resample
        # matrix stop there
        t = HankelTransform(n_points=8192, max_radius=400e-6)
        layout = zone_layout(LensDesign(200e-6, 300e-6, 854e-9))
        field = gaussian_beam(t, 75e-6, 854e-9)
        z = np.linspace(198e-6, 202e-6, 9)
        focal_scan(field, layout, (z[0], z[-1]), z.size, fine_points=256)
        transmitted = apply_binary_pfl(field, layout)
        kz = diffraction._transfer_wavenumber(t, transmitted.wavenumber)
        phases = [np.exp(1j * zi * kz) for zi in z]
        reach = diffraction._reach(t, transmitted.wavenumber, z)
        assert 1024 < reach < 1100
        assert [block is not None for block in t._blocks] == [True] * 3 + [False] * 13
        spectrum = t.forward(transmitted.amplitude, rows=reach)
        spectra = np.stack([spectrum * phase for phase in phases], axis=1)
        # the matrix fills the columns the propagated spectra reach: the last
        # few rows below reach underflow to 0 in spectrum x phase
        assert t._fine_filled == hankel._support(spectra)
        assert reach - 16 < t._fine_filled <= reach


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
        p_spec = transform.spectral_power(spectrum)
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
        assert np.iscomplexobj(batched) == complex_input
        assert np.max(np.abs(batched - one_by_one)) <= 1e-14 * np.max(np.abs(one_by_one))
        if complex_input:
            # the transform is real-linear: the real path is the reference
            parts = apply(columns.real) + 1j * apply(columns.imag)
            assert np.max(np.abs(batched - parts)) <= 1e-14 * np.max(np.abs(parts))

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("shape", [(513, 3), (512, 3, 1), (3, 512)])
    def test_rejects_other_shapes(self, transform, direction, shape):
        with pytest.raises(DomainError):
            getattr(transform, direction)(np.ones(shape))


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
