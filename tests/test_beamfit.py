"""Knife-edge scan reduction and Gaussian caustic fitting."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from pflens import beamfit
from pflens._lsq import solve_bounded
from pflens import (
    CausticFit,
    DomainError,
    FitError,
    KnifeEdgeScan,
    SchemaError,
    WaistPoint,
    caustic_radius,
    derived_beam_parameters,
    fit_caustic,
    fit_scan,
    fit_scans,
    knife_edge_model,
    read_scans_csv,
    synthetic_caustic_points,
    synthetic_knife_edge_scan,
)
from pflens.beamfit import (
    CAUSTIC_CURVE_CSV_HEADER,
    bundled_caustic_dataset_path,
    caustic_curve_csv_text,
    caustic_fit_report,
    caustic_squared_jacobian,
    caustic_squared_model,
    knife_edge_jacobian,
    scans_csv_text,
    synthetic_caustic_scans,
    waist_point_report,
)

WAVELENGTH = 369.5e-9
REFERENCE_WAIST = 350e-9
REFERENCE_M2 = 1.08
SCAN_Z = np.linspace(-20e-6, 20e-6, 25)


def reference_points(**overrides):
    kwargs = dict(
        w0=REFERENCE_WAIST,
        m2=REFERENCE_M2,
        wavelength=WAVELENGTH,
        z0=0.0,
        directions=("in",),
    )
    kwargs.update(overrides)
    return synthetic_caustic_points(SCAN_Z, **kwargs)


class TestKnifeEdgeModel:
    def test_half_blocked_at_center(self):
        power = knife_edge_model(0.0, 2.0, 0.0, 350e-9)
        assert power == pytest.approx(1.0, rel=1e-12)

    def test_quantile_levels_one_width_over_sqrt2_out(self):
        w = 350e-9
        # erfc(1) / 2 of the total at x = center + w / sqrt(2)
        high_side = knife_edge_model(w / math.sqrt(2), 1.0, 0.0, w)
        assert high_side == pytest.approx(0.078649603525143, rel=1e-10)
        low_side = knife_edge_model(-w / math.sqrt(2), 1.0, 0.0, w)
        assert low_side == pytest.approx(0.921350396474857, rel=1e-10)

    def test_limits_in_direction(self):
        w = 350e-9
        assert knife_edge_model(-100 * w, 1.0, 0.0, w) == pytest.approx(1.0, abs=1e-12)
        assert knife_edge_model(100 * w, 1.0, 0.0, w) == pytest.approx(0.0, abs=1e-12)

    def test_out_direction_is_complement(self):
        x = np.linspace(-1e-6, 1e-6, 11)
        into = knife_edge_model(x, 1.5, 0.1e-6, 350e-9, direction="in", background=0.2)
        out = knife_edge_model(x, 1.5, 0.1e-6, 350e-9, direction="out", background=0.2)
        np.testing.assert_allclose(into + out, 1.5 + 0.4, rtol=1e-12)

    def test_background_offsets_everything(self):
        base = knife_edge_model(0.3e-6, 1.0, 0.0, 350e-9)
        lifted = knife_edge_model(0.3e-6, 1.0, 0.0, 350e-9, background=0.25)
        assert lifted == pytest.approx(base + 0.25, rel=1e-12)

    def test_rejects_bad_width_and_direction(self):
        with pytest.raises(DomainError, match="w must be > 0"):
            knife_edge_model(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError, match="direction"):
            knife_edge_model(0.0, 1.0, 0.0, 1e-6, direction="sideways")


class TestJacobians:
    def test_knife_edge_jacobian_matches_finite_differences(self, rng):
        x = np.linspace(-2e-6, 2e-6, 17)
        for _ in range(20):
            params = np.array(
                [
                    rng.uniform(0.5, 2.0),
                    rng.uniform(-0.5e-6, 0.5e-6),
                    rng.uniform(0.2e-6, 1.0e-6),
                    rng.uniform(-0.1, 0.1),
                ]
            )
            analytic = knife_edge_jacobian(
                x, params[0], params[1], params[2], background=params[3]
            )
            for j in range(4):
                h = 1e-6 * max(abs(params[j]), 1e-7)
                hi = params.copy()
                lo = params.copy()
                hi[j] += h
                lo[j] -= h
                fd = (
                    knife_edge_model(x, hi[0], hi[1], hi[2], background=hi[3])
                    - knife_edge_model(x, lo[0], lo[1], lo[2], background=lo[3])
                ) / (2 * h)
                scale = np.max(np.abs(analytic[:, j])) + 1e-30
                np.testing.assert_allclose(
                    analytic[:, j], fd, atol=1e-6 * scale, rtol=1e-6
                )

    def test_caustic_jacobian_matches_finite_differences(self, rng):
        z = np.linspace(-20e-6, 20e-6, 13)
        ind = (np.arange(z.size) % 2).astype(float)
        for _ in range(20):
            params = np.array(
                [
                    rng.uniform(0.2e-6, 1.0e-6),
                    rng.uniform(1.0, 1.5),
                    rng.uniform(-2e-6, 2e-6),
                    rng.uniform(-2e-6, 2e-6),
                ]
            )
            analytic = caustic_squared_jacobian(
                z, ind, params[0], params[1], params[2], params[3], WAVELENGTH
            )
            for j in range(4):
                h = 1e-6 * max(abs(params[j]), 1e-7)
                hi = params.copy()
                lo = params.copy()
                hi[j] += h
                lo[j] -= h
                fd = (
                    caustic_squared_model(z, ind, *hi, WAVELENGTH)
                    - caustic_squared_model(z, ind, *lo, WAVELENGTH)
                ) / (2 * h)
                scale = np.max(np.abs(analytic[:, j])) + 1e-30
                np.testing.assert_allclose(
                    analytic[:, j], fd, atol=1e-6 * scale, rtol=1e-6
                )


class TestScanFit:
    def test_noiseless_round_trip(self):
        scan = synthetic_knife_edge_scan(z=0.0, w=REFERENCE_WAIST, n_positions=50)
        point = fit_scan(scan)
        assert point.w == pytest.approx(REFERENCE_WAIST, rel=1e-6)
        assert point.z == 0.0
        assert point.direction == "in"

    def test_noiseless_round_trip_with_background(self):
        scan = synthetic_knife_edge_scan(
            z=1e-6, w=REFERENCE_WAIST, background=0.1, n_positions=50
        )
        point = fit_scan(scan)
        assert point.w == pytest.approx(REFERENCE_WAIST, rel=1e-6)

    def test_noiseless_round_trip_out_direction(self):
        scan = synthetic_knife_edge_scan(
            z=0.0, w=REFERENCE_WAIST, direction="out", n_positions=50
        )
        point = fit_scan(scan)
        assert point.w == pytest.approx(REFERENCE_WAIST, rel=1e-6)
        assert point.direction == "out"

    def test_one_percent_noise_recovers_within_two_percent(self):
        rng = np.random.default_rng(11)
        scan = synthetic_knife_edge_scan(
            z=0.0, w=REFERENCE_WAIST, n_positions=50, noise_fraction=0.01, rng=rng
        )
        point = fit_scan(scan)
        assert point.w == pytest.approx(REFERENCE_WAIST, rel=0.02)
        assert point.w_uncertainty > 0

    def test_non_finite_noise_refused(self):
        # nan compares false with 0, so a `< 0` check alone passes it as no noise
        rng = np.random.default_rng(11)
        for noise in (math.nan, math.inf):
            with pytest.raises(DomainError, match="noise_fraction must be finite"):
                synthetic_knife_edge_scan(z=0.0, w=REFERENCE_WAIST, noise_fraction=noise, rng=rng)
            with pytest.raises(DomainError, match="noise_fraction must be finite"):
                synthetic_caustic_points(
                    SCAN_Z, REFERENCE_WAIST, REFERENCE_M2, WAVELENGTH, noise_fraction=noise, rng=rng
                )

    def test_constant_power_is_rank_deficient(self):
        scan = KnifeEdgeScan(
            z=0.0,
            blade_positions=np.linspace(-1e-6, 1e-6, 12),
            powers=np.full(12, 0.5),
        )
        with pytest.raises(FitError, match="rank-deficient"):
            fit_scan(scan)

    def test_fit_scans_preserves_order(self):
        scans = [
            synthetic_knife_edge_scan(z=z, w=REFERENCE_WAIST * (1 + abs(z) / 1e-5))
            for z in (-2e-6, 0.0, 2e-6)
        ]
        points = [fit_scan(scan) for scan in scans]
        assert [point.z for point in points] == [-2e-6, 0.0, 2e-6]
        assert points[1].w < points[0].w


class TestScanValidation:
    def test_too_few_samples(self):
        with pytest.raises(DomainError, match="at least 8"):
            KnifeEdgeScan(
                z=0.0,
                blade_positions=np.linspace(0, 1e-6, 7),
                powers=np.linspace(1, 0, 7),
            )

    def test_non_monotone_positions(self):
        positions = np.linspace(0, 1e-6, 10)
        positions[4] = positions[6]
        with pytest.raises(DomainError, match="monotone"):
            KnifeEdgeScan(z=0.0, blade_positions=positions, powers=np.linspace(1, 0, 10))

    @pytest.mark.parametrize(
        "first, last", [(-1e308, 1e308), (9e307, 1e308), (-6e299, 6e299)], ids=["span", "sum", "edge"]
    )
    def test_positions_beyond_the_float_range_refused_without_a_warning(self, first, last):
        # the edge fit takes max - min and max + min, which overflow in the first two
        positions = [first * (1 - k / 11) + last * (k / 11) for k in range(12)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as refused:
                KnifeEdgeScan(z=0.0, blade_positions=positions, powers=np.linspace(1, 0, 12))
        assert str(refused.value) == (
            "the blade positions' span must be within |min| + |max| <= 1e+300 m, "
            f"got {first:g} to {last:g} m"
        )

    @pytest.mark.parametrize("edge_width", [0.4, 50.0])
    def test_widest_positions_accepted_fit_without_a_warning(self, edge_width):
        # |min| + |max| = 1e300, the edge up to 25 spans wide: the fitted w stays finite
        u = np.linspace(-1.0, 1.0, 12)
        powers = 0.5 * erfc(math.sqrt(2.0) * (u - 0.2) / edge_width)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = fit_scan(KnifeEdgeScan(z=0.0, blade_positions=5e299 * u, powers=powers))
        assert point.w == pytest.approx(5e299 * edge_width, rel=1e-6)
        assert math.isfinite(point.w_uncertainty)

    def test_negative_power(self):
        with pytest.raises(DomainError, match="non-negative"):
            KnifeEdgeScan(
                z=0.0,
                blade_positions=np.linspace(0, 1e-6, 10),
                powers=np.linspace(1, -0.1, 10),
            )

    def test_descending_positions_are_accepted(self):
        scan = KnifeEdgeScan(
            z=0.0,
            blade_positions=np.linspace(1e-6, 0, 10),
            powers=np.linspace(0, 1, 10),
        )
        assert scan.blade_positions[0] > scan.blade_positions[-1]


class TestCausticFit:
    def test_noiseless_round_trip_is_exact(self):
        points = reference_points()
        fit = fit_caustic(points, WAVELENGTH)
        assert fit.w0 == pytest.approx(REFERENCE_WAIST, rel=0.005)
        assert fit.m2 == pytest.approx(REFERENCE_M2, rel=0.005)
        assert abs(fit.z0) < 1e-9
        model = caustic_radius(SCAN_Z, fit.w0, fit.m2, fit.z0, WAVELENGTH)
        residual = np.max(
            np.abs(np.array([p.w for p in points]) - model)
        ) / REFERENCE_WAIST
        assert residual < 1e-10

    def test_two_percent_noise_matches_quoted_uncertainties(self):
        rng = np.random.default_rng(20260819)
        points = synthetic_caustic_points(
            SCAN_Z,
            REFERENCE_WAIST,
            REFERENCE_M2,
            WAVELENGTH,
            noise_fraction=0.02,
            rng=rng,
        )
        fit = fit_caustic(points, WAVELENGTH)
        assert abs(fit.w0 - REFERENCE_WAIST) < 15e-9
        assert abs(fit.m2 - REFERENCE_M2) < 0.05

    def test_direction_offset_recovered_noiseless(self):
        points = reference_points(directions=("in", "out"), direction_offset=1.11e-6)
        fit = fit_caustic(points, WAVELENGTH)
        assert fit.direction_offset == pytest.approx(1.11e-6, rel=1e-6)

    def test_direction_offset_recovered_with_noise(self):
        rng = np.random.default_rng(7)
        points = synthetic_caustic_points(
            SCAN_Z,
            REFERENCE_WAIST,
            REFERENCE_M2,
            WAVELENGTH,
            direction_offset=1.11e-6,
            noise_fraction=0.02,
            rng=rng,
        )
        fit = fit_caustic(points, WAVELENGTH)
        assert abs(fit.direction_offset - 1.11e-6) < 0.05e-6
        assert fit.direction_offset_uncertainty > 0

    def test_single_direction_fixes_offset_to_zero(self):
        fit = fit_caustic(reference_points(), WAVELENGTH)
        assert fit.direction_offset == 0.0
        assert fit.covariance[3, 3] == 0.0

    def test_needs_five_points(self):
        points = reference_points()[:4]
        with pytest.raises(DomainError, match="at least 5"):
            fit_caustic(points, WAVELENGTH)

    def test_short_span_attaches_conditioning_warning(self):
        z = np.linspace(-0.5e-6, 0.5e-6, 7)
        points = synthetic_caustic_points(
            z, REFERENCE_WAIST, REFERENCE_M2, WAVELENGTH, directions=("in",)
        )
        fit = fit_caustic(points, WAVELENGTH)
        assert any("Rayleigh" in note for note in fit.warnings)

    def test_sub_unity_m2_is_flagged_not_rejected(self):
        points = reference_points(m2=0.98)
        fit = fit_caustic(points, WAVELENGTH)
        assert fit.m2 == pytest.approx(0.98, rel=1e-6)
        assert any("below 1" in note for note in fit.warnings)

    def test_zero_uncertainty_points_fall_back_to_unweighted(self):
        fit = fit_caustic(reference_points(), WAVELENGTH)
        assert any("unweighted" in note for note in fit.warnings)

    def test_estimator_consistency_over_noise_decades(self):
        errors = []
        for decade, noise in enumerate((2e-2, 2e-3, 2e-4)):
            trial_errors = []
            for seed in range(5):
                rng = np.random.default_rng(1000 * decade + seed)
                points = synthetic_caustic_points(
                    SCAN_Z,
                    REFERENCE_WAIST,
                    REFERENCE_M2,
                    WAVELENGTH,
                    noise_fraction=noise,
                    rng=rng,
                )
                fit = fit_caustic(points, WAVELENGTH)
                trial_errors.append(abs(fit.w0 - REFERENCE_WAIST))
            errors.append(np.mean(trial_errors))
        assert errors[0] > errors[1] > errors[2]

    def test_m2_stays_physical_within_three_sigma(self):
        for seed in range(6):
            rng = np.random.default_rng(42 + seed)
            points = synthetic_caustic_points(
                SCAN_Z, REFERENCE_WAIST, 1.0, WAVELENGTH, noise_fraction=0.02, rng=rng
            )
            fit = fit_caustic(points, WAVELENGTH)
            assert fit.m2 >= 1.0 - 3.0 * fit.m2_uncertainty


def relative_spread(values) -> float:
    values = np.asarray(values)
    return float(np.ptp(values) / np.median(values))


class TestSolver:
    # the fits end at the stationary point itself, not a step tolerance short
    # of it: rounding-level changes in the data stay rounding-level in w
    def test_edge_fit_reproducible_to_rounding(self):
        rng = np.random.default_rng(2024)
        scan = synthetic_knife_edge_scan(
            z=0.0, w=REFERENCE_WAIST, n_positions=81, noise_fraction=0.01, rng=rng
        )
        widths = []
        for _ in range(60):
            powers = scan.powers * (1.0 + 4e-15 * rng.standard_normal(scan.powers.size))
            refit = KnifeEdgeScan(z=0.0, blade_positions=scan.blade_positions, powers=powers)
            widths.append(fit_scan(refit).w)
        assert relative_spread(widths) <= 1e-12

    def test_caustic_fit_reproducible_to_rounding(self):
        rng = np.random.default_rng(2025)
        points = reference_points()
        waists = []
        for _ in range(60):
            noise = 1.0 + 4e-15 * rng.standard_normal(len(points))
            perturbed = [
                WaistPoint(z=p.z, w=p.w * k, w_uncertainty=p.w_uncertainty, direction=p.direction)
                for p, k in zip(points, noise)
            ]
            waists.append(fit_caustic(perturbed, WAVELENGTH).w0)
        assert relative_spread(waists) <= 1e-12

    @pytest.mark.parametrize("which", ["edge", "caustic"])
    def test_evaluation_budget_refuses(self, monkeypatch, which):
        monkeypatch.setattr(beamfit, "_MAX_MODEL_EVALS", 2)
        rng = np.random.default_rng(5)
        with pytest.raises(FitError, match=f"{which} fit did not converge within 2 evaluations"):
            if which == "edge":
                fit_scan(
                    synthetic_knife_edge_scan(
                        z=0.0, w=REFERENCE_WAIST, noise_fraction=0.01, rng=rng
                    )
                )
            else:
                fit_caustic(reference_points(), WAVELENGTH)

    def test_non_finite_trial_refused_without_warning(self):
        # the first undamped step from x = 0 lands at x = 1.98, where the
        # square root is nan; the solver must shrink the step, not warn
        # (a stack of one problem)
        def residuals(rows, x):
            return np.sqrt(1.0 - x) - 0.1

        def jacobian(rows, x):
            return (-0.5 / np.sqrt(1.0 - x))[:, :, None]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, cost, jac, errors = solve_bounded(
                residuals,
                jacobian,
                np.zeros((1, 1)),
                np.full(1, -np.inf),
                np.full(1, np.inf),
                "test",
                beamfit._MAX_MODEL_EVALS,
            )
        assert errors == {}
        assert x[0, 0] == pytest.approx(0.99, rel=1e-12)
        assert cost[0] < 1e-28
        assert jac[0].shape == (1, 1)

    def test_no_point_evaluated_within_rounding_of_an_earlier_one(self, monkeypatch):
        # a polish step at or below eps |x| moves nothing; it must not cost a
        # residual evaluation, a Jacobian and an SVD
        # (one record per problem of each stack)
        evaluated = []

        def recording(residuals, jacobian, start, lower, upper, what, max_evaluations):
            runs = [[] for _ in start]
            evaluated.extend(runs)

            def recorded(rows, x):
                for row, point in zip(rows, x):
                    runs[row].append(np.array(point))
                return residuals(rows, x)

            return solve_bounded(recorded, jacobian, start, lower, upper, what, max_evaluations)

        monkeypatch.setattr(beamfit, "solve_bounded", recording)
        points = [fit_scan(scan) for scan in read_scans_csv(bundled_caustic_dataset_path())]
        fit_caustic(points, WAVELENGTH)
        assert len(evaluated) == len(points) + 1
        eps = np.finfo(float).eps
        for run in evaluated:
            for j, point in enumerate(run):
                closest = min((np.linalg.norm(point - before) for before in run[:j]), default=np.inf)
                assert closest > eps * np.linalg.norm(point)

    def test_jacobian_asked_only_at_the_last_residual_points(self, monkeypatch):
        # the edge fit takes t and erfc(t) for a Jacobian from the last
        # residual evaluation, which holds while every Jacobian is asked for
        # rows of that evaluation, in its order, at its points
        jacobians = 0

        def checking(residuals, jacobian, start, lower, upper, what, max_evaluations):
            last = {}

            def recorded(rows, x):
                assert np.all(np.diff(rows) > 0)
                last.update(rows=rows.copy(), x=x.copy())
                return residuals(rows, x)

            def checked(rows, x):
                nonlocal jacobians
                at = np.searchsorted(last["rows"], rows)
                assert np.array_equal(last["rows"][at], rows)
                assert np.array_equal(last["x"][at], x)
                jacobians += 1
                return jacobian(rows, x)

            return solve_bounded(recorded, checked, start, lower, upper, what, max_evaluations)

        monkeypatch.setattr(beamfit, "solve_bounded", checking)
        noisy = synthetic_caustic_scans(
            SCAN_Z,
            REFERENCE_WAIST,
            REFERENCE_M2,
            WAVELENGTH,
            noise_fraction=0.01,
            rng=np.random.default_rng(3),
        )
        for scans in (read_scans_csv(bundled_caustic_dataset_path()), noisy):
            points = fit_scans(scans)
            assert all(isinstance(point, WaistPoint) for point in points)
            fit_caustic(points, WAVELENGTH)
        assert jacobians > 0

    def test_trials_clipped_into_bounds(self):
        # the unconstrained minimum x = 2 lies past the upper bound 1
        # (a stack of one problem)
        def residuals(rows, x):
            return np.array([[x[0, 0] - 2.0, 0.5 * (x[0, 0] - 2.0)]])

        def jacobian(rows, x):
            return np.array([[[1.0], [0.5]]])

        x, cost, _, errors = solve_bounded(
            residuals,
            jacobian,
            np.zeros((1, 1)),
            np.full(1, -1.0),
            np.ones(1),
            "test",
            beamfit._MAX_MODEL_EVALS,
        )
        assert errors == {}
        assert x[0, 0] == 1.0
        assert cost[0] == pytest.approx(0.5 * 1.25, rel=1e-15)


def _fit_one_at_a_time(scans) -> list:
    results = []
    for scan in scans:
        try:
            results.append(fit_scan(scan))
        except FitError as error:
            results.append(error)
    return results


def _outcomes(results):
    """(w, w_uncertainty, error message) arrays; nan or "" where absent."""
    widths = [r.w if isinstance(r, WaistPoint) else np.nan for r in results]
    sigmas = [r.w_uncertainty if isinstance(r, WaistPoint) else np.nan for r in results]
    messages = [str(r) if isinstance(r, FitError) else "" for r in results]
    return np.array(widths), np.array(sigmas), messages


class TestStackedFits:
    # fit_scans solves the scans of one sample count as one stack; no scan's
    # result may depend on what else is fitted with it

    # at 5 evaluations 24 of the 50 bundled scans converge and 26 run out
    @pytest.mark.parametrize("budget", [None, 5])
    def test_fit_does_not_depend_on_the_batch(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(beamfit, "_MAX_MODEL_EVALS", budget)
        scans = read_scans_csv(bundled_caustic_dataset_path())
        together = _outcomes(fit_scans(scans))
        for results in (
            fit_scans(scans[::-1])[::-1],
            [fit_scans([scan])[0] for scan in scans],
            _fit_one_at_a_time(scans),
        ):
            widths, sigmas, messages = _outcomes(results)
            np.testing.assert_array_equal(widths, together[0])
            np.testing.assert_array_equal(sigmas, together[1])
            assert messages == together[2]
        failed = sum(bool(message) for message in together[2])
        if budget is None:
            assert failed == 0
        else:
            assert 0 < failed < len(scans)
            assert "edge fit did not converge within 5 evaluations" in max(together[2])

    def test_scans_of_different_lengths_fit_as_alone(self):
        rng = np.random.default_rng(8)
        bundled = read_scans_csv(bundled_caustic_dataset_path())[:6]
        short = [
            synthetic_knife_edge_scan(
                z=1e-6 * k, w=REFERENCE_WAIST, n_positions=40, noise_fraction=0.01, rng=rng
            )
            for k in range(6)
        ]
        mixed = [scan for pair in zip(bundled, short) for scan in pair]
        widths, sigmas, messages = _outcomes(fit_scans(mixed))
        alone = _outcomes(_fit_one_at_a_time(mixed))
        np.testing.assert_array_equal(widths, alone[0])
        np.testing.assert_array_equal(sigmas, alone[1])
        assert messages == alone[2] == [""] * 12

    def test_a_failing_scan_fails_alone(self):
        scans = read_scans_csv(bundled_caustic_dataset_path())
        good = fit_scans(scans[:7] + scans[8:20] + scans[21:])
        # scan 7 made flat (refused before the solver), scan 20 a sharp step
        # (its width collapses inside the stack)
        flat, edge = scans[7], scans[20]
        scans[7] = KnifeEdgeScan(
            z=flat.z, blade_positions=flat.blade_positions,
            powers=np.full(flat.powers.size, 0.5), direction=flat.direction,
        )
        middle = np.median(edge.blade_positions)
        scans[20] = KnifeEdgeScan(
            z=edge.z, blade_positions=edge.blade_positions,
            powers=np.where(edge.blade_positions < middle, 1.0, 0.0), direction=edge.direction,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = fit_scans(scans)
        assert str(results[7]) == (
            "rank-deficient scan: transmitted power is constant, no edge to fit"
        )
        assert str(results[20]).startswith("edge fit collapsed to zero width")
        rest = results[:7] + results[8:20] + results[21:]
        assert all(isinstance(result, WaistPoint) for result in rest)
        assert rest == good

    def test_solver_keeps_each_failure_to_its_row(self):
        # the same problem three times; row 1's residuals are nan at the start,
        # row 2's Jacobian is infinite, and row 0 solves as it does alone
        def residuals(rows, x):
            values = np.sqrt(1.0 - x) - 0.1
            values[rows == 1] = np.nan
            return values

        def jacobian(rows, x):
            jac = (-0.5 / np.sqrt(1.0 - x))[:, :, None]
            jac[rows == 2] = np.inf
            return jac

        rest = np.full(1, -np.inf), np.full(1, np.inf), "test", beamfit._MAX_MODEL_EVALS
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, cost, _, errors = solve_bounded(residuals, jacobian, np.zeros((3, 1)), *rest)
            alone_x, alone_cost, _, alone_errors = solve_bounded(
                residuals, jacobian, np.zeros((1, 1)), *rest
            )
        assert sorted(errors) == [1, 2]
        assert str(errors[1]) == "test residuals are not finite at the start point"
        assert str(errors[2]).startswith("test Jacobian is not finite")
        assert alone_errors == {}
        assert x[0, 0] == alone_x[0, 0] == pytest.approx(0.99, rel=1e-12)
        assert cost[0] == alone_cost[0]


class TestDerivedParameters:
    @staticmethod
    def reference_fit(w0=REFERENCE_WAIST, m2=REFERENCE_M2):
        return CausticFit(
            w0=w0, m2=m2, z0=0.0, direction_offset=0.0, covariance=np.zeros((4, 4))
        )

    def test_nominal_rayleigh_range(self):
        derived = derived_beam_parameters(self.reference_fit(), WAVELENGTH)
        assert derived["rayleigh_range"] == pytest.approx(
            1.0415293641806485e-06, rel=1e-12
        )
        assert derived["rayleigh_range"] == pytest.approx(1041e-9, abs=1e-9)

    def test_divergence_from_fit_asymptote(self):
        derived = derived_beam_parameters(self.reference_fit(), WAVELENGTH)
        assert derived["divergence_half_angle"] == pytest.approx(
            0.3629278376585815, rel=1e-12
        )
        assert derived["divergence_half_angle"] == pytest.approx(0.363, abs=5e-4)

    def test_paraxial_boundary_gives_unit_angle(self):
        fit = self.reference_fit(w0=WAVELENGTH / math.pi, m2=1.0)
        derived = derived_beam_parameters(fit, WAVELENGTH)
        assert derived["divergence_half_angle"] == pytest.approx(1.0, rel=1e-12)

    @given(
        w0=st.floats(min_value=2e-7, max_value=5e-6),
        m2=st.floats(min_value=1.0, max_value=2.0),
    )
    @settings(max_examples=40)
    def test_rayleigh_range_ignores_m2_divergence_scales_with_it(self, w0, m2):
        base = derived_beam_parameters(self.reference_fit(w0=w0, m2=1.0), WAVELENGTH)
        scaled = derived_beam_parameters(self.reference_fit(w0=w0, m2=m2), WAVELENGTH)
        assert scaled["rayleigh_range"] == base["rayleigh_range"]
        assert scaled["divergence_half_angle"] == pytest.approx(
            m2 * base["divergence_half_angle"], rel=1e-12
        )


class TestCausticFitValidation:
    def test_covariance_must_be_symmetric(self):
        cov = np.zeros((4, 4))
        cov[0, 1] = 1e-9
        with pytest.raises(DomainError, match="symmetric"):
            CausticFit(w0=350e-9, m2=1.0, z0=0.0, direction_offset=0.0, covariance=cov)

    def test_covariance_must_be_psd(self):
        cov = -np.eye(4)
        with pytest.raises(DomainError, match="semidefinite"):
            CausticFit(w0=350e-9, m2=1.0, z0=0.0, direction_offset=0.0, covariance=cov)

    def test_waist_point_requires_positive_radius(self):
        with pytest.raises(DomainError, match="must be > 0"):
            WaistPoint(z=0.0, w=0.0, w_uncertainty=0.0)

    @pytest.mark.parametrize("scale", [1e-165, 1e-151, 1e151, 1e160])
    def test_waists_must_square_to_floats(self, scale):
        # w^2 underflows to 0 below 1.5e-162 m and overflows above 1.3e154 m
        points = [
            WaistPoint(z=z, w=scale * math.sqrt(1 + (z / 1e-6) ** 2), w_uncertainty=0.0)
            for z in np.linspace(-3e-6, 3e-6, 7)
        ]
        with pytest.raises(DomainError, match=r"waists must be in \[1e-150, 1e\+150\] m"):
            fit_caustic(points, 369.5e-9)

    @pytest.mark.parametrize(
        "z, w, message",
        [
            # (w / smallest w)^2 overflows: waists from 1e-100 to 1e100 m
            (
                np.linspace(-2e-6, 2e-6, 6),
                np.logspace(-100, 100, 6),
                r"waist ratio must be small enough to square \(below 1.34e\+154\), got 1e\+200",
            ),
            # z.max() - z.min() overflows
            (
                [-1e308, -5e307, 0.0, 5e307, 1e308],
                np.full(5, 1e-6),
                r"z span must be finite, got -1e\+308 to 1e\+308 m",
            ),
        ],
        ids=["waist_ratio", "z_span"],
    )
    def test_overflowing_inputs_refused_before_any_warning(self, z, w, message):
        points = [
            WaistPoint(z=float(a), w=float(b), w_uncertainty=0.01 * float(b)) for a, b in zip(z, w)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                fit_caustic(points, WAVELENGTH)

    def test_overflowing_weight_refused_by_point_before_any_warning(self):
        # 2 w sigma_w / w_min^2 overflows for sigma_w = 1e308 m
        points = [
            WaistPoint(z=p.z, w=p.w, w_uncertainty=1e308 if i == 3 else 0.01 * p.w)
            for i, p in enumerate(reference_points())
        ]
        message = r"caustic fit point 3's weight 2 w sigma_w / w_min\^2 must be finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                fit_caustic(points, WAVELENGTH)

    def test_underflowing_weight_refused_by_point_before_any_warning(self):
        # 2 w sigma_w / w_min^2 underflows to 0 for sigma_w = 5e-324 m; the
        # residuals divide by it
        points = [
            WaistPoint(z=p.z, w=p.w, w_uncertainty=5e-324 if i == 3 else 0.01 * p.w)
            for i, p in enumerate(reference_points())
        ]
        message = r"caustic fit point 3's weight 2 w sigma_w / w_min\^2 must be finite and nonzero"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                fit_caustic(points, WAVELENGTH)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-310])
    def test_tiny_weight_refused_by_point_before_any_warning(self, sigma):
        # 2 w sigma_w / w_min^2 is about 6e-294 or 6e-304: the point's residual
        # and Jacobian row square past the float range
        points = [
            WaistPoint(z=p.z, w=p.w, w_uncertainty=sigma if i == 4 else 0.01 * p.w)
            for i, p in enumerate(
                synthetic_caustic_points(
                    np.linspace(-20e-6, 20e-6, 9), REFERENCE_WAIST, REFERENCE_M2, WAVELENGTH,
                    directions=("in",),
                )
            )
        ]
        assert points[4].w == pytest.approx(3.5e-7)
        message = r"caustic fit point 4's weight 2 w sigma_w / w_min\^2 must be at least"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                fit_caustic(points, WAVELENGTH)

    def test_noise_refused_where_samples_would_overflow(self):
        rng = np.random.default_rng(1)
        with pytest.raises(DomainError, match=r"at noise_fraction 1e\+09, got 1e\+308"):
            synthetic_knife_edge_scan(z=0.0, w=1e-6, total_power=1e308, noise_fraction=1e9, rng=rng)
        # without noise the same power is sampled
        scan = synthetic_knife_edge_scan(z=0.0, w=1e-6, total_power=1e308)
        assert np.all(np.isfinite(scan.powers))


class TestCsvInterchange:
    def test_single_scan_round_trip(self, tmp_path):
        scan = synthetic_knife_edge_scan(z=3e-6, w=REFERENCE_WAIST, direction="out")
        path = tmp_path / "scan.csv"
        rows = ["z_m,direction", "3e-06,out", "blade_position_m,power"]
        rows += [f"{x:.17g},{p:.17g}" for x, p in zip(scan.blade_positions, scan.powers)]
        path.write_text("\n".join(rows) + "\n")
        loaded = read_scans_csv(path)
        assert len(loaded) == 1
        assert loaded[0].z == scan.z
        assert loaded[0].direction == "out"
        np.testing.assert_allclose(loaded[0].blade_positions, scan.blade_positions)
        np.testing.assert_allclose(loaded[0].powers, scan.powers)

    def test_combined_round_trip(self, tmp_path):
        # noisy powers carry all 17 significant digits; they must read back bit for bit
        scans = synthetic_caustic_scans(
            np.linspace(-2e-6, 2e-6, 3),
            REFERENCE_WAIST,
            REFERENCE_M2,
            WAVELENGTH,
            direction_offset=1.11e-6,
            n_positions=12,
            noise_fraction=0.01,
            rng=np.random.default_rng(3),
        )
        path = tmp_path / "scans.csv"
        path.write_text(scans_csv_text(scans))
        loaded = read_scans_csv(path)
        assert len(loaded) == len(scans) == 6
        for original, parsed in zip(scans, loaded):
            assert parsed.z == original.z
            assert parsed.direction == original.direction
            assert np.array_equal(parsed.blade_positions, original.blade_positions)
            assert np.array_equal(parsed.powers, original.powers)

    def test_combined_text_schema(self):
        scans = [synthetic_knife_edge_scan(z=0.0, w=REFERENCE_WAIST, n_positions=10)]
        lines = scans_csv_text(scans).strip().splitlines()
        assert lines[0] == "z_m,blade_position_m,power,direction"
        assert len(lines) == 1 + 10

    def test_malformed_header_names_offending_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z_m,blade_m,power,direction\n0,0,1,in\n")
        with pytest.raises(SchemaError, match="blade_position_m"):
            read_scans_csv(path)

    def test_non_numeric_sample_names_line(self, tmp_path):
        scan = synthetic_knife_edge_scan(z=0.0, w=REFERENCE_WAIST, n_positions=10)
        text = scans_csv_text([scan]).replace("in", "in").splitlines()
        text[3] = "0,abc,1,in"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(SchemaError, match="line 4"):
            read_scans_csv(path)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("0,1e-7,0.5", "line 3: column 1 is '0', expected 'z_m'"),
            ("zero,1e-7,0.5,in", "line 3: z_m value 'zero' is not a number"),
            ("0,1e-7,half,in", "line 3: power value 'half' is not a number"),
            ("0,1e-7,0.5,up", "line 3: direction must be 'in' or 'out', got 'up'"),
        ],
    )
    def test_first_malformed_row_named(self, tmp_path, bad, message):
        # line 5 is malformed too; the error names line 3, the first
        rows = ["z_m,blade_position_m,power,direction", "0,0,1,in", bad, "0,2e-7,0.2,in"]
        rows += ["0,3e-7,x,in"] + [f"0,{k}e-7,0.1,in" for k in range(4, 12)]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(SchemaError) as refused:
            read_scans_csv(path)
        assert str(refused.value) == message

    def test_rows_of_one_scan_merge_in_file_order(self, tmp_path):
        # scan (2 um, in) writes its z two ways; its rows interleave with (0, out)
        rows = ["z_m,blade_position_m,power,direction"]
        for k in range(10):
            rows.append(f"{'2e-06' if k % 2 else '2.0e-6'},{k}e-7,{1 - k / 10},in")
            rows.append(f"0,{k}e-7,{k / 10},out")
        path = tmp_path / "interleaved.csv"
        path.write_text("\n".join(rows) + "\n")
        first, second = read_scans_csv(path)
        assert (first.z, first.direction, second.z, second.direction) == (2e-6, "in", 0.0, "out")
        np.testing.assert_array_equal(first.blade_positions, [k * 1e-7 for k in range(10)])
        np.testing.assert_array_equal(first.powers, [1 - k / 10 for k in range(10)])
        np.testing.assert_array_equal(second.powers, [k / 10 for k in range(10)])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_scans_csv(path)

    def test_caustic_curve_csv(self):
        fit = CausticFit(
            w0=REFERENCE_WAIST,
            m2=REFERENCE_M2,
            z0=0.0,
            direction_offset=0.0,
            covariance=np.zeros((4, 4)),
        )
        text = caustic_curve_csv_text(fit, WAVELENGTH, -1e-6, 1e-6, n_points=5)
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(CAUSTIC_CURVE_CSV_HEADER)
        assert len(lines) == 6
        first_radius = float(lines[1].split(",")[1])
        assert first_radius == pytest.approx(
            float(caustic_radius(-1e-6, fit.w0, fit.m2, fit.z0, WAVELENGTH)), rel=1e-12
        )
        with pytest.raises(DomainError, match="z_max"):
            caustic_curve_csv_text(fit, WAVELENGTH, 1e-6, -1e-6)


class TestReports:
    def test_waist_point_report_keys(self):
        point = WaistPoint(z=1e-6, w=350e-9, w_uncertainty=2e-9, direction="out")
        report = waist_point_report(point)
        assert report == {
            "z_m": 1e-6,
            "w_m": 350e-9,
            "w_uncertainty_m": 2e-9,
            "direction": "out",
        }

    def test_caustic_fit_report_contents(self):
        points = reference_points()
        fit = fit_caustic(points, WAVELENGTH)
        report = caustic_fit_report(fit, points=points, wavelength=WAVELENGTH)
        assert report["parameters"]["w0_m"] == fit.w0
        assert report["uncertainties"]["m2"] == fit.m2_uncertainty
        assert len(report["covariance"]) == 4
        assert len(report["points"]) == len(points)
        assert abs(report["points"][0]["residual_m"]) < 1e-15
        assert report["derived"]["rayleigh_range_m"] == pytest.approx(
            math.pi * fit.w0**2 / WAVELENGTH
        )


class TestBundledDataset:
    def test_full_pipeline_on_bundled_scans(self):
        scans = read_scans_csv(bundled_caustic_dataset_path())
        assert len(scans) == 50
        directions = {scan.direction for scan in scans}
        assert directions == {"in", "out"}
        points = [fit_scan(scan) for scan in scans]
        fit = fit_caustic(points, WAVELENGTH)
        # deterministic pipeline: frozen outputs of this exact dataset
        assert fit.w0 == pytest.approx(3.4612179841925033e-07, rel=1e-9)
        assert fit.m2 == pytest.approx(1.0675481238533284, rel=1e-9)
        assert fit.direction_offset == pytest.approx(1.1091605010287137e-06, rel=1e-9)
        # and they sit inside the quoted confidence windows
        assert abs(fit.w0 - REFERENCE_WAIST) < 15e-9
        assert abs(fit.m2 - REFERENCE_M2) < 0.05
        assert abs(fit.direction_offset - 1.11e-6) < 0.05e-6
        assert fit.warnings == ()
