"""Noise-variance estimate, the selection statistic, and order selection."""

import math
import re
import warnings

import numpy as np
import pytest

import patchfit.selection as selection
from patchfit import (
    BezierSurface,
    PointCloud,
    RankDeficiencyError,
    bic_statistic,
    design_matrix,
    mdl_select,
    param_count,
    sigma2_hat,
    solve_control_points,
    surface_eval,
    weighted_objective,
)
from patchfit.bezier import _basis_rows, _dot3, _elevation
from patchfit.control import _residual_sums, _solve_gram
from patchfit.selection import _REL_FLOOR, FitModel, _rank_key, _search_orders, search_scales


def synth_cloud(rng, surface, n, noise=0.0, weights=None):
    u = rng.uniform(0, 1, n)
    v = rng.uniform(0, 1, n)
    points = design_matrix(u, v, surface.n_u, surface.n_v).T @ surface.flat
    if noise:
        points = points + rng.normal(0, noise, points.shape)
    w = np.ones(n) if weights is None else weights
    return PointCloud(points, w), u, v


class TestSigma2Hat:
    def test_points_on_surface(self):
        rng = np.random.default_rng(0)
        surface = BezierSurface(rng.normal(size=(3, 3, 3)))
        cloud, u, v = synth_cloud(rng, surface, 50)
        assert sigma2_hat(cloud, surface, u, v) <= 1e-28

    def test_single_point_residual(self):
        surface = BezierSurface(np.zeros((2, 2, 3)))
        r = 0.7
        cloud = PointCloud([[r, 0.0, 0.0]], [1.0])
        assert sigma2_hat(cloud, surface, [0.5], [0.5]) == pytest.approx(r**2 / 3, rel=1e-14)

    def test_dual_formula(self):
        rng = np.random.default_rng(1)
        surface = BezierSurface(rng.normal(size=(2, 3, 3)))
        cloud, u, v = synth_cloud(rng, surface, 33, noise=0.2,
                                  weights=rng.uniform(0.3, 2.0, 33))
        direct = sigma2_hat(cloud, surface, u, v)
        via_f = 2.0 / (3 * cloud.n_x) * weighted_objective(
            cloud.points, cloud.weights, surface, u, v
        )
        assert direct == pytest.approx(via_f, rel=1e-13)


class TestParamCount:
    def test_reference_values(self):
        assert param_count(100, 1, 1) == 213
        assert param_count(132, 1, 3) == 289
        assert param_count(1, 1, 1) == 15

    def test_validation(self):
        with pytest.raises(ValueError):
            param_count(0, 1, 1)
        with pytest.raises(ValueError):
            param_count(5, 0, 1)


class TestBicStatistic:
    def test_unit_variance(self):
        assert bic_statistic(1.0, 213, 100) == pytest.approx(-213 * math.log(100), rel=1e-14)

    def test_single_sample(self):
        assert bic_statistic(math.e, 99, 1) == pytest.approx(-3.0, rel=1e-14)

    def test_penalty_monotonicity(self):
        assert bic_statistic(0.5, 20, 50) > bic_statistic(0.5, 21, 50)

    def test_degenerate_sentinel(self):
        assert bic_statistic(0.0, 10, 5) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            bic_statistic(-1.0, 10, 5)
        with pytest.raises(ValueError):
            bic_statistic(1.0, 10, 0)

    def test_nan_variance_rejected(self):
        with pytest.raises(ValueError, match="variance must be nonnegative, got nan"):
            bic_statistic(math.nan, 10, 5)


def scattered_points(seed, n):
    """``n`` seeded points with unequal axis scales, off the origin."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)) * rng.uniform(0.1, 10.0, 3) + rng.normal(0.0, 5.0, 3)


class TestSearchScales:
    @pytest.mark.parametrize("seed, n", [(0, 7), (1, 12), (2, 60), (3, 333), (4, 1000), (5, 5000)])
    def test_unit_weight_floor_is_the_mean_squared_radius(self, seed, n):
        points = scattered_points(seed, n)
        centered = points - points.mean(axis=0)
        _, floor = search_scales(PointCloud(points, np.ones(n)), 1e-3)
        assert floor == _REL_FLOOR**2 * np.mean(_dot3(centered, centered))

    @pytest.mark.parametrize("c", [2.0**-60, 0.25, 8.0, 2.0**70])
    def test_weights_times_c_scale_ridge_and_floor_by_c_squared(self, c):
        points = scattered_points(6, 80)
        weights = np.random.default_rng(7).uniform(0.3, 2.0, 80)
        ridge, floor = search_scales(PointCloud(points, weights), 1e-3)
        assert search_scales(PointCloud(points, c * weights), 1e-3) == (ridge * c**2, floor * c**2)

    @pytest.mark.parametrize("k", [-460, -40, -8, 8, 40, 460])
    def test_points_times_2_to_the_k_scale_the_floor_by_4_to_the_k(self, k):
        points = scattered_points(8, 80)
        weights = np.random.default_rng(9).uniform(0.3, 2.0, 80)
        ridge, floor = search_scales(PointCloud(points, weights), 1e-3)
        scaled = search_scales(PointCloud(np.ldexp(points, k), weights), 1e-3)
        assert scaled == (ridge, np.ldexp(floor, 2 * k))

    @pytest.mark.parametrize("search", [
        lambda cloud: search_scales(cloud, 1e-3),
        lambda cloud: mdl_select(cloud, [], [], 1, 1, lam=1e-3),
    ], ids=["search_scales", "mdl_select"])
    def test_empty_cloud_rejected_without_a_warning(self, search):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="weighted squared spread .* over 0 points"):
                search(PointCloud(np.zeros((0, 3)), np.zeros(0)))
        assert caught == []

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf, True])
    def test_lambda_rejected(self, lam):
        # weights of 2 would scale the ridge by 4
        cloud = PointCloud(scattered_points(10, 10), np.full(10, 2.0))
        with pytest.raises(ValueError, match="^lam must be finite and nonnegative$"):
            search_scales(cloud, lam)


def ranked(t, n_u, n_v):
    """Rank key of a candidate with the given statistic and orders."""
    return _rank_key(t, n_u, n_v)


def model_key(model):
    return _rank_key(model.t, model.n_u, model.n_v)


class TestRankKey:
    def test_statistic_dominates(self):
        assert ranked(10.0, 3, 3) < ranked(9.0, 1, 1)

    def test_tie_breaks_by_parameter_count(self):
        assert ranked(5.0, 1, 1) < ranked(5.0, 2, 2)
        # 2 * 7 = 14 control points against 4 * 4 = 16, at a larger total order
        assert ranked(5.0, 1, 6) < ranked(5.0, 3, 3)

    def test_then_by_total_order_then_u(self):
        # 3 * 4 = 12 control points on both sides
        assert ranked(5.0, 2, 3) < ranked(5.0, 1, 5)
        assert ranked(5.0, 1, 2) < ranked(5.0, 2, 1)

    def test_rank_follows_the_parameter_count_of_one_cloud(self):
        orders = [(n_u, n_v) for n_u in range(1, 8) for n_v in range(1, 8)]
        by_key = sorted(orders, key=lambda o: ranked(5.0, *o))
        by_d = sorted(orders, key=lambda o: (param_count(80, *o), sum(o), o[0]))
        assert by_key == by_d

    def test_search_counts_each_candidates_parameters_once(self, monkeypatch):
        # The search computes each candidate's d once, and ranking computes none.
        counted = []
        monkeypatch.setattr(selection, "param_count",
                            lambda *args: counted.append(args) or param_count(*args))
        rng = np.random.default_rng(4)
        cloud, u, v = synth_cloud(rng, BezierSurface(rng.normal(size=(3, 3, 3))), 80, noise=0.01)
        ridge, floor = search_scales(cloud, 1e-3)
        model, _ = _search_orders(cloud, u, v, 1, 1, ridge, (6, 6), floor)
        assert counted == [(80, 1, 1), (80, 1, 2), (80, 2, 1), (80, 2, 2)]
        assert model.d == param_count(80, model.n_u, model.n_v)


class TestMdlSelect:
    def test_noisy_plane_keeps_bilinear(self):
        rng = np.random.default_rng(2)
        plane = BezierSurface(np.array([
            [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
        ]))
        cloud, u, v = synth_cloud(rng, plane, 100, noise=0.05)
        model = mdl_select(cloud, u, v, 1, 1, lam=1e-3)
        assert (model.n_u, model.n_v) == (1, 1)

    def test_noiseless_quadratic_grows(self):
        rng = np.random.default_rng(3)
        surface = BezierSurface(rng.normal(size=(3, 3, 3)))
        cloud, u, v = synth_cloud(rng, surface, 80)
        model = mdl_select(cloud, u, v, 1, 1, lam=1e-6)
        assert model.n_u > 1 or model.n_v > 1

    def test_orders_never_decrease(self):
        rng = np.random.default_rng(4)
        surface = BezierSurface(rng.normal(size=(3, 3, 3)))
        cloud, u, v = synth_cloud(rng, surface, 90, noise=0.1)
        for start in [(1, 1), (2, 3), (4, 2)]:
            model = mdl_select(cloud, u, v, *start, lam=1e-3)
            assert model.n_u >= start[0] and model.n_v >= start[1]

    def test_selection_is_argmax_over_candidates(self):
        rng = np.random.default_rng(5)
        surface = BezierSurface(rng.normal(size=(3, 3, 3)))
        cloud, u, v = synth_cloud(rng, surface, 70, noise=0.05)
        n_u, n_v = 1, 2
        model = mdl_select(cloud, u, v, n_u, n_v, lam=1e-3)
        stats = {}
        for cu in (n_u, n_u + 1):
            for cv in (n_v, n_v + 1):
                cand = solve_control_points(cloud.points, cloud.weights, u, v, cu, cv, 1e-3)
                s2 = sigma2_hat(cloud, cand, u, v)
                stats[(cu, cv)] = bic_statistic(s2, param_count(cloud.n_x, cu, cv), cloud.n_x)
        assert stats[(model.n_u, model.n_v)] == max(stats.values())
        assert model.t == pytest.approx(stats[(model.n_u, model.n_v)], rel=1e-12)

    def test_equivalence_with_full_bic(self):
        # maximizing t matches maximizing the joint log-likelihood approximation
        rng = np.random.default_rng(6)
        for trial in range(5):
            surface = BezierSurface(rng.normal(size=(3, 3, 3)))
            cloud, u, v = synth_cloud(rng, surface, 60, noise=0.08,
                                      weights=rng.uniform(0.5, 1.5, 60))
            scores_t = {}
            scores_full = {}
            for cu in (1, 2):
                for cv in (1, 2):
                    cand = solve_control_points(cloud.points, cloud.weights, u, v, cu, cv, 1e-3)
                    s2 = sigma2_hat(cloud, cand, u, v)
                    d = param_count(cloud.n_x, cu, cv)
                    n = cloud.n_x
                    scores_t[(cu, cv)] = bic_statistic(s2, d, n)
                    log_lik = (
                        -n * 1.5 * math.log(2 * math.pi)
                        + 3.0 * np.log(cloud.weights).sum()
                        - 1.5 * n * math.log(s2)
                        - 1.5 * n
                    )
                    scores_full[(cu, cv)] = log_lik - 0.5 * d * math.log(n)
            argmax_t = max(scores_t, key=scores_t.get)
            argmax_full = max(scores_full, key=scores_full.get)
            assert argmax_t == argmax_full

    def test_exact_interpolation_prefers_small_model(self):
        # all candidates interpolate to floating dust; parsimony must win
        rng = np.random.default_rng(7)
        plane = BezierSurface(np.array([
            [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
        ]))
        cloud, u, v = synth_cloud(rng, plane, 60)
        model = mdl_select(cloud, u, v, 1, 1, lam=0.0)
        assert (model.n_u, model.n_v) == (1, 1)

    def test_model_does_not_alias_the_callers_parameters(self):
        rng = np.random.default_rng(9)
        surface = BezierSurface(rng.normal(size=(3, 3, 3)))
        cloud, u, v = synth_cloud(rng, surface, 50, noise=0.05)
        model = mdl_select(cloud, u, v, 1, 1, lam=1e-3)
        expected = (model.u.tobytes(), model.v.tobytes())
        u[:], v[:] = 0.5, 0.5
        assert (model.u.tobytes(), model.v.tobytes()) == expected
        assert expected != (u.tobytes(), v.tobytes())

    def test_order_cap_limits_candidates(self):
        rng = np.random.default_rng(8)
        surface = BezierSurface(rng.normal(size=(3, 3, 3)))
        cloud, u, v = synth_cloud(rng, surface, 80)
        model = mdl_select(cloud, u, v, 2, 2, lam=1e-3, order_cap=(2, 2))
        assert (model.n_u, model.n_v) == (2, 2)

    def test_single_failing_candidate_keeps_the_solve_message(self):
        # order_cap at the start order leaves one candidate, as fixed orders do
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.normal(size=(20, 3)), np.ones(20))
        u, v = np.linspace(0.0, 1.0, 20), 0.5 + 1e-9 * np.arange(20)
        with pytest.raises(RankDeficiencyError, match="^control-point system is numerically"):
            mdl_select(cloud, u, v, 1, 1, lam=0.0, order_cap=(1, 1))

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_lambda_rejected_as_the_argument(self, lam):
        # weights of 2 scale the ridge by 4, which the message must not report
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.normal(size=(20, 3)), np.full(20, 2.0))
        u = np.linspace(0.0, 1.0, 20)
        with pytest.raises(ValueError, match="^lam must be finite and nonnegative$"):
            mdl_select(cloud, u, u[::-1] ** 2, 1, 1, lam=lam)

    def test_all_candidates_failing_raises(self):
        # The last candidate, (2, 2), raises its own solve's error.
        rng = np.random.default_rng(9)
        cloud = PointCloud(rng.normal(size=(3, 3)), np.ones(3))
        u, v = [0.1, 0.5, 0.9], [0.2, 0.6, 0.8]
        with pytest.raises(RankDeficiencyError) as last:
            solve_control_points(cloud.points, cloud.weights, u, v, 2, 2, 0.0)
        with pytest.raises(RankDeficiencyError, match=f"^{re.escape(str(last.value))}$"):
            mdl_select(cloud, u, v, 1, 1, lam=0.0)


EPS = np.finfo(np.float64).eps
# u in [-2, 3] with 0 and 1 exactly on the grid
ELEVATION_U = np.concatenate([np.linspace(-2.0, 3.0, 101), [0.0, 1.0]])


def assert_ulps(actual, expected, ulps):
    """Entries agree to ``ulps`` units of the expected entry; zeros exactly."""
    assert np.all(np.abs(actual - expected) <= ulps * EPS * np.abs(expected))


class TestDegreeElevation:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_elevation_rows_give_the_lower_basis(self, n):
        e = _elevation(n, 1, n + 1, 1)[: n + 1, : n + 2]  # kron(I_2, E_n)'s first block
        i = np.arange(n + 1)
        assert np.count_nonzero(e) == 2 * (n + 1)
        assert (e[i, i] == (n + 1 - i) / (n + 1)).all() and (e[i, i + 1] == (i + 1) / (n + 1)).all()
        assert_ulps(e @ _basis_rows(ELEVATION_U, n + 1), _basis_rows(ELEVATION_U, n), 8)

    @pytest.mark.parametrize("n_u, n_v", [(1, 1), (1, 12), (12, 1), (3, 5), (7, 2), (12, 12)])
    def test_kron_maps_the_top_design_to_each_candidate(self, n_u, n_v):
        # Pins the u-fastest kron(E_v, E_u) ordering of design_matrix's rows.
        rng = np.random.default_rng(n_u * 13 + n_v)
        u = np.concatenate([ELEVATION_U, rng.uniform(-2.0, 3.0, 40)])
        v = np.concatenate([rng.permutation(ELEVATION_U), rng.uniform(-2.0, 3.0, 40)])
        top = (n_u + 1, n_v + 1)
        b = design_matrix(u, v, *top)
        for cand in [(n_u, n_v), (n_u, n_v + 1), (n_u + 1, n_v), top]:
            k = _elevation(*cand, *top)
            assert not k.flags.writeable
            assert_ulps(k @ b, design_matrix(u, v, *cand), 32)


def per_candidate_search(cloud, u, v, n_u, n_v, lam, cap):
    """The order search as a design matrix and ``solve_control_points`` per
    candidate, with the residual sum taken directly: (winner, f_reg_same)."""
    ridge, floor = search_scales(cloud, lam)
    us = [n_u] if n_u >= cap[0] else [n_u, n_u + 1]
    vs = [n_v] if n_v >= cap[1] else [n_v, n_v + 1]
    models, f_reg_same, last_error = [], math.nan, None
    for cu in us:
        for cv in vs:
            try:
                surface = solve_control_points(cloud.points, cloud.weights, u, v, cu, cv, ridge)
            except RankDeficiencyError as exc:
                last_error = exc
                continue
            residual = cloud.points - design_matrix(u, v, cu, cv).T @ surface.flat
            total = float(np.sum(cloud.weights**2 * np.sum(residual**2, axis=1)))
            if (cu, cv) == (n_u, n_v):
                f_reg_same = 0.5 * total + 0.5 * ridge * float(np.sum(surface.flat**2))
            sigma2 = total / (3.0 * cloud.n_x)
            t = bic_statistic(max(sigma2, floor), param_count(cloud.n_x, cu, cv), cloud.n_x)
            models.append(FitModel(surface, u, v, sigma2, t))
    if not models:
        raise last_error
    return min(models, key=model_key), f_reg_same


class TestSearchAgainstPerCandidateSolves:
    @staticmethod
    def weighted_cloud(n, start):
        rng = np.random.default_rng(n + 10 * start[0] + start[1])
        surface = BezierSurface(rng.normal(size=(3, 4, 3)))
        return synth_cloud(rng, surface, n, noise=0.05, weights=rng.uniform(0.3, 2.0, n))

    @pytest.mark.parametrize("n, start, lam, cap", [
        (70, (1, 1), 1e-3, (math.inf, math.inf)),
        (70, (2, 3), 1e-3, (math.inf, math.inf)),
        (120, (4, 2), 1e-6, (math.inf, math.inf)),
        (70, (2, 3), 1e-3, (2, math.inf)),  # the cap clips u
        (70, (3, 2), 1e-3, (math.inf, 2)),  # the cap clips v
        (70, (2, 3), 1e-3, (2, 3)),  # the cap clips both: one candidate
        (70, (1, 2), 0.0, (math.inf, math.inf)),
        # 6 <= 10 points < 12: the top candidate (2, 3) is rank deficient at lam = 0
        (10, (1, 2), 0.0, (math.inf, math.inf)),
    ])
    def test_same_winner_and_statistics(self, n, start, lam, cap):
        cloud, u, v = self.weighted_cloud(n, start)
        expected, expected_f = per_candidate_search(cloud, u, v, *start, lam, cap)
        ridge, floor = search_scales(cloud, lam)
        model, f_reg_same = _search_orders(cloud, u, v, *start, ridge, cap, floor)
        assert (model.n_u, model.n_v) == (expected.n_u, expected.n_v)
        assert model.sigma2 == pytest.approx(expected.sigma2, rel=1e-12)
        assert model.t == pytest.approx(expected.t, rel=1e-12)
        assert f_reg_same == pytest.approx(expected_f, rel=1e-12)

    def test_rank_deficient_top_is_skipped(self):
        cloud, u, v = self.weighted_cloud(10, (1, 2))
        with pytest.raises(RankDeficiencyError):
            solve_control_points(cloud.points, cloud.weights, u, v, 2, 3, 0.0)
        _, floor = search_scales(cloud, 0.0)
        model, f_reg_same = _search_orders(cloud, u, v, 1, 2, 0.0, (math.inf, math.inf), floor)
        assert (model.n_u, model.n_v) != (2, 3) and math.isfinite(f_reg_same)

    def test_no_solvable_candidate_raises_the_same_error(self):
        rng = np.random.default_rng(9)
        cloud = PointCloud(rng.normal(size=(3, 3)), np.ones(3))
        u, v = np.array([0.1, 0.5, 0.9]), np.array([0.2, 0.6, 0.8])
        with pytest.raises(RankDeficiencyError) as expected:
            per_candidate_search(cloud, u, v, 1, 1, 0.0, (math.inf, math.inf))
        with pytest.raises(RankDeficiencyError, match=f"^{re.escape(str(expected.value))}$"):
            _search_orders(cloud, u, v, 1, 1, 0.0, (math.inf, math.inf), 0.0)


def search_candidates(monkeypatch, cloud, u, v, n_u, n_v, ridge, cap, floor):
    """Every solvable candidate of the search ``_search_orders(...)``, in its order,
    as a model built here from the flats of the search's ``_solve_gram`` call and
    the totals of its ``_residual_sums`` call, and the search's result."""
    seen = {}
    for function in (_solve_gram, _residual_sums):
        def wrapped(*args, _function=function):
            seen[_function] = _function(*args)
            return seen[_function]
        monkeypatch.setattr(selection, function.__name__, wrapped)
    result = _search_orders(cloud, u, v, n_u, n_v, ridge, cap, floor)
    monkeypatch.undo()
    top = (n_u + (n_u < cap[0]), n_v + (n_v < cap[1]))
    orders = selection._stacked_lift(n_u, n_v, *top)[0]
    (flats, errors), totals, n = seen[_solve_gram], seen[_residual_sums], cloud.n_x
    models = []
    for (cu, cv), flat, total, error in zip(orders, flats, totals, errors):
        if error is None:
            surface = BezierSurface.from_flat(flat[:(cu + 1) * (cv + 1)], cu, cv)
            sigma2 = float(total) / (3.0 * n)
            t = bic_statistic(max(sigma2, floor), param_count(n, cu, cv), n)
            models.append(FitModel(surface, result[0].u, result[0].v, sigma2, t))
    return models, result


def same_model(a, b):
    """Whether two models have the same orders, statistics and control bytes."""
    return ((a.n_u, a.n_v, a.sigma2, a.t) == (b.n_u, b.n_v, b.sigma2, b.t)
            and a.surface.control.tobytes() == b.surface.control.tobytes())


def within_ulps(actual, expected, ulps):
    """Every entry within ``ulps`` units of the largest |expected| entry."""
    return np.abs(actual - expected).max() <= ulps * EPS * np.abs(expected).max()


class TestStackedSearch:
    @staticmethod
    def cloud(seed, n=90):
        rng = np.random.default_rng(seed)
        surface = BezierSurface(rng.normal(size=(3, 4, 3)))
        return synth_cloud(rng, surface, n, noise=0.05, weights=rng.uniform(0.3, 2.0, n))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("start, cap, count", [
        ((1, 2), (math.inf, math.inf), 4),
        ((2, 3), (2, math.inf), 2),
        ((2, 3), (2, 3), 1),
    ])
    def test_every_candidate_equals_its_own_solve(self, monkeypatch, seed, start, cap, count):
        # The reference solves K G K^T + ridge I for each candidate on its own, by
        # the Cholesky factorization and two solves, with G and R summed here.
        cloud, u, v = self.cloud(seed)
        ridge, floor = search_scales(cloud, 1e-3)
        models, (winner, _) = search_candidates(monkeypatch, cloud, u, v, *start, ridge, cap,
                                                floor)
        top = (start[0] + (start[0] < cap[0]), start[1] + (start[1] < cap[1]))
        b = design_matrix(u, v, *top)
        bw = b * cloud.weights**2
        gram, rhs = bw @ b.T, bw @ cloud.points
        assert [(m.n_u, m.n_v) for m in models] == [
            (cu, cv) for cu in range(start[0], top[0] + 1) for cv in range(start[1], top[1] + 1)]
        assert len(models) == count
        for model in models:
            k = _elevation(model.n_u, model.n_v, *top)
            factor = np.linalg.cholesky(k @ gram @ k.T + ridge * np.eye(len(k)))
            flat = np.linalg.solve(factor.T, np.linalg.solve(factor, k @ rhs))
            residual = cloud.points - design_matrix(u, v, model.n_u, model.n_v).T @ flat
            n = cloud.n_x
            sigma2 = float(np.sum(cloud.weights**2 * np.sum(residual**2, axis=1))) / (3 * n)
            assert within_ulps(model.surface.flat, flat, 32)
            assert model.sigma2 == pytest.approx(sigma2, rel=16 * EPS)
            t = bic_statistic(max(sigma2, floor), param_count(n, model.n_u, model.n_v), n)
            assert model.t == pytest.approx(t, rel=16 * EPS)
        # only the winner becomes a model, and it is the candidate of least rank key
        assert same_model(winner, min(models, key=model_key))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("lam", [1e-3, 0.0])
    def test_one_candidate_is_a_direct_solve_bit_for_bit(self, seed, lam):
        # start = cap: a stack of one, with the identity lift and no padding
        cloud, u, v = self.cloud(seed)
        ridge, floor = search_scales(cloud, lam)
        model, f_reg_same = _search_orders(cloud, u, v, 2, 3, ridge, (2, 3), floor)
        surface = solve_control_points(cloud.points, cloud.weights, u, v, 2, 3, ridge)
        assert model.surface.control.tobytes() == surface.control.tobytes()
        # the residual sum of the direct solve's C-ordered (m, 3) flat
        flat = np.ascontiguousarray(surface.flat)
        total = _residual_sums(cloud.points, cloud.weights, design_matrix(u, v, 2, 3), flat.T)
        assert f_reg_same == 0.5 * float(total) + 0.5 * ridge * float(np.sum(surface.flat**2))

    def test_rank_deficient_candidates_are_skipped_and_no_other(self, monkeypatch):
        # 8 points at lam = 0: on their own, (1, 2) and (1, 3) solve, (2, 2) with
        # 9 control points fails the pivot test and (2, 3) with 12 the factorization.
        cloud, u, v = self.cloud(3, n=8)
        messages = {}
        for cand in [(1, 2), (1, 3), (2, 2), (2, 3)]:
            try:
                solve_control_points(cloud.points, cloud.weights, u, v, *cand, 0.0)
            except RankDeficiencyError as exc:
                messages[cand] = str(exc)
        assert list(messages) == [(2, 2), (2, 3)]
        assert "numerically singular" in messages[(2, 2)]
        assert "numerically" not in messages[(2, 3)]
        _, floor = search_scales(cloud, 0.0)
        models, (model, f_reg_same) = search_candidates(
            monkeypatch, cloud, u, v, 1, 2, 0.0, (math.inf, math.inf), floor)
        assert [(m.n_u, m.n_v) for m in models] == [(1, 2), (1, 3)]
        assert any(same_model(model, m) for m in models) and math.isfinite(f_reg_same)

    @pytest.mark.parametrize("seed", range(8))
    def test_more_control_points_than_points_is_singular_at_lam_0(self, monkeypatch, seed):
        # B W^2 B^T from 8 points has rank at most 8, so (2, 2), with 9 control
        # points, is singular whatever its pivots read after rounding.
        cloud, u, v = self.cloud(seed, n=8)
        with pytest.raises(RankDeficiencyError):
            solve_control_points(cloud.points, cloud.weights, u, v, 2, 2, 0.0)
        _, floor = search_scales(cloud, 0.0)
        models, _ = search_candidates(
            monkeypatch, cloud, u, v, 1, 2, 0.0, (math.inf, math.inf), floor)
        assert {(m.n_u, m.n_v) for m in models} <= {(1, 2), (1, 3)}

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_padding_stays_out_of_the_pivot_test(self, monkeypatch, scale):
        # A padded diagonal entry is 1 at any weight scale; the pivot test at lam = 0
        # reads only each candidate's own pivots, so every candidate solves.
        cloud, u, v = self.cloud(7)
        cloud = PointCloud(cloud.points, scale * cloud.weights)
        _, floor = search_scales(cloud, 0.0)
        models, _ = search_candidates(monkeypatch, cloud, u, v, 1, 1, 0.0,
                                      (math.inf, math.inf), floor)
        assert [(m.n_u, m.n_v) for m in models] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    @pytest.mark.parametrize("start, cap", [
        ((1, 1), (math.inf, math.inf)), ((2, 3), (math.inf, 3)), ((2, 3), (2, 3))])
    def test_one_factorization_and_one_pair_of_solves(self, monkeypatch, start, cap):
        calls = []
        for name in ("cholesky", "solve"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *args, _name=name, _f=original, **kw:
                                calls.append(_name) or _f(*args, **kw))
        cloud, u, v = self.cloud(5)
        ridge, floor = search_scales(cloud, 1e-3)
        _search_orders(cloud, u, v, *start, ridge, cap, floor)
        assert calls == ["cholesky", "solve", "solve"]

    @pytest.mark.parametrize("cap", [(math.inf, math.inf), (1, 1)])
    def test_non_finite_system_is_rejected(self, cap):
        # w^2 = 1e400 overflows the normal equations of every candidate to inf
        cloud, u, v = self.cloud(6)
        cloud = PointCloud(cloud.points, np.full(cloud.n_x, 1e200))
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            _search_orders(cloud, u, v, 1, 1, 1e-3, cap, 0.0)
