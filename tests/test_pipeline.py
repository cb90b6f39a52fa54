"""Initialization and the alternating fit loop."""

import math
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from patchfit import (
    BezierSurface,
    DegenerateGeometryError,
    FitSettings,
    PointCloud,
    VoxelGrid,
    design_matrix,
    extract_cloud,
    fit_surface,
    init_uv,
    outer_iterations,
    random_rotation,
    select_points,
    surface_eval,
)


def planar_cloud(rng, n=60, rotation=None, offset=None):
    xy = rng.uniform(-1, 1, (n, 2))
    points = np.column_stack([xy, np.zeros(n)])
    if rotation is not None:
        points = points @ rotation.T
    if offset is not None:
        points = points + offset
    return PointCloud(points, np.ones(n)), xy


def heightfield_cloud(rng, n_u=2, n_v=2, n=120, height=0.4, noise=0.0):
    gu, gv = np.meshgrid(np.linspace(0, 1, n_u + 1), np.linspace(0, 1, n_v + 1), indexing="ij")
    control = np.stack([gu, gv, height * rng.normal(size=(n_u + 1, n_v + 1))], axis=2)
    control = control @ random_rotation(rng).T
    surface = BezierSurface(control)
    u = rng.uniform(0, 1, n)
    v = rng.uniform(0, 1, n)
    points = design_matrix(u, v, n_u, n_v).T @ surface.flat
    if noise:
        points = points + rng.normal(0, noise, points.shape)
    return PointCloud(points, np.ones(n)), surface


class TestInitUv:
    def test_planar_cloud_is_affine_image(self):
        rng = np.random.default_rng(0)
        cloud, xy = planar_cloud(rng)
        u, v = init_uv(cloud)
        # (u, v) must reproduce the in-plane coordinates up to an affine map
        design = np.column_stack([u, v, np.ones_like(u)])
        residual = 0.0
        for target in xy.T:
            coef, res, *_ = np.linalg.lstsq(design, target, rcond=None)
            residual += float(np.sum((design @ coef - target) ** 2))
        assert residual <= 1e-18 * len(u)

    def test_spans_unit_interval(self):
        rng = np.random.default_rng(1)
        cloud, _ = planar_cloud(rng, rotation=random_rotation(rng))
        u, v = init_uv(cloud)
        assert u.min() == 0.0 and u.max() == 1.0
        assert v.min() == 0.0 and v.max() == 1.0

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(50, 3)) * np.array([3.0, 1.5, 0.3])
        cloud = PointCloud(points, np.ones(50))
        u1, v1 = init_uv(cloud)
        rot = random_rotation(rng)
        cloud2 = PointCloud(points @ rot.T, np.ones(50))
        u2, v2 = init_uv(cloud2)
        # coordinates agree up to independent axis flips c -> 1 - c
        best = min(
            max(np.abs(fu(u2) - u1).max(), np.abs(fv(v2) - v1).max())
            for fu in (lambda c: c, lambda c: 1 - c)
            for fv in (lambda c: c, lambda c: 1 - c)
        )
        assert best <= 1e-9

    def test_three_points(self):
        cloud = PointCloud([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]], np.ones(3))
        u, v = init_uv(cloud)
        assert u.shape == (3,)
        assert u.min() == 0.0 and u.max() == 1.0
        assert v.min() == 0.0 and v.max() == 1.0

    def test_collinear_raises(self):
        points = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateGeometryError):
            init_uv(PointCloud(points, np.ones(10)))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            init_uv(PointCloud([[0.0, 0, 0], [1.0, 0, 0]], np.ones(2)))


class TestFitSurface:
    def test_noiseless_plane(self):
        rng = np.random.default_rng(3)
        cloud, _ = planar_cloud(rng, n=80, rotation=random_rotation(rng),
                                offset=rng.normal(size=3) * 5)
        model, trace = fit_surface(cloud, FitSettings(lam=0.0))
        assert (model.n_u, model.n_v) == (1, 1)
        scale = np.abs(cloud.points).max()
        assert model.sigma2 <= 1e-12 * scale

    def test_noisy_curved_patch(self):
        rng = np.random.default_rng(4)
        cloud, _ = heightfield_cloud(rng, n_u=3, n_v=3, n=150, height=0.6, noise=0.02)
        model, trace = fit_surface(cloud)
        assert model.size > 4
        assert 4e-4 * 0.1 <= model.sigma2 <= 4e-4 * 10

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "varying"])
    @pytest.mark.parametrize("c", [2.0**-500, 2.0**-300, 2.0**-10, 2.0**300],
                             ids=["2^-500", "2^-300", "2^-10", "2^300"])
    def test_weight_scale_changes_only_sigma2(self, uniform, c):
        # powers of two rescale every product exactly, so the fits agree bit for bit
        rng = np.random.default_rng(11)
        xy = rng.uniform(-1.0, 1.0, (80, 2))
        points = np.column_stack([xy, 0.3 * (xy[:, 0] ** 2 - xy[:, 1] ** 2)])
        points += rng.normal(0.0, 0.01, points.shape)
        w = np.ones(80) if uniform else rng.uniform(0.5, 2.0, 80)
        base, _ = fit_surface(PointCloud(points, w))
        scaled, _ = fit_surface(PointCloud(points, c * w))
        assert (scaled.n_u, scaled.n_v) == (base.n_u, base.n_v)
        for name in ("u", "v"):
            npt.assert_array_equal(getattr(scaled, name), getattr(base, name))
        npt.assert_array_equal(scaled.surface.control, base.surface.control)
        assert scaled.sigma2 == c**2 * base.sigma2

    def test_rigid_motion_equivariance(self):
        rng = np.random.default_rng(5)
        cloud, _ = heightfield_cloud(rng, n=100, noise=0.05)
        model1, _ = fit_surface(cloud)
        rot = random_rotation(rng)
        shift = rng.normal(size=3) * 4
        moved = PointCloud(cloud.points @ rot.T + shift, cloud.weights)
        model2, _ = fit_surface(moved)
        assert model2.sigma2 == pytest.approx(model1.sigma2, rel=1e-9)

    def test_frame_correctness(self):
        rng = np.random.default_rng(6)
        cloud, _ = heightfield_cloud(rng, n=90, noise=0.03)
        model, _ = fit_surface(cloud)
        npt.assert_array_equal(model.centroid, cloud.points.mean(axis=0))
        # evaluating the returned surface at the fitted parameters reproduces
        # the centered-frame evaluation plus the centroid
        inner = cloud.points - model.centroid
        fitted = design_matrix(model.u, model.v, model.n_u, model.n_v).T @ model.surface.flat
        residual = np.linalg.norm(fitted - inner - model.centroid, axis=1)
        recomputed = np.linalg.norm(cloud.points - fitted, axis=1)
        npt.assert_allclose(residual, recomputed, atol=1e-12)
        scale = np.abs(cloud.points).max()
        s2 = float(np.sum(recomputed**2)) / (3 * cloud.n_x)
        assert s2 == pytest.approx(model.sigma2, rel=1e-10, abs=1e-12 * scale)

    def test_determinism(self):
        rng = np.random.default_rng(7)
        cloud, _ = heightfield_cloud(rng, n=70, noise=0.05)
        model1, trace1 = fit_surface(cloud)
        model2, trace2 = fit_surface(cloud)
        npt.assert_array_equal(model1.surface.control, model2.surface.control)
        npt.assert_array_equal(model1.u, model2.u)
        assert model1.sigma2 == model2.sigma2
        assert [r.sigma2 for r in trace1] == [r.sigma2 for r in trace2]

    def test_trace_orders_monotone_and_descent(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            cloud, _ = heightfield_cloud(rng, n=80, noise=0.05)
            model, trace = fit_surface(cloud)
            orders = [(r.n_u, r.n_v) for r in trace]
            for a, b in zip(orders, orders[1:]):
                assert b[0] >= a[0] and b[1] >= a[1]
            for row in trace[1:]:
                assert row.f_after_projection <= row.f_before_projection
                slack = 1e-12 * max(1.0, row.f_reg_before_solve)
                assert row.f_reg_after_solve <= row.f_reg_before_solve + slack

    def test_iteration_cap_respected(self):
        rng = np.random.default_rng(9)
        cloud, _ = heightfield_cloud(rng, n=60, noise=0.05)
        model, trace = fit_surface(cloud, FitSettings(max_outer_iters=3))
        assert outer_iterations(trace) <= 3

    def test_fixed_orders_mode(self):
        rng = np.random.default_rng(10)
        cloud, _ = heightfield_cloud(rng, n=60, noise=0.05)
        model, trace = fit_surface(cloud, FitSettings(fixed_orders=(2, 3)))
        assert (model.n_u, model.n_v) == (2, 3)
        assert all((r.n_u, r.n_v) == (2, 3) for r in trace)

    def test_order_cap(self):
        rng = np.random.default_rng(11)
        cloud, _ = heightfield_cloud(rng, n_u=3, n_v=3, n=150, height=0.8)
        model, _ = fit_surface(cloud, FitSettings(order_cap=(2, 2), lam=0.0))
        assert model.n_u <= 2 and model.n_v <= 2

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_surface(PointCloud([[0.0, 0, 0], [1, 0, 0]], np.ones(2)))

    @pytest.mark.parametrize("point_scale, weight", [
        (1e160, 1.0), (1e200, 1.0), (1.0, 1e200), (1.0, 1e-200),
    ])
    def test_overflowing_magnitudes_rejected_before_any_solve(self, point_scale, weight):
        rng = np.random.default_rng(13)
        cloud, _ = heightfield_cloud(rng, n=60)
        scaled = PointCloud(point_scale * cloud.points, np.full(60, weight))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="weighted squared spread"):
                fit_surface(scaled)
        assert caught == []

    def test_one_design_matrix_per_candidate_order(self, monkeypatch):
        import patchfit.bezier

        original = patchfit.bezier.design_matrix
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("patchfit") and getattr(module, "design_matrix", None) is original:
                monkeypatch.setattr(module, "design_matrix", counted)
        rng = np.random.default_rng(12)
        cloud, _ = heightfield_cloud(rng, n=90, noise=0.05)
        settings = FitSettings(order_cap=(20, 20))
        model, trace = fit_surface(cloud, settings)
        assert max(max(r.n_u, r.n_v) for r in trace) < 20  # the caps never bind
        assert len(calls) == 4 * len(trace)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            FitSettings(max_outer_iters=0)
        with pytest.raises(ValueError):
            FitSettings(order_cap=(0, 3))

    @pytest.mark.parametrize("cls, name, value", [
        (FitSettings, "fixed_orders", (-1, 2)),
        (FitSettings, "fixed_orders", (0, 3)),
        (FitSettings, "lam", -1e-3),
        (FitSettings, "lam", math.nan),
        (FitSettings, "lam", math.inf),
        (FitSettings, "rel_sigma2_tol", -1.0),
        (FitSettings, "rel_sigma2_tol", math.nan),
        (FitSettings, "rel_sigma2_tol", math.inf),
    ])
    def test_bad_settings_rejected_at_construction(self, cls, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            cls(**{name: value})


# Known heights over an 80^3 grid of unit voxels whose index is the coordinate.
KNOWN_HEIGHTS = {
    "tilted plane": lambda x, y: 30.0 + 0.25 * x + 0.15 * y,
    "flat floor": lambda x, y: 40.5 + 0.0 * x + 0.0 * y,
    "sphere cap": lambda x, y: 10.0 + np.sqrt(60.0**2 - (x - 40.0) ** 2 - (y - 40.0) ** 2),
}


class TestVoxelPathOnKnownSurfaces:
    """select_points, extract_cloud and fit_surface on grids occupied at and
    below an analytic height h: voxel (i, j, k) is occupied when k <= h(i, j)."""

    # The cap's pole, (40, 40), is one flat terrace of voxels and fits (1, 1).
    # A uniform case's id is its surface and query alone.
    @pytest.mark.parametrize("name, query, weight_mode", [
        pytest.param(name, query, mode,
                     id=f"{name}-query{k}" + ("" if mode == "uniform" else f"-{mode}"))
        for mode in ("uniform", "inverse-distance")
        for k, (name, query) in enumerate([
            *((name, query) for name in ("tilted plane", "flat floor")
              for query in [(25, 30), (40, 40), (55, 48)]),
            ("sphere cap", (25, 30)), ("sphere cap", (55, 48)),
        ])
    ])
    def test_orders_and_half_voxel_bias(self, name, query, weight_mode):
        height = KNOWN_HEIGHTS[name]
        idx = np.arange(80, dtype=np.float64)
        occupied = idx[None, None, :] <= height(idx[:, None], idx[None, :])[:, :, None]
        grid = VoxelGrid(occupied.astype(np.int64), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        i, j = query
        region = select_points(grid, (i, j, math.floor(height(i, j))), epsilon=6)
        model, _ = fit_surface(extract_cloud(region, weight_mode))
        if name == "sphere cap":
            assert min(model.n_u, model.n_v) >= 2
        else:
            assert (model.n_u, model.n_v) == (1, 1)
        # Boundary voxel centres sit on average half a voxel below h.
        fitted = design_matrix(model.u, model.v, model.n_u, model.n_v).T @ model.surface.flat
        bias = np.mean(height(fitted[:, 0], fitted[:, 1]) - fitted[:, 2])
        assert 0.25 <= bias <= 0.75

    def test_wavy_volumes_bias_and_spread(self):
        # Four seeded 128^3 volumes below h = 64 + 5.12 sin(2 pi x / 64 + a) cos(2 pi y / 64 + b),
        # six queries each. Spread is the standard deviation of h - z over one
        # fit's samples. Measured mean bias / mean spread (voxels): uniform
        # 0.467 / 0.083, inverse-distance 0.465 / 0.124.
        n = 128
        idx = np.arange(n, dtype=np.float64)
        stats = {"uniform": [], "inverse-distance": []}
        for seed in range(1, 5):
            a, b = np.random.default_rng([seed, 0]).uniform(0.0, 2.0 * math.pi, size=2)

            def height(x, y):
                return (0.5 * n + 0.04 * n * np.sin(2.0 * math.pi * x / (0.5 * n) + a)
                        * np.cos(2.0 * math.pi * y / (0.5 * n) + b))

            occupied = idx[None, None, :] <= height(idx[:, None], idx[None, :])[:, :, None]
            grid = VoxelGrid(occupied.astype(np.int64), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
            rng = np.random.default_rng([seed, 9])
            for _ in range(6):
                i, j = (int(c) for c in rng.integers(24, 104, size=2))
                region = select_points(grid, (i, j, math.floor(height(i, j))), epsilon=6)
                for mode, rows in stats.items():
                    model, _ = fit_surface(extract_cloud(region, mode))
                    fitted = (design_matrix(model.u, model.v, model.n_u, model.n_v).T
                              @ model.surface.flat)
                    below = height(fitted[:, 0], fitted[:, 1]) - fitted[:, 2]
                    rows.append((below.mean(), below.std()))
        for mode, rows in stats.items():
            bias, spread = np.mean(rows, axis=0)
            assert 0.25 <= bias <= 0.75, mode
            assert spread < 0.15, mode
