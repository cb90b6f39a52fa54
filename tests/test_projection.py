"""Foot-point search: closed-form oracles, descent, and determinism."""

import numpy as np
import numpy.testing as npt
import pytest

from patchfit import (
    BezierSurface,
    PointCloud,
    ProjectionError,
    ProjectionSettings,
    g_value,
    project_all,
    project_nearest,
    project_point,
    surface_eval,
)


def planar_surface(origin, a, b):
    control = np.empty((2, 2, 3))
    control[0, 0] = origin
    control[1, 0] = origin + a
    control[0, 1] = origin + b
    control[1, 1] = origin + a + b
    return BezierSurface(control)


def random_surface(rng, n_u, n_v, scale=1.0):
    return BezierSurface(scale * rng.normal(size=(n_u + 1, n_v + 1, 3)))


class TestProjectPoint:
    def test_already_stationary(self):
        rng = np.random.default_rng(0)
        surface = random_surface(rng, 2, 2)
        u, v = 0.4, 0.7
        x = surface_eval(u, v, surface)
        res = project_point(x, surface, u, v)
        assert res.iterations == 0
        assert res.u == u and res.v == v
        assert res.g <= 1e-30
        assert res.converged

    def test_planar_closed_form_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            origin = rng.normal(size=3)
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            if np.linalg.norm(np.cross(a, b)) < 0.3:
                continue
            surface = planar_surface(origin, a, b)
            x = rng.normal(size=3) * 2.0
            res = project_point(x, surface, 0.3, 0.3)
            normal_eqs = np.array([[a @ a, a @ b], [a @ b, b @ b]])
            uv_star = np.linalg.solve(normal_eqs, [a @ (x - origin), b @ (x - origin)])
            npt.assert_allclose([res.u, res.v], uv_star, rtol=1e-8, atol=1e-10)
            assert res.converged

    def test_monotone_descent_and_stationarity(self):
        rng = np.random.default_rng(2)
        surface = random_surface(rng, 3, 3)
        x = surface_eval(0.4, 0.6, surface) + 0.05 * rng.normal(size=3)
        values = []
        for k in range(12):
            res = project_point(x, surface, 0.35, 0.65,
                                ProjectionSettings(max_newton_iters=k))
            values.append(res.g)
        assert all(b <= a for a, b in zip(values, values[1:]))
        final = project_point(x, surface, 0.35, 0.65)
        assert final.grad_norm <= ProjectionSettings().grad_tol
        assert final.g <= final.g_start

    def test_non_finite_start_raises_with_iterate(self):
        rng = np.random.default_rng(3)
        surface = random_surface(rng, 3, 3)
        with pytest.raises(ProjectionError) as err:
            project_point(np.zeros(3), surface, 1e200, 0.5)
        assert err.value.u == 1e200

    def test_out_of_range_flag(self):
        surface = planar_surface(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        res = project_point(np.array([50.0, 0.5, 0.0]), surface, 0.5, 0.5)
        assert res.out_of_range
        assert res.u == pytest.approx(50.0)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            ProjectionSettings(grad_tol=0.0)
        with pytest.raises(ValueError):
            ProjectionSettings(armijo_c=1.0)
        with pytest.raises(ValueError):
            ProjectionSettings(backtrack_factor=0.0)


class TestProjectAll:
    def _instance(self, rng, n=40):
        surface = random_surface(rng, 3, 2)
        u = rng.uniform(0, 1, n)
        v = rng.uniform(0, 1, n)
        points = np.array([surface_eval(ui, vi, surface) for ui, vi in zip(u, v)])
        points += 0.05 * rng.normal(size=points.shape)
        cloud = PointCloud(points, rng.uniform(0.5, 2.0, n))
        return surface, cloud, u, v

    def test_stationary_points_unchanged(self):
        rng = np.random.default_rng(4)
        surface = random_surface(rng, 2, 2)
        u = rng.uniform(0, 1, 10)
        v = rng.uniform(0, 1, 10)
        points = np.array([surface_eval(ui, vi, surface) for ui, vi in zip(u, v)])
        cloud = PointCloud(points, np.ones(10))
        batch = project_all(cloud, surface, u, v)
        npt.assert_array_equal(batch.u, u)
        npt.assert_array_equal(batch.v, v)
        assert batch.failed == ()

    def test_weighted_objective_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            surface, cloud, u, v = self._instance(rng)
            batch = project_all(cloud, surface, u, v)
            assert (batch.g_final <= batch.g_start).all()
            w2 = cloud.weights**2
            assert np.sum(w2 * batch.g_final) <= np.sum(w2 * batch.g_start)

    def test_batch_matches_per_point_bitwise(self):
        rng = np.random.default_rng(6)
        surface, cloud, u, v = self._instance(rng, n=31)
        batch = project_all(cloud, surface, u, v)
        for i in range(cloud.n_x):
            res = project_point(cloud.points[i], surface, u[i], v[i])
            assert res.u == batch.u[i]
            assert res.v == batch.v[i]
            assert res.g == batch.g_final[i]
            assert res.g_start == batch.g_start[i]
            assert res.converged == batch.converged[i]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        surface, cloud, u, v = self._instance(rng, n=23)
        batch = project_all(cloud, surface, u, v)
        perm = rng.permutation(cloud.n_x)
        shuffled = PointCloud(cloud.points[perm], cloud.weights[perm])
        batch_p = project_all(shuffled, surface, u[perm], v[perm])
        npt.assert_array_equal(batch_p.u, batch.u[perm])
        npt.assert_array_equal(batch_p.v, batch.v[perm])
        npt.assert_array_equal(batch_p.g_final, batch.g_final[perm])

    def test_rerun_is_identical(self):
        rng = np.random.default_rng(8)
        surface, cloud, u, v = self._instance(rng)
        first = project_all(cloud, surface, u, v)
        second = project_all(cloud, surface, u, v)
        npt.assert_array_equal(first.u, second.u)
        npt.assert_array_equal(first.v, second.v)

    def test_failed_point_keeps_inputs(self):
        rng = np.random.default_rng(9)
        surface, cloud, u, v = self._instance(rng, n=5)
        u_bad = u.copy()
        u_bad[2] = 1e200
        batch = project_all(cloud, surface, u_bad, v)
        assert batch.failed == (2,)
        assert batch.u[2] == 1e200
        assert batch.v[2] == v[2]
        for i in (0, 1, 3, 4):
            assert batch.u[i] != u_bad[i] or batch.v[i] != v[i]

    def test_length_mismatch(self):
        rng = np.random.default_rng(10)
        surface, cloud, u, v = self._instance(rng, n=4)
        with pytest.raises(ValueError):
            project_all(cloud, surface, u[:3], v)


class TestProjectNearest:
    def _instance(self, rng, n_refs=25):
        surface = random_surface(rng, 3, 2)
        ref_u = rng.uniform(0, 1, n_refs)
        ref_v = rng.uniform(0, 1, n_refs)
        refs = np.array([surface_eval(u, v, surface) for u, v in zip(ref_u, ref_v)])
        return surface, refs, ref_u, ref_v

    def test_duplicate_references_pick_the_first(self):
        rng = np.random.default_rng(12)
        surface, refs, ref_u, ref_v = self._instance(rng)
        point = surface_eval(0.3, 0.6, surface)
        refs = np.vstack([refs, point, point])
        ref_u = np.append(ref_u, [0.3, 0.9])
        ref_v = np.append(ref_v, [0.6, 0.1])
        batch = project_nearest(point[None, :], surface, refs, ref_u, ref_v)
        assert batch.g_start[0] == g_value(point, 0.3, 0.6, surface)
        assert batch.u[0] == 0.3 and batch.v[0] == 0.6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_point_fails_only_its_lane(self):
        rng = np.random.default_rng(13)
        surface, refs, ref_u, ref_v = self._instance(rng)
        points = np.vstack([refs[:3] + 0.01, [1e300, 0.0, 0.0]])
        batch = project_nearest(points, surface, refs, ref_u, ref_v)
        assert batch.failed == (3,)
        assert batch.converged[:3].all()

    def test_no_points_give_an_empty_batch(self):
        rng = np.random.default_rng(14)
        surface, refs, ref_u, ref_v = self._instance(rng)
        batch = project_nearest(np.empty((0, 3)), surface, refs, ref_u, ref_v)
        assert batch.u.shape == batch.v.shape == batch.g_final.shape == (0,)
        assert batch.failed == ()

    def test_non_finite_point_raises(self):
        rng = np.random.default_rng(15)
        surface, refs, ref_u, ref_v = self._instance(rng)
        with pytest.raises(ValueError, match="finite"):
            project_nearest([[np.nan, 0.0, 0.0]], surface, refs, ref_u, ref_v)

    def test_lanes_equal_project_point_from_brute_force_start(self):
        rng = np.random.default_rng(16)
        surface, refs, ref_u, ref_v = self._instance(rng, n_refs=40)
        points = rng.normal(0, 1.0, (30, 3))
        batch = project_nearest(points, surface, refs, ref_u, ref_v)
        for i, p in enumerate(points):
            dist = [sum(((p - r) ** 2).tolist()) for r in refs]
            k = min(range(len(refs)), key=dist.__getitem__)
            res = project_point(p, surface, ref_u[k], ref_v[k])
            assert res.u == batch.u[i]
            assert res.v == batch.v[i]
            assert res.g == batch.g_final[i]
            assert res.g_start == batch.g_start[i]
            assert res.converged == batch.converged[i]
