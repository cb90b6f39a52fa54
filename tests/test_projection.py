"""Foot-point search: closed-form oracles, descent, and determinism."""

from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from patchfit import (
    BezierSurface,
    PointCloud,
    ProjectionError,
    g_eval,
    g_value,
    project_all,
    project_nearest,
    project_point,
    surface_eval,
)
from patchfit import design_matrix, fit_surface, pipeline, projection
from patchfit.bezier import _values_grads_hessians
from patchfit.simulate import (ExperimentSpec, LatentSurface, latent_eval, make_dataset,
                               random_rotation)


def planar_surface(origin, a, b):
    control = np.empty((2, 2, 3))
    control[0, 0] = origin
    control[1, 0] = origin + a
    control[0, 1] = origin + b
    control[1, 1] = origin + a + b
    return BezierSurface(control)


def random_surface(rng, n_u, n_v, scale=1.0):
    return BezierSurface(scale * rng.normal(size=(n_u + 1, n_v + 1, 3)))


def rosenbrock_batch(seed, n=60, spread=0.3):
    """A patch of order (4, 2) fitted to a rotated Rosenbrock sheet, noisy
    points on the sheet, and starts ``spread`` away from their parameters."""
    rng = np.random.default_rng(seed)
    sheet = LatentSurface("rosenbrock", random_rotation(rng))
    (x0, x1), (y0, y1) = sheet.domain

    def on_sheet(u, v):
        return latent_eval(sheet, np.column_stack([x0 + (x1 - x0) * u, y0 + (y1 - y0) * v]))

    gu, gv = (g.ravel() for g in np.meshgrid(np.linspace(0, 1, 9), np.linspace(0, 1, 9)))
    flat = np.linalg.lstsq(design_matrix(gu, gv, 4, 2).T, on_sheet(gu, gv), rcond=None)[0]
    u, v = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    points = on_sheet(u, v) + 0.05 * rng.normal(size=(n, 3))
    return (BezierSurface.from_flat(flat, 4, 2), points,
            u + spread * rng.normal(size=n), v + spread * rng.normal(size=n))


def far_plane_batch(seed, n=60):
    """Noisy points (sd 1e-3) on a random planar bilinear patch at |u|, |v| up
    to 1e6, with starts 1e-8 relative off their parameters. Far out, the
    rounding noise of the objective's Bernstein sums exceeds the floor, so
    nearly every lane ends at the ladder floor."""
    rng = np.random.default_rng(seed)
    surface = planar_surface(*rng.normal(size=(3, 3)))
    u, v = rng.uniform(-1e6, 1e6, n), rng.uniform(-1e6, 1e6, n)
    points = np.array([surface_eval(ui, vi, surface) for ui, vi in zip(u, v)])
    points += 1e-3 * rng.normal(size=points.shape)
    return (surface, points,
            u * (1 + 1e-8 * rng.normal(size=n)), v * (1 + 1e-8 * rng.normal(size=n)))


def sequential_solve(points, control, u0, v0):
    """Reference solver: lane by lane, one backtracking trial per kernel call.

    Same step and stop rule as the batched solver: a lane solves
    (H + mu I) p = -g, with mu = |g| - 2 lambda_min when H is not positive
    definite. It stops at ``grad_tol``, when the line search finds no Armijo
    point, or at the precision floor: without taking the step when its
    decrement -g.p is at most ``floor_ulp`` eps |r| (|x| + |r|), the rounding
    noise of its objective, or when its ladder reaches a step length alpha
    whose predicted decrease alpha (-g.p) is within that noise.
    """
    s = projection._SETTINGS
    eps = np.finfo(np.float64).eps
    lanes = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for x, u, v in zip(points, u0, v0):
            x_norm = np.hypot(np.hypot(x[0], x[1]), x[2])
            x, u, v = x[None, :], np.array([u]), np.array([v])
            value, gu, gv, a, b, d = _values_grads_hessians(x, u, v, control)
            g_start, norm, iterations = value, np.hypot(gu, gv), 0
            failed = not np.isfinite([value, gu, gv, a, b, d]).all()
            floored = False
            for _ in range(s.max_newton_iters):
                if failed or floored or norm[0] <= s.grad_tol:
                    break
                ha, hd = a, d
                if not ((a * d - b * b)[0] > 0.0 and (a + d)[0] > 0.0):
                    lam_min = (a + d) / 2 - np.hypot((a - d) / 2, b)
                    mu = norm - 2.0 * lam_min
                    ha, hd = a + mu, d + mu
                det = ha * hd - b * b
                det[~np.isfinite(det)] = np.nan
                p0, p1 = -(hd * gu - b * gv) / det, -(ha * gv - b * gu) / det
                slope = gu * p0 + gv * p1
                r_norm = np.sqrt(2.0 * value)
                noise = (s.floor_ulp * eps * r_norm * (x_norm + r_norm))[0]
                if -slope[0] <= noise:
                    floored = True
                    break
                alpha, step = 1.0, None
                for k in range(s.max_backtracks):
                    if k > 0 and -alpha * slope[0] <= noise:
                        floored = True
                        break
                    tu, tv = u + alpha * p0, v + alpha * p1
                    tval = _values_grads_hessians(x, tu, tv, control)[0]
                    if np.isfinite(tval[0]) and tval[0] <= (value + s.armijo_c * alpha * slope)[0]:
                        step = tu, tv, tval
                        break
                    alpha *= s.backtrack_factor
                if step is None:
                    break
                u, v, value = step
                iterations += 1
                _, gu, gv, a, b, d = _values_grads_hessians(x, u, v, control)
                if not np.isfinite([gu, gv, a, b, d]).all():
                    failed = True
                    break
                norm = np.hypot(gu, gv)
            lanes.append((u[0], v[0], value[0], g_start[0], norm[0], iterations, failed,
                          not failed and (norm[0] <= s.grad_tol or floored)))
    return lanes


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
        # The foot point may lie far outside [0, 1]^2.
        surface = planar_surface(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        res = project_point(np.array([50.0, 0.5, 0.0]), surface, 0.5, 0.5)
        assert res.u == pytest.approx(50.0)

    def test_monotone_descent_and_stationarity(self, monkeypatch):
        rng = np.random.default_rng(2)
        surface = random_surface(rng, 3, 3)
        x = surface_eval(0.4, 0.6, surface) + 0.05 * rng.normal(size=3)
        values = []
        for k in range(12):
            with monkeypatch.context() as m:
                # the settings fields are not constructor arguments, so copy them
                truncated = SimpleNamespace(**{**asdict(projection._SETTINGS),
                                               "max_newton_iters": k})
                m.setattr(projection, "_SETTINGS", truncated)
                res = project_point(x, surface, 0.35, 0.65)
            values.append(res.g)
        assert all(b <= a for a, b in zip(values, values[1:]))
        final = project_point(x, surface, 0.35, 0.65)
        assert final.grad_norm <= projection._SETTINGS.grad_tol
        assert final.g <= final.g_start

    def test_non_finite_start_raises_with_iterate(self):
        rng = np.random.default_rng(3)
        surface = random_surface(rng, 3, 3)
        with pytest.raises(ProjectionError):
            project_point(np.zeros(3), surface, 1e200, 0.5)


class TestSettings:
    @pytest.mark.parametrize("name", ["max_newton_iters", "grad_tol", "armijo_c",
                                      "backtrack_factor", "max_backtracks", "floor_ulp"])
    def test_constants_are_not_constructor_arguments(self, name):
        settings = projection.ProjectionSettings()
        assert settings == projection._SETTINGS
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            projection.ProjectionSettings(**{name: getattr(settings, name)})


class TestPrecisionFloor:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, "far-plane"])
    def test_batch_equals_sequential_backtracking_bitwise(self, seed):
        surface, points, u0, v0 = (far_plane_batch(0) if seed == "far-plane"
                                   else rosenbrock_batch(seed))
        u0[0] = 1e200  # a lane that fails at its start
        batch = projection._solve_batch(points, surface.control, u0, v0)
        norms = batch.grad_norm
        expected = sequential_solve(points, surface.control, u0, v0)
        for i, lane in enumerate(expected):
            u, v, g, g_start, grad_norm, iterations, failed, converged = lane
            assert (i in batch.failed) == failed
            if failed:
                continue
            assert (batch.u[i], batch.v[i], batch.g_final[i]) == (u, v, g)
            assert (batch.g_start[i], norms[i]) == (g_start, grad_norm)
            assert batch.iterations[i] == iterations
            assert batch.converged[i] == converged
        assert 0 in batch.failed
        assert (batch.converged & (norms > projection._SETTINGS.grad_tol)).any()

    @pytest.mark.parametrize("seed", range(10))
    def test_far_foot_point_stops_at_the_floor(self, seed):
        # Started at its exact foot point far out on a plane, the lane takes
        # no step: the rounding noise of the objective, about eps |r| |x|,
        # swamps the decrease Newton predicts. From u = 1e8 on, one ulp of u
        # moves the surface by about 1e-8, so the gradient cannot fall to
        # grad_tol either.
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=3), rng.normal(size=3)
        surface = planar_surface(np.zeros(3), a, b)
        normal = np.cross(a, b) / np.linalg.norm(np.cross(a, b))
        for far in (1e6, 1e8, 1e9):
            res = project_point(far * a + 0.5 * b + normal, surface, far, 0.5)
            assert res.iterations == 0, far
            assert (res.u, res.v, res.g) == (far, 0.5, res.g_start)
            assert res.converged
            if far >= 1e8:
                assert res.grad_norm > projection._SETTINGS.grad_tol

    @pytest.mark.parametrize("trial", range(10))
    def test_converged_foot_points_are_a_fixed_point(self, trial):
        # Re-projecting the lanes that converged onto the fitted surface
        # takes no step and makes only the first kernel call.
        spec = ExperimentSpec(surface="rosenbrock", n_tr=300, sigma2_y=1e-2, seed=0)
        data = make_dataset(spec, trial)
        cloud = PointCloud(data.x_tr, np.ones(spec.n_tr))
        model, _ = fit_surface(cloud)
        first = project_all(cloud, model.surface, model.u, model.v)
        ok = first.converged
        again = project_all(PointCloud(data.x_tr[ok], np.ones(ok.sum())), model.surface,
                            first.u[ok], first.v[ok])
        assert again.iterations.sum() == 0
        assert again.kernel_calls == 1
        npt.assert_array_equal(again.u, first.u[ok])
        npt.assert_array_equal(again.v, first.v[ok])
        assert again.converged.all()

    def test_every_lane_of_a_fit_converges(self, monkeypatch):
        # Lanes whose Hessian is indefinite take a shifted Newton step, so
        # none of them creeps through the whole Newton budget.
        batches = []

        def recording(*args):
            batches.append(project_all(*args))
            return batches[-1]

        monkeypatch.setattr(pipeline, "project_all", recording)
        spec = ExperimentSpec(surface="rosenbrock", n_tr=1000, sigma2_y=1e-2, seed=0)
        data = make_dataset(spec, 0)
        fit_surface(PointCloud(data.x_tr, np.ones(spec.n_tr)))
        assert batches
        for batch in batches:
            assert batch.converged.all()
            assert batch.iterations.max() < projection._SETTINGS.max_newton_iters

    @pytest.mark.parametrize("seed", range(5))
    def test_non_finite_step_is_not_a_floor(self, seed):
        # On a patch scaled by 1e100 or 1e77, a d - b^2 overflows and the step
        # is NaN: its decrease is never within the rounding noise, so the lane
        # takes no step and is not converged.
        for scale in (1e100, 1e77):
            surface = random_surface(np.random.default_rng(seed), 3, 3, scale=scale)
            res = project_point(surface_eval(0.4, 0.6, surface) * 1.5, surface, 0.3, 0.7)
            assert not res.converged, scale
            assert res.iterations == 0, scale

    def test_at_most_two_kernel_calls_per_newton_iteration(self, monkeypatch):
        # The first call scores every start; after it, each Newton iteration
        # scores its full steps and then the rest of the rejecting lanes'
        # ladders, and an accepted step keeps its row, so nothing is refreshed.
        log = []
        monkeypatch.setattr(projection, "_values_grads_hessians",
                            lambda *a: log.append(len(a[0])) or _values_grads_hessians(*a))
        surface, points, u, v = rosenbrock_batch(5, n=200, spread=1.0)
        batch = project_all(PointCloud(points, np.ones(len(points))), surface, u, v)
        assert log[0] == 200
        assert batch.kernel_calls == len(log)
        assert len(log) <= 1 + 2 * (batch.iterations.max() + 1)
        assert batch.iterations.max() > 1


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

    def test_lane_failing_after_an_accepted_step_fails_alone(self, monkeypatch):
        surface, points, u, v = rosenbrock_batch(11, n=40)
        target, calls = 7, []

        def poisoned(pts, uu, vv, control):
            out = _values_grads_hessians(pts, uu, vv, control)
            calls.append(len(pts))
            if len(calls) == 2:  # the full steps of the first Newton iteration
                hit = (pts == points[target]).all(axis=1)
                assert hit.sum() == 1
                out = (out[0], *(np.where(hit, np.nan, a) for a in out[1:]))
            return out

        with monkeypatch.context() as m:
            m.setattr(projection, "_values_grads_hessians", poisoned)
            batch = project_all(PointCloud(points, np.ones(len(points))), surface, u, v)
        assert batch.failed == (target,)
        assert (batch.u[target], batch.v[target]) == (u[target], v[target])
        assert batch.g_final[target] == batch.g_start[target]
        # Its last finite row is its start, which gives its gradient norm.
        _, grad, _ = g_eval(points[target], u[target], v[target], surface)
        assert batch.grad_norm[target] == np.hypot(*grad)
        for i in range(len(points)):
            if i == target:
                continue
            lane = project_all(PointCloud(points[i:i + 1], np.ones(1)), surface,
                               u[i:i + 1], v[i:i + 1])
            for name in ("u", "v", "g_start", "g_final", "converged", "iterations"):
                assert getattr(batch, name)[i] == getattr(lane, name)[0], (i, name)

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
