"""Foot-point search: closed-form oracles, descent, and determinism."""

import math
import re
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from patchfit import (
    BatchProjection,
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
from patchfit import design_matrix, fit_surface, outer_iterations, pipeline, projection
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


def assert_lane_equal(batch, i, lane):
    """Lane i of ``batch`` equals the one-lane batch ``lane`` in every per-lane
    field, bit for bit."""
    for name in ("u", "v", "g_start", "g_final", "converged", "iterations"):
        assert getattr(batch, name)[i:i + 1].tobytes() == getattr(lane, name).tobytes(), (i, name)


def random_surface(rng, n_u, n_v):
    return BezierSurface(rng.normal(size=(n_u + 1, n_v + 1, 3)))


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
    (H + mu I) p = -g for its (H, g) scaled by the power of two that brings
    their largest magnitude into [1/2, 1), with mu = |g| - 2 lambda_min when
    H is not positive definite. It stops when the line search finds no Armijo
    point, or at the precision floor, which alone counts as converged: without
    taking the step when its gradient is exactly zero or its decrement -g.p is
    at most ``floor_ulp`` eps |r| (|x| + |r|), the rounding noise of its
    objective, or when its ladder reaches a step length alpha whose predicted
    decrease alpha (-g.p) is within that noise. The floor is checked once more
    after the last Newton step.
    """
    s = projection._SETTINGS
    eps = np.finfo(np.float64).eps
    lanes = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for x, u, v in zip(points, u0, v0):
            x_norm = np.hypot(np.hypot(x[0], x[1]), x[2])
            x, u, v = x[:, None], np.array([u]), np.array([v])
            value, gu, gv, a, b, d = _values_grads_hessians(x, u, v, control)
            g_start, iterations = value, 0
            failed = not np.isfinite([value, gu, gv, a, b, d]).all()
            floored = False
            for it in range(s.max_newton_iters + 1):
                if failed or floored:
                    break
                e = math.frexp(max(abs(float(t[0])) for t in (gu, gv, a, b, d)))[1]
                sgu, sgv, sa, sb, sd = (np.ldexp(t, -e) for t in (gu, gv, a, b, d))
                ha, hd = sa, sd
                if not ((sa * sd - sb * sb)[0] > 0.0 and (sa + sd)[0] > 0.0):
                    lam_min = (sa + sd) / 2 - np.hypot((sa - sd) / 2, sb)
                    mu = np.hypot(sgu, sgv) - 2.0 * lam_min
                    ha, hd = sa + mu, sd + mu
                det = ha * hd - sb * sb
                p0, p1 = -(hd * sgu - sb * sgv) / det, -(ha * sgv - sb * sgu) / det
                slope = gu * p0 + gv * p1
                r_norm = np.sqrt(2.0 * value)
                noise = (s.floor_ulp * eps * r_norm * (x_norm + r_norm))[0]
                if -slope[0] <= noise or (gu[0] == 0.0 and gv[0] == 0.0):
                    floored = True
                    break
                if it == s.max_newton_iters:
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
            lanes.append((u[0], v[0], value[0], g_start[0], iterations, failed,
                          not failed and floored))
    return lanes


class TestProjectPoint:
    def test_already_stationary(self):
        rng = np.random.default_rng(0)
        surface = random_surface(rng, 2, 2)
        u, v = 0.4, 0.7
        x = surface_eval(u, v, surface)
        res = project_point(x, surface, u, v)
        assert res.iterations[0] == 0
        assert res.u[0] == u and res.v[0] == v
        assert res.g_final[0] <= 1e-30
        assert res.converged[0]

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
            npt.assert_allclose([res.u[0], res.v[0]], uv_star, rtol=1e-8, atol=1e-10)
            assert res.converged[0]
        # The foot point may lie far outside [0, 1]^2.
        surface = planar_surface(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        res = project_point(np.array([50.0, 0.5, 0.0]), surface, 0.5, 0.5)
        assert res.u[0] == pytest.approx(50.0)

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
            values.append(res.g_final[0])
        assert all(b <= a for a, b in zip(values, values[1:]))
        final = project_point(x, surface, 0.35, 0.65)
        grad = g_eval(x, final.u[0], final.v[0], surface)[1]
        assert np.hypot(*grad) <= projection._SETTINGS.grad_tol
        assert final.g_final[0] <= final.g_start[0]

    def test_non_finite_start_raises_with_iterate(self):
        rng = np.random.default_rng(3)
        surface = random_surface(rng, 3, 3)
        with pytest.raises(ProjectionError):
            project_point(np.zeros(3), surface, 1e200, 0.5)

    def test_is_the_one_point_batch(self):
        # project_point returns the solve's own one-lane batch: every field,
        # kernel_calls included, equals project_all on a one-point cloud.
        surface, points, u, v = rosenbrock_batch(19, n=12, spread=1.0)
        for i in range(len(points)):
            res = project_point(points[i], surface, u[i], v[i])
            lane = project_all(PointCloud(points[i:i + 1], np.ones(1)), surface,
                               u[i:i + 1], v[i:i + 1])
            assert isinstance(res, BatchProjection)
            for f in fields(BatchProjection):
                a, b = getattr(res, f.name), getattr(lane, f.name)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (i, f.name)
            assert res.failed == ()


class TestSettings:
    @pytest.mark.parametrize("name", ["max_newton_iters", "loop_newton_iters", "grad_tol",
                                      "armijo_c", "backtrack_factor", "max_backtracks",
                                      "floor_ulp"])
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
        expected = sequential_solve(points, surface.control, u0, v0)
        norms = np.zeros(len(points))
        for i, lane in enumerate(expected):
            u, v, g, g_start, iterations, failed, converged = lane
            assert (i in batch.failed) == failed
            if failed:
                continue
            assert (batch.u[i], batch.v[i], batch.g_final[i]) == (u, v, g)
            assert batch.g_start[i] == g_start
            norms[i] = np.hypot(*g_eval(points[i], u, v, surface)[1])
            assert batch.iterations[i] == iterations
            assert batch.converged[i] == converged
        assert 0 in batch.failed
        assert (batch.converged & (norms > projection._SETTINGS.grad_tol)).any()

    @pytest.mark.parametrize("seed", range(10))
    def test_far_foot_point_stops_at_the_floor(self, seed):
        # Started at its exact foot point far out on a plane, the lane takes
        # no step: the rounding noise of the objective, about eps |r| |x|,
        # swamps the decrease Newton predicts. From u = 1e8 on, one ulp of u
        # moves the surface by about 1e-8, so the gradient stays above 1e-10
        # and only the floor, which has no unit, can stop the lane.
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=3), rng.normal(size=3)
        surface = planar_surface(np.zeros(3), a, b)
        normal = np.cross(a, b) / np.linalg.norm(np.cross(a, b))
        for far in (1e6, 1e8, 1e9):
            res = project_point(far * a + 0.5 * b + normal, surface, far, 0.5)
            assert res.iterations[0] == 0, far
            assert (res.u[0], res.v[0], res.g_final[0]) == (far, 0.5, res.g_start[0])
            assert res.converged[0]
            if far >= 1e8:
                grad = g_eval(far * a + 0.5 * b + normal, far, 0.5, surface)[1]
                assert np.hypot(*grad) > projection._SETTINGS.grad_tol

    @pytest.mark.parametrize("trial", range(10))
    def test_converged_foot_points_are_a_fixed_point(self, trial):
        # Re-projecting the lanes that converged onto the fitted surface takes
        # no step and keeps every lane's bytes. A lane that stopped on an empty
        # Armijo ladder takes the same path again, so the re-projection makes at
        # most the two kernel calls of one Newton iteration.
        spec = ExperimentSpec(surface="rosenbrock", n_tr=300, sigma2_y=1e-2, seed=0)
        data = make_dataset(spec, trial)
        cloud = PointCloud(data.x_tr, np.ones(spec.n_tr))
        model, _ = fit_surface(cloud)
        first = project_all(cloud, model.surface, model.u, model.v)
        ok = first.converged
        again = project_all(PointCloud(data.x_tr[ok], np.ones(ok.sum())), model.surface,
                            first.u[ok], first.v[ok])
        assert again.iterations.sum() == 0
        assert again.kernel_calls <= 2
        npt.assert_array_equal(again.u, first.u[ok])
        npt.assert_array_equal(again.v, first.v[ok])
        assert again.g_final.tobytes() == first.g_final[ok].tobytes()
        assert again.converged.all()

    @staticmethod
    def fit_solves(monkeypatch, spec, trial=0):
        """The fit's ``project_all`` calls, each as (budgeted, batch), and its trace."""
        solves = []

        def recording(*args, budgeted=False):
            solves.append((budgeted, project_all(*args, budgeted=budgeted)))
            return solves[-1][1]

        monkeypatch.setattr(pipeline, "project_all", recording)
        data = make_dataset(spec, trial)
        _, trace = fit_surface(PointCloud(data.x_tr, np.ones(spec.n_tr)))
        return solves, trace

    def test_loop_lanes_take_at_most_the_budget(self, monkeypatch):
        # The loop's first solve starts at the principal-direction parameters
        # and runs to the floor; each later one stops a lane after the budget.
        # Lanes whose Hessian is indefinite take a shifted Newton step, so no
        # exact lane creeps through the whole Newton budget.
        spec = ExperimentSpec(surface="rosenbrock", n_tr=1000, sigma2_y=1e-2, seed=0)
        solves, trace = self.fit_solves(monkeypatch, spec)
        loop = solves[:outer_iterations(trace)]
        assert [budgeted for budgeted, _ in loop] == [False] + [True] * (len(loop) - 1)
        budget = projection._SETTINGS.loop_newton_iters
        for budgeted, batch in loop[1:]:
            assert batch.iterations.max() <= budget
            assert (batch.g_final <= batch.g_start).all()
        assert any((~batch.converged).any() for _, batch in loop[1:])
        first = loop[0][1]
        assert first.converged.all()
        assert first.iterations.max() < projection._SETTINGS.max_newton_iters

    @pytest.mark.parametrize("seed", range(3))
    def test_budgeted_solve_is_the_solve_cut_at_the_budget(self, monkeypatch, seed):
        surface, points, u0, v0 = rosenbrock_batch(seed, spread=1.0)
        budgeted = project_all(PointCloud(points, np.ones(len(points))), surface, u0, v0,
                               budgeted=True)
        cut = SimpleNamespace(**{**asdict(projection._SETTINGS),
                                 "max_newton_iters": projection._SETTINGS.loop_newton_iters})
        monkeypatch.setattr(projection, "_SETTINGS", cut)
        expected = projection._solve_batch(points, surface.control, u0, v0)
        for f in fields(BatchProjection):
            a, b = getattr(budgeted, f.name), getattr(expected, f.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
        assert (~budgeted.converged).any()

    @pytest.mark.parametrize("trial", range(3))
    def test_final_pass_leaves_every_lane_converged_or_failed(self, monkeypatch, trial):
        # The last loop solve left lanes off the floor, so a finish row, one
        # exact solve, follows the loop, and it leaves no lane neither converged
        # nor failed.
        spec = ExperimentSpec(surface="rosenbrock", n_tr=1000, sigma2_y=1e-2, seed=0)
        solves, trace = self.fit_solves(monkeypatch, spec, trial)
        assert len(solves) == len(trace) - 1
        assert trace[-1].iteration == trace[-2].iteration == outer_iterations(trace)
        last, (budgeted, final) = solves[-2][1], solves[-1]
        assert not budgeted
        assert np.count_nonzero(~last.converged) > len(last.failed)
        settled = final.converged.copy()
        settled[list(final.failed)] = True
        assert settled.all()
        assert final.iterations.max() < projection._SETTINGS.max_newton_iters

    @pytest.mark.parametrize("seed", range(5))
    def test_non_finite_step_is_not_a_floor(self, seed):
        # On the plane s = (c u, e v, 0) with e ~ 1e-157, the v curvature e^2 is
        # subnormal, and a point 1e153 off along y has g_v / h22 beyond the
        # largest float: the step overflows. Its decrease is never within the
        # rounding noise, so the lane takes no step and is not converged.
        rng = np.random.default_rng(seed)
        control = np.zeros((2, 2, 3))
        control[1, :, 0] = rng.uniform(0.5, 2.0) * 1e-2
        control[:, 1, 1] = rng.uniform(0.5, 2.0) * 1e-157
        surface = BezierSurface(control)
        u0, v0 = rng.uniform(0.2, 0.8, 2)
        point = surface_eval(u0, v0, surface) + [0.0, 1e153, 0.0]
        _, gu, gv, h11, h12, h22 = _values_grads_hessians(point[:, None], np.array([u0]),
                                                          np.array([v0]), control)
        assert (gu, h12) == (0.0, 0.0) and 0.0 < h22[0] < np.finfo(np.float64).tiny
        assert abs(gv[0]) > np.finfo(np.float64).max * h22[0]
        res = project_point(point, surface, u0, v0)
        assert not res.converged[0]
        assert res.iterations[0] == 0
        assert res.g_final[0] == res.g_start[0]

    def test_zero_gradient_lane_stops_without_a_step(self):
        # On a patch with s_v = 0 everywhere, H is singular and a point on the
        # surface has the step 0/0; its exact zero gradient stops it.
        rng = np.random.default_rng(17)
        control = np.repeat(rng.normal(size=(4, 1, 3)), 3, axis=1)
        surface = BezierSurface(control)
        u, v = rng.uniform(0, 1, 8), rng.uniform(0, 1, 8)
        points = np.array([surface_eval(ui, vi, surface) for ui, vi in zip(u, v)])
        batch = project_all(PointCloud(points, np.ones(8)), surface, u, v)
        for x, ui, vi in zip(points, batch.u, batch.v):
            npt.assert_array_equal(g_eval(x, ui, vi, surface)[1], 0.0)
        assert batch.converged.all()
        assert batch.iterations.sum() == 0
        assert batch.kernel_calls == 1

    def test_floor_is_checked_after_the_last_step(self, monkeypatch):
        # With one Newton step allowed, the lanes at the floor after it are
        # converged, and the check costs no kernel call.
        surface, points, u0, v0 = far_plane_batch(0)
        truncated = SimpleNamespace(**{**asdict(projection._SETTINGS), "max_newton_iters": 1})
        monkeypatch.setattr(projection, "_SETTINGS", truncated)
        batch = projection._solve_batch(points, surface.control, u0, v0)
        expected = sequential_solve(points, surface.control, u0, v0)
        npt.assert_array_equal(batch.converged, [lane[-1] for lane in expected])
        npt.assert_array_equal(batch.iterations, [lane[4] for lane in expected])
        assert batch.converged.sum() == 2
        assert (batch.iterations[batch.converged] == 1).all()
        assert batch.kernel_calls == 3

    def test_at_most_two_kernel_calls_per_newton_iteration(self, monkeypatch):
        # The first call scores every start; after it, each Newton iteration
        # scores its full steps and then the rest of the rejecting lanes'
        # ladders, and an accepted step keeps its row, so nothing is refreshed.
        log = []
        monkeypatch.setattr(projection, "_values_grads_hessians",
                            lambda *a: log.append(a[0].shape[1]) or _values_grads_hessians(*a))
        surface, points, u, v = rosenbrock_batch(5, n=200, spread=1.0)
        batch = project_all(PointCloud(points, np.ones(len(points))), surface, u, v)
        assert log[0] == 200
        assert batch.kernel_calls == len(log)
        assert len(log) <= 1 + 2 * (batch.iterations.max() + 1)
        assert batch.iterations.max() > 1


class TestScaleEquivariance:
    @pytest.mark.parametrize("instance", ["rosenbrock", "bicubic"])
    @pytest.mark.parametrize("k", [-300, -255, -40, -20, -8, 8, 20, 40, 255, 300])
    def test_power_of_two_scale_changes_only_the_objective(self, instance, k):
        # The stop rule has no constant with a unit, so scaling the points and
        # the patch by 2^k scales every objective by 4^k and changes nothing else.
        # The Newton system is solved at a power-of-two scale of its own, so its
        # determinant, which scales by 16^k, neither overflows nor underflows.
        if instance == "rosenbrock":
            surface, points, u, v = rosenbrock_batch(3)
        else:
            rng = np.random.default_rng(18)
            surface = random_surface(rng, 3, 3)
            u, v = rng.uniform(0, 1, 60), rng.uniform(0, 1, 60)
            points = np.array([surface_eval(ui, vi, surface) for ui, vi in zip(u, v)])
            points += 0.05 * rng.normal(size=points.shape)
            u, v = u + 0.2 * rng.normal(size=60), v + 0.2 * rng.normal(size=60)
        base = project_all(PointCloud(points, np.ones(60)), surface, u, v)
        scaled = project_all(PointCloud(2.0**k * points, np.ones(60)),
                             BezierSurface(2.0**k * surface.control), u, v)
        for name in ("u", "v", "iterations", "converged"):
            npt.assert_array_equal(getattr(scaled, name), getattr(base, name), err_msg=name)
        assert scaled.kernel_calls == base.kernel_calls
        npt.assert_array_equal(scaled.g_start, 4.0**k * base.g_start)
        npt.assert_array_equal(scaled.g_final, 4.0**k * base.g_final)
        assert base.converged.all()


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
            assert_lane_equal(batch, i, project_point(cloud.points[i], surface, u[i], v[i]))

    @pytest.mark.parametrize("failed_lane", [None, 1234])
    def test_large_batch_matches_per_point_bitwise(self, monkeypatch, failed_lane):
        # 3 000 lanes on a control tensor from ``from_flat``, as fits make
        # it, so numpy runs other inner loops than on the small batches
        # above. The first 500 lanes start at converged foot points and stop
        # on pass 0; a lane whose start is NaN fails, so pass 0 is not
        # all-active. A lane whose point appears twice in one kernel call
        # evaluates a backtracking ladder.
        surface, points, u, v = rosenbrock_batch(13, n=3000)
        cloud = PointCloud(points, np.ones(len(points)))
        first = project_all(cloud, surface, u, v)
        assert first.converged[:500].all()
        u[:500], v[:500] = first.u[:500], first.v[:500]
        if failed_lane is not None:
            u[failed_lane] = np.nan
        lane_of = {p.tobytes(): i for i, p in enumerate(points)}
        backtracked = set()

        def recording(pts, uu, vv, control):
            lanes, counts = np.unique([lane_of[p.tobytes()] for p in pts.T], return_counts=True)
            backtracked.update(lanes[counts > 1].tolist())
            return _values_grads_hessians(pts, uu, vv, control)

        with monkeypatch.context() as m:
            m.setattr(projection, "_values_grads_hessians", recording)
            batch = project_all(cloud, surface, u, v)
        assert batch.failed == (() if failed_lane is None else (failed_lane,))
        rng = np.random.default_rng(14)
        sample = np.concatenate([rng.choice(500, 20, replace=False),
                                 rng.choice(sorted(backtracked - {failed_lane}), 20, replace=False),
                                 rng.choice(np.arange(500, 3000), 20, replace=False)])
        assert (batch.iterations[sample[:20]] == 0).all()
        for i in sample:
            assert_lane_equal(batch, i, project_point(points[i], surface, u[i], v[i]))
        if failed_lane is not None:
            with pytest.raises(ProjectionError):
                project_point(points[failed_lane], surface, u[failed_lane], v[failed_lane])

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
            calls.append(pts.shape[1])
            if len(calls) == 2:  # the full steps of the first Newton iteration
                hit = (pts.T == points[target]).all(axis=1)
                assert hit.sum() == 1
                out = (out[0], *(np.where(hit, np.nan, a) for a in out[1:]))
            return out

        with monkeypatch.context() as m:
            m.setattr(projection, "_values_grads_hessians", poisoned)
            batch = project_all(PointCloud(points, np.ones(len(points))), surface, u, v)
        assert batch.failed == (target,)
        assert (batch.u[target], batch.v[target]) == (u[target], v[target])
        assert batch.g_final[target] == batch.g_start[target]
        for i in range(len(points)):
            if i == target:
                continue
            assert_lane_equal(batch, i, project_all(PointCloud(points[i:i + 1], np.ones(1)),
                                                    surface, u[i:i + 1], v[i:i + 1]))

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

    def test_reference_parameters_may_be_lists(self):
        rng = np.random.default_rng(12)
        surface, refs, ref_u, ref_v = self._instance(rng)
        points = refs[:4] + 0.01
        expected = project_nearest(points, surface, refs, ref_u, ref_v)
        batch = project_nearest(points, surface, refs.tolist(), ref_u.tolist(), ref_v.tolist())
        assert (batch.u.tobytes(), batch.v.tobytes()) == (expected.u.tobytes(), expected.v.tobytes())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_point_fails_only_its_lane(self):
        rng = np.random.default_rng(13)
        surface, refs, ref_u, ref_v = self._instance(rng)
        points = np.vstack([refs[:3] + 0.01, [1e300, 0.0, 0.0]])
        batch = project_nearest(points, surface, refs, ref_u, ref_v)
        assert batch.failed == (3,)
        assert batch.converged[:3].all()

    @pytest.mark.parametrize("block", [1, 3, 256])
    def test_blockwise_starts_equal_the_per_point_loop(self, monkeypatch, block):
        # Ties (duplicated references, and a point equidistant from several)
        # go to the first reference, and a point whose distances all overflow
        # starts at k = 0, in every block and at the ragged end.
        rng = np.random.default_rng(17)
        _, refs, _, _ = self._instance(rng, n_refs=12)
        far = np.array([50.0, 0.0, 0.0])
        refs = np.vstack([refs, refs[3:6], far + [[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]]])
        points = np.vstack([refs[[4, 13, 5]], [far, [1e300, 0, 0], [0, -1e200, 1e200]],
                            rng.normal(0, 1.0, (4, 3))])
        with np.errstate(over="ignore"):
            expected = [int(np.argmin(np.sum((p - refs) ** 2, axis=1))) for p in points]
        assert expected[:6] == [4, 4, 5, 15, 0, 0]
        monkeypatch.setattr(projection, "_NEAREST_BLOCK", block)
        monkeypatch.setattr(projection, "project_all", lambda cloud, surface, u, v: u)
        ks = np.arange(len(refs), dtype=np.float64)
        starts = project_nearest(points, None, refs, ks, ks)
        npt.assert_array_equal(starts, expected)

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

    @pytest.mark.parametrize("n_refs, n_u, n_v", [(0, 0, 0), (2, 1, 2), (2, 2, 1), (2, 3, 2),
                                                  (2, 2, 3)])
    def test_reference_lengths_must_agree(self, n_refs, n_u, n_v):
        # An empty reference set has no nearest point; a short ref_u or ref_v
        # would index past its end, and a long one would pair points with the
        # wrong parameters.
        rng = np.random.default_rng(18)
        surface, refs, ref_u, ref_v = self._instance(rng, n_refs=3)
        message = f"{n_refs} refs, {n_u} ref_u, {n_v} ref_v"
        with pytest.raises(ValueError, match=re.escape(message)):
            project_nearest(refs[:1] + 0.01, surface, refs[:n_refs], ref_u[:n_u], ref_v[:n_v])

    @pytest.mark.parametrize("at", ["first", "last"])
    def test_nan_reference_takes_no_start(self, at):
        # A NaN reference must start no point, wherever it sits in the list.
        rng = np.random.default_rng(19)
        surface, refs, ref_u, ref_v = self._instance(rng, n_refs=3)
        points = rng.normal(0, 1.0, (20, 3))
        expected = project_nearest(points, surface, refs, ref_u, ref_v)
        k = 0 if at == "first" else len(refs)
        batch = project_nearest(points, surface, np.insert(refs, k, [np.nan, 0.0, 0.0], axis=0),
                                np.insert(ref_u, k, 7.0), np.insert(ref_v, k, 7.0))
        for name in ("u", "v", "g_start", "g_final", "converged", "iterations"):
            assert getattr(batch, name).tobytes() == getattr(expected, name).tobytes(), name
        assert (batch.kernel_calls, batch.failed) == (expected.kernel_calls, expected.failed)

    def test_nan_distances_rank_after_every_number(self, monkeypatch):
        # inf (an overflow) is a number and beats NaN; a row of NaN starts at k = 0.
        monkeypatch.setattr(projection, "project_all", lambda cloud, surface, u, v: u)
        refs = np.array([[np.nan, 0.0, 0.0], [1e300, 0.0, 0.0], [0.0, 0.0, 0.0]])
        ks = np.arange(3, dtype=np.float64)
        points = [[0.5, 0.0, 0.0], [-1e300, 0.0, 0.0]]
        npt.assert_array_equal(project_nearest(points, None, refs, ks, ks), [2, 1])
        all_nan = np.full((3, 3), np.nan)
        npt.assert_array_equal(project_nearest(points, None, all_nan, ks, ks), [0, 0])

    def test_lanes_equal_project_point_from_brute_force_start(self):
        rng = np.random.default_rng(16)
        surface, refs, ref_u, ref_v = self._instance(rng, n_refs=40)
        points = rng.normal(0, 1.0, (30, 3))
        batch = project_nearest(points, surface, refs, ref_u, ref_v)
        for i, p in enumerate(points):
            dist = [sum(((p - r) ** 2).tolist()) for r in refs]
            k = min(range(len(refs)), key=dist.__getitem__)
            assert_lane_equal(batch, i, project_point(p, surface, ref_u[k], ref_v[k]))
