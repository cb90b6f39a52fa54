"""Dataset generation, fit metrics, and study aggregation."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from patchfit import (
    ExperimentSpec,
    FitSettings,
    LatentSurface,
    PointCloud,
    ProjectionError,
    eval_fit,
    fit_surface,
    latent_eval,
    latent_height,
    make_dataset,
    project_point,
    random_rotation,
    run_study,
    run_trial,
    sigma2_hat,
)


def rosenbrock_oracle(x, y, alpha=0.01, a=1.0, b=100.0):
    # independent re-implementation of the height polynomial
    return alpha * ((a - x) * (a - x) + b * (y - x * x) * (y - x * x))


class TestLatentSurfaces:
    def test_plane_height_zero(self):
        surface = LatentSurface.plane()
        assert latent_height(surface, 0.3, -0.8) == 0.0

    def test_rosenbrock_minimum(self):
        surface = LatentSurface.rosenbrock()
        assert latent_height(surface, surface.a, surface.a**2) == 0.0

    def test_duplicate_formula_oracle(self):
        rng = np.random.default_rng(0)
        surface = LatentSurface.rosenbrock()
        xs = rng.uniform(-1, 1, 50)
        ys = rng.uniform(-0.5, 1.5, 50)
        values = latent_height(surface, xs, ys)
        expected = [rosenbrock_oracle(x, y) for x, y in zip(xs, ys)]
        npt.assert_allclose(values, expected, rtol=1e-14)

    def test_rotation_applied_after_height(self):
        rng = np.random.default_rng(1)
        rot = random_rotation(rng)
        surface = LatentSurface.rosenbrock(rotation=rot)
        flat = LatentSurface.rosenbrock()
        xy = rng.uniform(0, 1, (10, 2))
        npt.assert_allclose(latent_eval(surface, xy), latent_eval(flat, xy) @ rot.T, rtol=1e-13)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LatentSurface.for_kind("sphere")


class TestRandomRotation:
    def test_proper_orthonormal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rot = random_rotation(rng)
            npt.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)


class TestMakeDataset:
    def test_zero_noise_train_equals_latent(self):
        spec = ExperimentSpec(surface="rosenbrock", n_tr=40, sigma2_y=0.0, seed=5)
        data = make_dataset(spec)
        npt.assert_array_equal(data.x_tr, data.s_tr)

    def test_train_test_disjoint(self):
        spec = ExperimentSpec(surface="plane", n_tr=50, sigma2_y=0.01, seed=6)
        data = make_dataset(spec)
        d2 = ((data.s_tr[:, None, :] - data.s_te[None, :, :]) ** 2).sum(axis=2)
        assert d2.min() > 0.0

    def test_noise_variance_empirical(self):
        spec = ExperimentSpec(surface="plane", n_tr=10000, n_te=1, sigma2_y=0.01, seed=7)
        data = make_dataset(spec)
        noise = data.x_tr - data.s_tr
        per_coord = noise.var(axis=0)
        npt.assert_allclose(per_coord, 0.01, rtol=0.05)

    def test_reproducible(self):
        spec = ExperimentSpec(surface="rosenbrock", n_tr=30, sigma2_y=0.05, seed=8)
        a = make_dataset(spec, trial=3)
        b = make_dataset(spec, trial=3)
        npt.assert_array_equal(a.x_tr, b.x_tr)
        npt.assert_array_equal(a.s_te, b.s_te)
        c = make_dataset(spec, trial=4)
        assert not np.array_equal(a.x_tr, c.x_tr)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(surface="plane", n_tr=2, sigma2_y=0.1, seed=1)
        with pytest.raises(ValueError):
            ExperimentSpec(surface="plane", n_tr=10, sigma2_y=-0.1, seed=1)
        with pytest.raises(ValueError):
            ExperimentSpec(surface="plane", n_tr=10, sigma2_y=0.1, seed=1, mode="magic")


class TestEvalFit:
    def _fitted(self, rng, noise=0.01):
        spec = ExperimentSpec(surface="rosenbrock", n_tr=80, sigma2_y=noise, seed=9)
        data = make_dataset(spec)
        cloud = PointCloud(data.x_tr, np.ones(spec.n_tr))
        model, _ = fit_surface(cloud)
        return data, cloud, model

    def test_train_metric_matches_sigma2_hat_for_unit_weights(self):
        rng = np.random.default_rng(10)
        data, cloud, model = self._fitted(rng)
        metrics = eval_fit(model, data.x_tr, data.s_te)
        expected = sigma2_hat(cloud, model.surface, model.u, model.v)
        assert metrics.sigma2_tr == pytest.approx(expected, rel=1e-12)

    def test_points_on_surface_project_to_zero(self):
        rng = np.random.default_rng(11)
        data, cloud, model = self._fitted(rng)
        from patchfit import design_matrix

        on_surface = design_matrix(model.u[:20], model.v[:20], model.n_u, model.n_v).T
        on_surface = on_surface @ model.surface.flat
        metrics = eval_fit(model, data.x_tr, on_surface)
        scale = np.abs(data.x_tr).max()
        assert metrics.sigma2_te <= 1e-12 * scale
        assert metrics.test_failures == 0

    def test_single_point_distance(self):
        rng = np.random.default_rng(12)
        data, cloud, model = self._fitted(rng, noise=0.0)
        metrics = eval_fit(model, data.x_tr, data.s_te[:1])
        from patchfit import project_point

        j = int(np.argmin(((data.x_tr - data.s_te[0]) ** 2).sum(axis=1)))
        res = project_point(data.s_te[0], model.surface, model.u[j], model.v[j])
        assert metrics.sigma2_te == pytest.approx(2 * res.g / 3, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("surface", ["plane", "rosenbrock"])
    def test_batch_equals_per_point_reference(self, surface):
        spec = ExperimentSpec(surface=surface, n_tr=60, n_te=30, sigma2_y=1e-2, seed=24)
        data = make_dataset(spec)
        model, _ = fit_surface(PointCloud(data.x_tr, np.ones(spec.n_tr)))
        s_te = np.vstack([data.s_te, [1e300, 0.0, 0.0]])  # the last one cannot be projected
        metrics = eval_fit(model, data.x_tr, s_te)

        dist2, failures = [], 0
        for point in s_te:
            with np.errstate(over="ignore"):
                j = int(np.argmin(np.sum((point - data.x_tr) ** 2, axis=1)))
            try:
                res = project_point(point, model.surface, model.u[j], model.v[j])
            except ProjectionError:
                failures += 1
                continue
            dist2.append(2.0 * res.g)
        assert failures == 1
        assert metrics.test_failures == failures
        assert metrics.sigma2_te == sum(dist2) / (3.0 * len(dist2))


class TestStudies:
    def test_trial_record_fields(self):
        spec = ExperimentSpec(surface="plane", n_tr=30, n_te=20, sigma2_y=0.01,
                              seed=13, trials=2)
        rec = run_trial(spec, 0)
        assert rec.error == ""
        assert rec.size >= 4
        assert rec.iterations >= 1
        assert math.isfinite(rec.sigma2_te)

    def test_run_study_reproducible_metrics(self):
        spec = ExperimentSpec(surface="plane", n_tr=25, n_te=15, sigma2_y=0.02,
                              seed=14, trials=2)
        rows1, recs1 = run_study([spec])
        rows2, recs2 = run_study([spec])
        assert rows1[0].mean_sigma2_te == rows2[0].mean_sigma2_te
        assert [r.sigma2_tr for r in recs1] == [r.sigma2_tr for r in recs2]

    def test_fixed_mode_freezes_orders(self):
        spec = ExperimentSpec(surface="plane", n_tr=30, n_te=10, sigma2_y=0.05,
                              seed=15, trials=2, mode="fixed", orders=(2, 2))
        _, recs = run_study([spec])
        assert all((r.n_u, r.n_v) == (2, 2) for r in recs)
        assert all(r.size == 9 for r in recs)

    def test_brute_mode_searches_grid(self):
        spec = ExperimentSpec(surface="plane", n_tr=30, n_te=10, sigma2_y=0.05,
                              seed=16, trials=1, mode="brute", brute_cap=(2, 2))
        _, recs = run_study([spec])
        assert recs[0].error == ""
        assert recs[0].size in (4, 6, 9)

    def test_rosenbrock_fit_grows_and_tracks_noise(self):
        # curved sheet at moderate noise: model must outgrow bilinear and the
        # train variance estimate must sit near the injected noise level
        spec = ExperimentSpec(surface="rosenbrock", n_tr=100, sigma2_y=1e-2, seed=18)
        data = make_dataset(spec, 0)
        model, _ = fit_surface(PointCloud(data.x_tr, np.ones(100)))
        assert model.size > 4
        assert 1e-3 <= model.sigma2 <= 1e-1

    def test_failed_trials_are_counted_and_excluded(self):
        # 3 points cannot support any candidate order at lam = 0
        spec = ExperimentSpec(surface="plane", n_tr=3, n_te=5, sigma2_y=0.01,
                              seed=19, trials=2, lam=0.0)
        rows, recs = run_study([spec])
        assert rows[0].failures == 2
        assert all(r.error for r in recs)
        assert math.isnan(rows[0].mean_sigma2_te)

    def test_rotation_changes_error_weakly(self):
        # isotropic noise is rotation-invariant in distribution, so pairing
        # the draws in the surface frame isolates the rotation effect: only
        # initialization flips can change the result, and only weakly
        rng = np.random.default_rng(17)
        rotations = [random_rotation(rng) for _ in range(2)]
        means = []
        for rot in rotations:
            errs = []
            for trial in range(4):
                sample_rng = np.random.default_rng([99, trial])
                xy = np.column_stack([
                    sample_rng.uniform(-1, 1, 130),
                    sample_rng.uniform(-0.5, 1.5, 130),
                ])
                flat = latent_eval(LatentSurface.rosenbrock(), xy)
                noise = np.zeros((130, 3))
                noise[:100] = sample_rng.normal(0, 0.1, (100, 3))
                rotated = (flat + noise) @ rot.T
                model, _ = fit_surface(PointCloud(rotated[:100], np.ones(100)))
                errs.append(eval_fit(model, rotated[:100], rotated[100:]).sigma2_te)
            means.append(np.mean(errs))
        assert abs(means[0] - means[1]) <= 0.2 * max(means)
