"""The regularized control-point solve and translation."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import patchfit
from patchfit import (
    BezierSurface,
    RankDeficiencyError,
    design_matrix,
    solve_control_points,
    surface_eval,
    translate_surface,
    weighted_objective,
)
from patchfit.control import _gram


def synth_points(rng, surface, n):
    u = rng.uniform(0, 1, n)
    v = rng.uniform(0, 1, n)
    points = design_matrix(u, v, surface.n_u, surface.n_v).T @ surface.flat
    return points, u, v


class TestWeightedObjective:
    def test_matches_sum_and_matrix_forms(self):
        # oracles: a literal per-point loop and the Frobenius form with an
        # explicit weight matrix
        rng = np.random.default_rng(1)
        for _ in range(10):
            surface = BezierSurface(rng.normal(size=(3, 3, 3)))
            n = 17
            points = rng.normal(size=(n, 3))
            weights = rng.uniform(0.2, 3.0, n)
            u = rng.uniform(0, 1, n)
            v = rng.uniform(0, 1, n)
            f = weighted_objective(points, weights, surface, u, v)

            loop = 0.0
            for i in range(n):
                r = points[i] - surface_eval(u[i], v[i], surface)
                loop += 0.5 * weights[i] ** 2 * float(r @ r)
            assert f == pytest.approx(loop, rel=1e-12)

            b = design_matrix(u, v, surface.n_u, surface.n_v)
            lam_mat = np.diag(weights)
            frob = 0.5 * np.linalg.norm(lam_mat @ b.T @ surface.flat - lam_mat @ points, "fro") ** 2
            assert f == pytest.approx(frob, rel=1e-12)


class TestSolveControlPoints:
    def test_exact_recovery(self):
        rng = np.random.default_rng(2)
        truth = BezierSurface(rng.normal(size=(3, 4, 3)))
        points, u, v = synth_points(rng, truth, 80)
        recovered = solve_control_points(points, np.ones(80), u, v, 2, 3, lam=0.0)
        scale = np.abs(truth.control).max()
        npt.assert_allclose(recovered.control, truth.control, rtol=0, atol=1e-8 * scale)

    def test_ridge_limit_shrinks_to_zero(self):
        rng = np.random.default_rng(3)
        truth = BezierSurface(rng.normal(size=(2, 2, 3)))
        points, u, v = synth_points(rng, truth, 30)
        shrunk = solve_control_points(points, np.ones(30), u, v, 1, 1, lam=1e12)
        assert np.abs(shrunk.control).max() <= 1e-9

    def test_duplicated_point_with_split_weight(self):
        rng = np.random.default_rng(4)
        truth = BezierSurface(rng.normal(size=(2, 3, 3)))
        points, u, v = synth_points(rng, truth, 25)
        points += 0.05 * rng.normal(size=points.shape)
        weights = rng.uniform(0.5, 2.0, 25)

        dup_points = np.vstack([points, points[3]])
        dup_u = np.append(u, u[3])
        dup_v = np.append(v, v[3])
        dup_weights = np.append(weights, weights[3] / np.sqrt(2))
        dup_weights[3] = weights[3] / np.sqrt(2)

        base = solve_control_points(points, weights, u, v, 1, 2, lam=1e-4)
        dup = solve_control_points(dup_points, dup_weights, dup_u, dup_v, 1, 2, lam=1e-4)
        npt.assert_allclose(dup.control, base.control, rtol=1e-9, atol=1e-12)

    def test_singular_without_regularization(self):
        rng = np.random.default_rng(5)
        # 3 points cannot determine 4 bilinear control points
        points = rng.normal(size=(3, 3))
        with pytest.raises(RankDeficiencyError):
            solve_control_points(points, np.ones(3), [0.1, 0.5, 0.9], [0.2, 0.4, 0.8],
                                 1, 1, lam=0.0)

    def test_tiny_pivot_without_regularization(self):
        # v spans 2e-8, so the v direction passes Cholesky with a tiny pivot
        rng = np.random.default_rng(5)
        u = np.linspace(0.0, 1.0, 20)
        v = 0.5 + 1e-9 * np.arange(20)
        with pytest.raises(RankDeficiencyError, match="numerically singular at lam=0"):
            solve_control_points(rng.normal(size=(20, 3)), np.ones(20), u, v, 1, 1, lam=0.0)

    def test_optimality_residual(self):
        rng = np.random.default_rng(6)
        n = 40
        points = rng.normal(size=(n, 3))
        weights = rng.uniform(0.5, 2.0, n)
        u = rng.uniform(0, 1, n)
        v = rng.uniform(0, 1, n)
        lam = 1e-3
        fitted = solve_control_points(points, weights, u, v, 2, 2, lam)
        b = design_matrix(u, v, 2, 2)
        grad = (b * weights**2) @ (b.T @ fitted.flat - points) + lam * fitted.flat
        scale = max(1.0, np.abs(points).max())
        assert np.abs(grad).max() <= 1e-8 * scale

    def test_objective_never_increases(self):
        rng = np.random.default_rng(7)
        for lam in (0.0, 1e-3, 1.0):
            n = 30
            points = rng.normal(size=(n, 3))
            weights = rng.uniform(0.5, 2.0, n)
            u = rng.uniform(0, 1, n)
            v = rng.uniform(0, 1, n)
            old = BezierSurface(rng.normal(size=(3, 3, 3)))
            new = solve_control_points(points, weights, u, v, 2, 2, lam)
            f_old = weighted_objective(points, weights, old, u, v) + 0.5 * lam * np.sum(old.flat**2)
            f_new = weighted_objective(points, weights, new, u, v) + 0.5 * lam * np.sum(new.flat**2)
            assert f_new <= f_old

    @pytest.mark.parametrize("lam", [1e-3, 0.0])
    def test_overflowing_system_rejected(self, lam):
        # w^2 = 1e400 overflows the normal equations to inf; the solve rejects
        # them without a RuntimeWarning, which the test config makes an error
        rng = np.random.default_rng(8)
        truth = BezierSurface(rng.normal(size=(2, 2, 3)))
        points, u, v = synth_points(rng, truth, 20)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_control_points(points, np.full(20, 1e200), u, v, 1, 1, lam=lam)

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_negative_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="^lam must be finite and nonnegative$"):
            solve_control_points(np.zeros((4, 3)), np.ones(4), [0, 0.3, 0.6, 1],
                                 [0, 0.3, 0.6, 1], 1, 1, lam=lam)


def blocked_gram_oracle(points, weights, b):
    """Oracle for ``_gram``: the Gram matrix and right-hand side summed left to
    right over blocks of floor(2^18 / m^2) points, m = len(b), one product
    per block, so that OpenBLAS runs each product on one thread."""
    step = max(1, 2**18 // len(b) ** 2)
    bw = b * weights**2
    gram, rhs = bw[:, :step] @ b[:, :step].T, bw[:, :step] @ points[:step]
    for start in range(step, b.shape[1], step):
        gram = gram + bw[:, start:start + step] @ b[:, start:start + step].T
        rhs = rhs + bw[:, start:start + step] @ points[start:start + step]
    return gram, rhs


# Prints a digest of _gram's bytes on seeded designs: one at 5 000 points,
# where an unblocked Gram moved with the thread count, and one at 12 345
# points, where an unblocked right-hand side did.
GRAM_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from patchfit.bezier import design_matrix
from patchfit.control import _gram
digest = hashlib.sha256()
for n in (5000, 12345):
    rng = np.random.default_rng(n)
    u, v = rng.uniform(-0.2, 1.2, n), rng.uniform(-0.2, 1.2, n)
    points, weights = rng.normal(size=(n, 3)), rng.uniform(0.5, 2.0, n)
    for part in _gram(points, weights, design_matrix(u, v, 6, 6)):
        digest.update(part.tobytes())
print(digest.hexdigest())
"""


def available_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


class TestGramSummation:
    @pytest.mark.parametrize("orders", [(1, 1), (3, 3), (6, 6)])
    @pytest.mark.parametrize("size", ["one", "step-1", "step", "step+1", "5000"])
    def test_equals_left_to_right_block_sum_bytewise(self, orders, size):
        m = (orders[0] + 1) * (orders[1] + 1)
        step = 2**18 // m**2
        n = {"one": 1, "step-1": step - 1, "step": step, "step+1": step + 1, "5000": 5000}[size]
        rng = np.random.default_rng(n)
        u, v = rng.uniform(-0.2, 1.2, n), rng.uniform(-0.2, 1.2, n)
        points, weights = rng.normal(size=(n, 3)), rng.uniform(0.5, 2.0, n)
        b = design_matrix(u, v, *orders)
        for got, want in zip(_gram(points, weights, b), blocked_gram_oracle(points, weights, b),
                             strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.skipif(available_cpus() < 2,
                        reason="two BLAS threads need two CPUs; with one, OpenBLAS runs one thread")
    def test_same_bytes_at_one_and_two_blas_threads(self):
        src = str(Path(patchfit.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", GRAM_DIGEST_SCRIPT], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1]


class TestTranslateSurface:
    def test_zero_offset(self):
        rng = np.random.default_rng(8)
        surface = BezierSurface(rng.normal(size=(2, 2, 3)))
        moved = translate_surface(surface, np.zeros(3))
        npt.assert_array_equal(moved.control, surface.control)

    def test_evaluation_commutes(self):
        rng = np.random.default_rng(9)
        surface = BezierSurface(rng.normal(size=(3, 2, 3)))
        offset = np.array([1.0, 0.0, 0.0])
        moved = translate_surface(surface, offset)
        for _ in range(10):
            u, v = rng.uniform(-0.3, 1.3, 2)
            npt.assert_allclose(
                surface_eval(u, v, moved), surface_eval(u, v, surface) + offset, rtol=1e-12
            )

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        surface = BezierSurface(rng.normal(size=(4, 3, 3)))
        offset = rng.normal(size=3) * 7
        back = translate_surface(translate_surface(surface, offset), -offset)
        npt.assert_allclose(back.control, surface.control, rtol=0, atol=1e-13)
