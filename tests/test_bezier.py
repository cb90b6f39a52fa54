"""Basis evaluation and surface derivative tests against independent oracles."""

import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammaln

from patchfit import (
    BezierSurface,
    basis_vector,
    bernstein,
    design_matrix,
    g_eval,
    g_value,
    surface_eval,
)
from patchfit.bezier import (
    _basis_rows,
    _basis_rows_derivs,
    _surface_derivs,
    _values_grads_hessians,
)


def surface_jacobian(u, v, surface):
    """Rows (ds/du, ds/dv) of the surface map at (u, v), shape (2, 3)."""
    _, su, sv, _, _, _ = _surface_derivs(np.array([u]), np.array([v]), surface.control)
    return np.stack((su[0], sv[0]))


def bernstein_loggamma(u, i, n):
    """Independent oracle: binomial via log-gamma, powers direct."""
    coeff = math.exp(gammaln(n + 1) - gammaln(i + 1) - gammaln(n - i + 1))
    return coeff * u**i * (1 - u) ** (n - i)


def double_sum_eval(u, v, surface):
    """Independent oracle: explicit nested sums per coordinate."""
    out = np.zeros(3)
    for i in range(surface.n_u + 1):
        for j in range(surface.n_v + 1):
            out += (
                bernstein_loggamma(u, i, surface.n_u)
                * bernstein_loggamma(v, j, surface.n_v)
                * surface.control[i, j]
            )
    return out


def random_surface(rng, n_u, n_v, scale=1.0):
    return BezierSurface(scale * rng.normal(size=(n_u + 1, n_v + 1, 3)))


class TestBernstein:
    def test_endpoint_identity(self):
        assert bernstein(0.0, 0, 3) == 1.0
        assert bernstein(1.0, 3, 3) == 1.0
        assert bernstein(0.0, 2, 3) == 0.0

    def test_midpoint_quadratic(self):
        assert bernstein(0.5, 1, 2) == 0.5

    def test_loggamma_oracle(self):
        rng = np.random.default_rng(0)
        assert bernstein(0.3, 2, 5) == pytest.approx(bernstein_loggamma(0.3, 2, 5), rel=1e-12)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            i = int(rng.integers(0, n + 1))
            u = rng.uniform(-1.5, 2.5)
            assert bernstein(u, i, n) == pytest.approx(
                bernstein_loggamma(u, i, n), rel=1e-11, abs=1e-300
            )

    def test_negative_order(self):
        with pytest.raises(ValueError, match=re.escape("order must be nonnegative, got -1")):
            bernstein(0.5, 0, -1)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            bernstein(0.5, -1, 3)
        with pytest.raises(ValueError):
            bernstein(0.5, 4, 3)


class TestBasisVector:
    def test_quadratic_midpoint(self):
        npt.assert_allclose(basis_vector(0.5, 2, 0), [0.25, 0.5, 0.25], rtol=0, atol=0)

    def test_linear_derivative_is_constant(self):
        for u in (-0.7, 0.0, 0.4, 1.3):
            npt.assert_array_equal(basis_vector(u, 1, 1), [-1.0, 1.0])

    def test_first_derivative_finite_differences(self):
        h = 1e-6
        for u in (0.4, -0.2, 1.1):
            fd = (basis_vector(u + h, 4, 0) - basis_vector(u - h, 4, 0)) / (2 * h)
            npt.assert_allclose(basis_vector(u, 4, 1), fd, rtol=1e-6, atol=1e-6)

    def test_second_derivative_finite_differences(self):
        h = 1e-6
        for n in (2, 3, 5):
            fd = (basis_vector(0.37 + h, n, 1) - basis_vector(0.37 - h, n, 1)) / (2 * h)
            npt.assert_allclose(basis_vector(0.37, n, 2), fd, rtol=1e-6, atol=1e-6)

    def test_partition_of_unity_and_derivative_sums(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            u = rng.uniform(-1.0, 2.0)
            assert abs(basis_vector(u, n, 0).sum() - 1.0) <= 1e-12
            assert abs(basis_vector(u, n, 1).sum()) <= 1e-10
            assert abs(basis_vector(u, n, 2).sum()) <= 1e-9

    def test_length_is_order_plus_one(self):
        for deriv in (0, 1, 2):
            assert basis_vector(0.3, 5, deriv).shape == (6,)

    def test_validation(self):
        with pytest.raises(ValueError):
            basis_vector(0.5, 0, 0)
        with pytest.raises(ValueError):
            basis_vector(0.5, 2, 3)


class TestBezierSurface:
    def test_flat_roundtrip_lossless(self):
        rng = np.random.default_rng(2)
        for n_u, n_v in [(1, 1), (2, 3), (5, 2)]:
            surface = random_surface(rng, n_u, n_v)
            back = BezierSurface.from_flat(surface.flat, n_u, n_v)
            npt.assert_array_equal(back.control, surface.control)

    def test_flat_ordering_u_fastest(self):
        control = np.arange(24, dtype=float).reshape(2, 4, 3)
        surface = BezierSurface(control)
        # element (i=1, j=0) must come right after (i=0, j=0)
        npt.assert_array_equal(surface.flat[0], control[0, 0])
        npt.assert_array_equal(surface.flat[1], control[1, 0])
        npt.assert_array_equal(surface.flat[2], control[0, 1])

    def test_from_flat_rejects_wrong_shape(self):
        message = "flat control must have shape (4, 3), got (6, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            BezierSurface.from_flat(np.zeros((6, 3)), 1, 1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BezierSurface(np.zeros((1, 2, 3)))
        with pytest.raises(ValueError):
            BezierSurface(np.zeros((2, 2, 2)))
        bad = np.zeros((2, 2, 3))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            BezierSurface(bad)


class TestSurfaceEval:
    def test_corner_interpolation(self):
        rng = np.random.default_rng(3)
        surface = random_surface(rng, 3, 2)
        npt.assert_allclose(surface_eval(0.0, 0.0, surface), surface.control[0, 0], atol=1e-15)
        npt.assert_allclose(surface_eval(1.0, 1.0, surface), surface.control[-1, -1], atol=1e-15)

    def test_bilinear_midpoint_is_corner_mean(self):
        rng = np.random.default_rng(4)
        surface = random_surface(rng, 1, 1)
        expected = surface.control.reshape(4, 3).mean(axis=0)
        npt.assert_allclose(surface_eval(0.5, 0.5, surface), expected, rtol=1e-15)

    def test_double_sum_oracle(self):
        rng = np.random.default_rng(5)
        surface = random_surface(rng, 2, 2)
        value = surface_eval(0.3, 0.7, surface)
        npt.assert_allclose(value, double_sum_eval(0.3, 0.7, surface), rtol=1e-12)

    def test_kronecker_form_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n_u = int(rng.integers(1, 5))
            n_v = int(rng.integers(1, 5))
            surface = random_surface(rng, n_u, n_v)
            u, v = rng.uniform(-0.5, 1.5, 2)
            kron = np.kron(basis_vector(v, n_v), basis_vector(u, n_u))
            npt.assert_allclose(
                surface.flat.T @ kron, surface_eval(u, v, surface), rtol=0, atol=1e-13
            )


class TestDesignMatrix:
    def test_single_origin_column(self):
        b = design_matrix([0.0], [0.0], 1, 1)
        npt.assert_array_equal(b[:, 0], [1.0, 0.0, 0.0, 0.0])

    def test_columns_are_kronecker_products(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(0, 1, 5)
        v = rng.uniform(0, 1, 5)
        b = design_matrix(u, v, 2, 3)
        for k in range(5):
            expected = np.kron(basis_vector(v[k], 3), basis_vector(u[k], 2))
            npt.assert_array_equal(b[:, k], expected)

    def test_consistency_with_surface_eval(self):
        rng = np.random.default_rng(8)
        surface = random_surface(rng, 2, 3)
        u = rng.uniform(-0.2, 1.2, 40)
        v = rng.uniform(-0.2, 1.2, 40)
        values = design_matrix(u, v, 2, 3).T @ surface.flat
        for k in range(40):
            npt.assert_allclose(values[k], surface_eval(u[k], v[k], surface), rtol=0, atol=1e-12)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            design_matrix([0.1, 0.2], [0.3], 1, 1)

    def test_no_parameter_pairs(self):
        with pytest.raises(ValueError, match="need at least one parameter pair"):
            design_matrix([], [], 1, 1)


def planar_surface(origin, a, b):
    """Order-(1,1) patch that is affine in (u, v): origin + u a + v b."""
    control = np.empty((2, 2, 3))
    control[0, 0] = origin
    control[1, 0] = origin + a
    control[0, 1] = origin + b
    control[1, 1] = origin + a + b
    return BezierSurface(control)


class TestSurfaceJacobian:
    def test_planar_rows_are_direction_vectors(self):
        a = np.array([2.0, 0.0, 0.0])
        b = np.array([0.0, 3.0, 0.0])
        surface = planar_surface(np.array([1.0, 1.0, 5.0]), a, b)
        jac = surface_jacobian(0.3, 0.8, surface)
        npt.assert_allclose(jac[0], a, atol=1e-14)
        npt.assert_allclose(jac[1], b, atol=1e-14)

    def test_constant_surface_zero_jacobian(self):
        surface = BezierSurface(np.tile([1.0, 2.0, 3.0], (3, 3, 1)))
        npt.assert_allclose(surface_jacobian(0.4, 0.6, surface), np.zeros((2, 3)), atol=1e-14)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(20):
            surface = random_surface(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            u, v = rng.uniform(0, 1, 2)
            jac = surface_jacobian(u, v, surface)
            fd_u = (surface_eval(u + h, v, surface) - surface_eval(u - h, v, surface)) / (2 * h)
            fd_v = (surface_eval(u, v + h, surface) - surface_eval(u, v - h, surface)) / (2 * h)
            npt.assert_allclose(jac[0], fd_u, rtol=1e-6, atol=1e-8)
            npt.assert_allclose(jac[1], fd_v, rtol=1e-6, atol=1e-8)


class TestGEval:
    def test_zero_residual(self):
        rng = np.random.default_rng(10)
        surface = random_surface(rng, 2, 2)
        u, v = 0.3, 0.6
        x = surface_eval(u, v, surface)
        value, grad, hess = g_eval(x, u, v, surface)
        assert value == 0.0
        npt.assert_array_equal(grad, [0.0, 0.0])
        jac = surface_jacobian(u, v, surface)
        npt.assert_allclose(hess, jac @ jac.T, rtol=1e-14)

    def test_bilinear_diagonal_curvature_vanishes(self):
        # second basis derivatives vanish at order 1, so the Hessian diagonal
        # equals the Gauss-Newton diagonal even with a residual
        rng = np.random.default_rng(11)
        surface = random_surface(rng, 1, 1)
        x = np.array([5.0, -2.0, 1.0])
        u, v = 0.2, 0.9
        _, _, hess = g_eval(x, u, v, surface)
        jac = surface_jacobian(u, v, surface)
        gauss = jac @ jac.T
        npt.assert_allclose(np.diag(hess), np.diag(gauss), rtol=1e-14)
        assert abs(hess[0, 1] - gauss[0, 1]) > 0

    def test_gradient_and_hessian_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(100):
            surface = random_surface(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            x = rng.normal(size=3) * 2.0
            u, v = rng.uniform(-0.2, 1.2, 2)
            value, grad, hess = g_eval(x, u, v, surface)
            fd_grad = np.array([
                (g_value(x, u + h, v, surface) - g_value(x, u - h, v, surface)) / (2 * h),
                (g_value(x, u, v + h, surface) - g_value(x, u, v - h, surface)) / (2 * h),
            ])
            npt.assert_allclose(grad, fd_grad, rtol=1e-5, atol=1e-7)
            fd_hess = np.empty((2, 2))
            fd_hess[:, 0] = (g_eval(x, u + h, v, surface)[1] - g_eval(x, u - h, v, surface)[1]) / (2 * h)
            fd_hess[:, 1] = (g_eval(x, u, v + h, surface)[1] - g_eval(x, u, v - h, surface)[1]) / (2 * h)
            npt.assert_allclose(hess, fd_hess, rtol=1e-5, atol=1e-6)

    def test_hessian_exactly_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            surface = random_surface(rng, 3, 2)
            _, _, hess = g_eval(rng.normal(size=3), rng.uniform(), rng.uniform(), surface)
            assert hess[0, 1] == hess[1, 0]


@st.composite
def kernel_batches(draw):
    """A control tensor of orders 1-6 with a batch of points and parameters."""
    n_u = draw(st.integers(1, 6))
    n_v = draw(st.integers(1, 6))
    m = draw(st.integers(1, 9))
    coords = st.floats(-10.0, 10.0, allow_nan=False)
    params = st.floats(-0.5, 1.5, allow_nan=False)
    control = draw(arrays(np.float64, (n_u + 1, n_v + 1, 3), elements=coords))
    points = draw(arrays(np.float64, (m, 3), elements=coords))
    u = draw(arrays(np.float64, m, elements=params))
    v = draw(arrays(np.float64, m, elements=params))
    return BezierSurface(control), points, u, v, draw(st.integers(0, m - 1))


class TestOneKernel:
    @settings(max_examples=200, deadline=None)
    @given(kernel_batches())
    def test_scalar_calls_equal_batch_lane_bitwise(self, batch):
        surface, points, u, v, k = batch
        control = surface.control
        npt.assert_array_equal([bernstein(u[k], i, surface.n_u) for i in range(surface.n_u + 1)],
                               _basis_rows(u, surface.n_u)[k])
        values = _basis_rows_derivs(u, surface.n_u)[0]
        assert values.tobytes() == _basis_rows(u, surface.n_u).tobytes()
        npt.assert_array_equal(surface_eval(u[k], v[k], surface),
                               _surface_derivs(u, v, control)[0][k])
        value, g_u, g_v, h11, h12, h22 = _values_grads_hessians(points, u, v, control)
        assert g_value(points[k], u[k], v[k], surface) == value[k]
        g, grad, hess = g_eval(points[k], u[k], v[k], surface)
        assert g == value[k]
        npt.assert_array_equal(grad, [g_u[k], g_v[k]])
        npt.assert_array_equal(hess, [[h11[k], h12[k]], [h12[k], h22[k]]])
