"""Basis evaluation and surface derivative tests against independent oracles."""

import itertools
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
    _binomial_row,
    _dot3,
    _surface_derivs,
    _values_grads_hessians,
)


def surface_jacobian(u, v, surface):
    """Rows (ds/du, ds/dv) of the surface map at (u, v), shape (2, 3)."""
    _, su, sv, _, _, _ = _surface_derivs(np.array([u]), np.array([v]), surface.control)
    return np.stack((su[:, 0], sv[:, 0]))


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
        with pytest.raises(ValueError, match=re.escape("order must be at least 0, got -1")):
            bernstein(0.5, 0, -1)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            bernstein(0.5, -1, 3)
        with pytest.raises(ValueError):
            bernstein(0.5, 4, 3)

    @pytest.mark.parametrize("i, n, message", [
        (1.9, 3.2, "order must be an integer, got 3.2"),
        (1, 3.0, "order must be an integer, got 3.0"),
        (True, 3, "basis index must be an integer, got True"),
        (1, np.float64(3), "order must be an integer, got np.float64(3.0)"),
        ("1", 3, "basis index must be an integer, got '1'"),
    ])
    def test_arguments_that_are_not_integers_raise(self, i, n, message):
        # int() would truncate them: (1.9, 3.2) gave the value of (1, 3)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bernstein(0.5, i, n)

    def test_numpy_integers_are_integers(self):
        assert bernstein(0.3, np.int64(2), np.int32(5)) == bernstein(0.3, 2, 5)


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

    @pytest.mark.parametrize("n", [2.7, 2.0, True, np.float64(2), "2"])
    def test_order_that_is_not_an_integer_raises(self, n):
        # int() would truncate it: 2.7 gave the order-2 basis, True the order-1 one
        with pytest.raises(ValueError, match=re.escape(f"order must be an integer, got {n!r}")):
            basis_vector(0.5, n)

    @pytest.mark.parametrize("deriv", [1.0, True, np.float64(2)])
    def test_derivative_level_that_is_not_an_integer_raises(self, deriv):
        message = f"derivative level must be an integer, got {deriv!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            basis_vector(0.5, 2, deriv)

    def test_numpy_integers_are_integers(self):
        npt.assert_array_equal(basis_vector(0.3, np.int64(4), np.int8(1)), basis_vector(0.3, 4, 1))


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

    @pytest.mark.parametrize("orders, message", [
        ((-1, 1), "n_u must be at least 1, got -1"),
        ((1, -1), "n_v must be at least 1, got -1"),
        ((0, 2), "n_u must be at least 1, got 0"),
        ((3, 0), "n_v must be at least 1, got 0"),
    ])
    def test_orders_below_one_raise(self, orders, message):
        # the docstring requires orders of at least 1, as basis_vector does
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            design_matrix([0.1, 0.2], [0.3, 0.4], *orders)

    @pytest.mark.parametrize("orders, message", [
        ((2.7, 1), "n_u must be an integer, got 2.7"),
        ((1, 2.0), "n_v must be an integer, got 2.0"),
        ((True, 1), "n_u must be an integer, got True"),
        ((1, "2"), "n_v must be an integer, got '2'"),
        ((np.float64(2), 1), "n_u must be an integer, got np.float64(2.0)"),
    ])
    def test_orders_that_are_not_integers_raise(self, orders, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            design_matrix([0.1, 0.2], [0.3, 0.4], *orders)

    def test_numpy_integer_orders_are_integers(self):
        npt.assert_array_equal(design_matrix([0.1, 0.2], [0.3, 0.4], np.int64(2), np.int32(3)),
                               design_matrix([0.1, 0.2], [0.3, 0.4], 2, 3))

    @pytest.mark.parametrize("n", [1, 7, 100, 5000])
    @pytest.mark.parametrize("orders", [(1, 1), (2, 3), (6, 6)])
    def test_equals_row_product_oracle_bytewise_and_c_ordered(self, n, orders):
        # The matrix is C-ordered with the points along its rows, like the
        # kernel's basis rows; the order in which the Gram product sums its
        # entries is fixed by control._gram, not by this layout.
        rng = np.random.default_rng(n)
        u, v = rng.uniform(-0.2, 1.2, n), rng.uniform(-0.2, 1.2, n)
        rows_u, rows_v = _basis_rows(u, orders[0]).T, _basis_rows(v, orders[1]).T
        oracle = (rows_v[:, :, None] * rows_u[:, None, :]).reshape(n, -1).T
        b = design_matrix(u, v, *orders)
        assert b.flags.c_contiguous and b.shape == oracle.shape
        assert b.tobytes() == oracle.tobytes(order="C")


def pascal_row(n):
    """Oracle: binomial coefficients by Pascal addition, exact while they stay
    below 2^53 and correctly rounded one row past that, up to n = 57."""
    row = np.ones(1)
    for _ in range(n):
        row = np.concatenate(([1.0], row[:-1] + row[1:], [1.0]))
    return row


class TestBinomialRow:
    def test_equals_pascal_addition(self):
        for n in range(58):
            row = _binomial_row(n)
            assert row.tobytes() == pascal_row(n).tobytes(), n
            assert not row.flags.writeable

    def test_largest_order_is_finite(self):
        assert np.isfinite(_binomial_row(1029)).all()

    @pytest.mark.parametrize("call", [
        lambda: design_matrix([0.2, 0.4], [0.3, 0.5], 1030, 1),
        lambda: design_matrix([0.2, 0.4], [0.3, 0.5], 1, 1030),
        lambda: bernstein(0.5, 3, 1030),
        lambda: basis_vector(0.5, 1030),
        lambda: basis_vector(0.5, 1030, deriv=2),
    ])
    def test_overflowing_order_raises(self, call):
        with pytest.raises(ValueError, match="order 1030 has binomial coefficients beyond"):
            call()


class TestRowDots:
    @pytest.mark.parametrize("n", [8, 1000, 5000])
    def test_dot3_equals_row_sum_bytewise(self, n):
        # Every row of values from +-0, +-inf, NaNs of both signs and extremes
        # against a shuffled copy, itself and its negation (rows of -0.0
        # products), then random rows: the sum runs left to right onto +0.0,
        # which fixes the sign of a zero and which NaN survives.
        special = [0.0, -0.0, 1.0, -2.5, 1e308, 5e-324, np.inf, -np.inf, np.nan, -np.nan]
        rows = np.array(list(itertools.product(special, repeat=3)))
        rng = np.random.default_rng(n)
        pairs = [(rows, rows[rng.permutation(len(rows))]), (rows, rows), (rows, -rows)]
        pairs.append(tuple(rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-9, 9, (n, 3))
                           for _ in range(2)))
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for x, y in pairs:
                assert _dot3(x, y).tobytes() == (x * y).sum(axis=1).tobytes()


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
                               _basis_rows(u, surface.n_u)[:, k])
        values = _basis_rows_derivs(u, surface.n_u)[0]
        assert values.tobytes() == _basis_rows(u, surface.n_u).tobytes()
        npt.assert_array_equal(surface_eval(u[k], v[k], surface),
                               _surface_derivs(u, v, control)[0][:, k])
        value, g_u, g_v, h11, h12, h22 = _values_grads_hessians(points.T, u, v, control)
        assert g_value(points[k], u[k], v[k], surface) == value[k]
        g, grad, hess = g_eval(points[k], u[k], v[k], surface)
        assert g == value[k]
        npt.assert_array_equal(grad, [g_u[k], g_v[k]])
        npt.assert_array_equal(hess, [[h11[k], h12[k]], [h12[k], h22[k]]])


def broadcast_sum_kernel(points, u, v, control):
    """Oracle for ``_values_grads_hessians`` on the (3, m) block ``points``: each
    contraction a plain broadcast product summed left to right onto +0.0, over
    the u basis, then over the v basis, and each dot product likewise over its
    three coordinate rows. It takes the basis rows from ``_basis_rows_derivs``,
    which the tests above check against bernstein and finite differences."""
    bu = _basis_rows_derivs(u, control.shape[0] - 1)
    bv = _basis_rows_derivs(v, control.shape[1] - 1)

    def left_to_right(terms):
        total = 0.0
        for term in terms:
            total = total + term
        return total

    t0, t1, t2 = (left_to_right(c[..., None] * row for row, c in zip(rows, control))
                  for rows in bu)
    s, su, sv, suu, svv, suv = (
        left_to_right(plane * row for row, plane in zip(rows, t))
        for rows, t in zip((bv[0], bv[0], bv[1], bv[0], bv[2], bv[1]), (t0, t1, t0, t2, t0, t1)))
    r = points - s

    def dot(x, y):
        return left_to_right(a * b for a, b in zip(x, y))

    return (0.5 * dot(r, r), -dot(su, r), -dot(sv, r), dot(su, su) - dot(suu, r),
            dot(su, sv) - dot(suv, r), dot(sv, sv) - dot(svv, r))


class TestPointsLastKernel:
    @pytest.mark.parametrize("m", [1, 2, 7, 100, 5000])
    @pytest.mark.parametrize("orders", [(1, 1), (2, 3), (6, 6)])
    def test_equals_broadcast_sum_oracle_and_one_lane_calls_bytewise(self, m, orders):
        # The control tensor of a fit, as from_flat builds it from an F-ordered
        # solve: the kernel's sums are those of the oracle only because it
        # contracts against a C-ordered copy; against this tensor itself the
        # lanes' last bits would depend on how many lanes share the batch.
        rng = np.random.default_rng(m)
        size = (orders[0] + 1) * (orders[1] + 1)
        control = BezierSurface.from_flat(np.asfortranarray(rng.normal(size=(size, 3))),
                                          *orders).control
        assert not control.flags.c_contiguous
        points = rng.normal(size=(3, m))
        u, v = rng.uniform(-0.2, 1.2, m), rng.uniform(-0.2, 1.2, m)
        batch = _values_grads_hessians(points, u, v, control)
        oracle = broadcast_sum_kernel(points, u, v, control)
        for got, want in zip(batch, oracle, strict=True):
            assert got.shape == (m,) and got.tobytes() == want.tobytes()
        for k in np.unique(rng.integers(0, m, 8)):
            lane = _values_grads_hessians(points[:, k:k + 1], u[k:k + 1], v[k:k + 1], control)
            assert np.stack(lane)[:, 0].tobytes() == np.stack(batch)[:, k].tobytes()
