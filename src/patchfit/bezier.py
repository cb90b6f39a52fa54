"""Bernstein bases and Bezier surface evaluation with analytic derivatives.

A patch is the tensor-product polynomial

    s(u, v) = sum_ij b(u; i, n_u) * b(v; j, n_v) * A[i, j, :]

with control tensor ``A`` of shape ``(n_u+1, n_v+1, 3)``. Parameters are
unconstrained reals: the basis is evaluated as a polynomial everywhere and is
never clamped to [0, 1].

Flattening convention: ``A`` reshapes to ``((n_u+1)(n_v+1), 3)`` with the
u index fastest (Fortran order over the first two axes), so that

    s(u, v) = A_flat^T (b(v) kron b(u)).

Every module in the package relies on this ordering.

All evaluation runs through one batched kernel: ``_basis_rows`` and
``_basis_rows_derivs`` build basis rows for a vector of parameters,
``_surface_derivs`` contracts them with the control tensor into surface
points and their derivatives, and ``_values_grads_hessians`` turns those
into the half squared point-to-surface distance with its gradient and
Hessian. ``bernstein``, ``basis_vector``, ``surface_eval``, ``g_value`` and
``g_eval`` are one-row calls of the same code, so evaluating a batch is
bit-identical to evaluating its lanes one by one (this is asserted in the
test suite).

Every basis table is points-last: (n+1, len) C-ordered rows with the
points along each row, as ``_batch_power_tables`` writes them, and
``design_matrix`` is the C-ordered product of the value rows. The kernel's
points are a (3, len) block of coordinate rows. ``einsum("im,ijk->jkm")``
and then ``einsum("jm,jkm->km")`` contract the basis and derivative rows,
against a C-ordered copy of the control tensor, into one (6, 3, len) stack.
Two conditions, each measured, fix the bits: against the C-ordered copy
every sum runs left to right onto +0.0, equal to a plain broadcast sum, at
every lane count checked (1 to 300 and nine counts up to 5 000), whereas
against the F-ordered tensor of ``from_flat`` one-lane results differed
from the batch's at orders of 2 or more; and the nine dot products are
summed over the coordinate rows left to right onto +0.0 (``_dot3`` on a
transposed view), as ``(x * y).sum(axis=1)`` sums them. Against
points-first tables this layout made the kernel 1.4-2.2x faster at 200 to
5 000 lanes (one CPU of a 2-core Xeon, NumPy 2.4.6). The order in which
the Gram product sums the design matrix is set by ``control._gram``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import _integer


@lru_cache(maxsize=None)
def _binomial_row(n: int) -> np.ndarray:
    """Binomial coefficients C(n, 0..n), each the float nearest the integer.

    Raises ValueError when one overflows a float, from order 1030 on.
    """
    try:
        row = np.array([float(math.comb(n, i)) for i in range(n + 1)])
    except OverflowError:
        raise ValueError(f"order {n} has binomial coefficients beyond the float range") from None
    row.flags.writeable = False
    return row


@lru_cache(maxsize=None)
def _deriv_factors(n: int) -> tuple[np.ndarray, ...]:
    i = np.arange(n + 1, dtype=np.float64)
    j = n - i
    factors = (i, j, i * (i - 1.0), 2.0 * i * j, j * (j - 1.0))
    for f in factors:
        f.flags.writeable = False
    return factors


def bernstein(u: float, i: int, n: int) -> float:
    """Evaluate the degree-n Bernstein polynomial C(n,i) u^i (1-u)^(n-i).

    Exact at u in {0, 1}. Raises ValueError unless n is an integer of at
    least 0 and i one in 0..n.
    """
    n = _integer("order", n, 0)
    i = _integer("basis index", i, 0, n)
    return float(_basis_rows(np.array([float(u)]), n)[i, 0])


def basis_vector(u: float, n: int, deriv: int = 0) -> np.ndarray:
    """All n+1 Bernstein basis values at u, or their elementwise derivatives.

    Args:
        u: Parameter value (any real).
        n: Polynomial order, an integer of at least 1.
        deriv: 0 for values, 1 or 2 for first/second derivatives in u.

    Returns:
        Array of length n+1.
    """
    n = _integer("order", n, 1)
    deriv = _integer("derivative level", deriv, 0, 2)
    return _basis_rows_derivs(np.array([float(u)]), n)[deriv][:, 0]


def _batch_power_tables(values: np.ndarray, n: int, pad: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Rows pu[k] = values**(k - pad), k >= pad, and qrev[k] = (1 - values)**(n - k), k <= n,
    of shape (pad+n+1, len), zero elsewhere; the points run along each contiguous row."""
    pu = np.zeros((pad + n + 1, values.size))
    qu = np.zeros((pad + n + 1, values.size))
    pu[pad] = 1.0
    qu[pad] = 1.0
    w = 1.0 - values
    for k in range(pad + 1, pad + n + 1):
        pu[k] = pu[k - 1] * values
        qu[k] = qu[k - 1] * w
    return pu, qu[::-1]


def _basis_rows(values: np.ndarray, n: int) -> np.ndarray:
    """Basis values for a batch of parameters: C-ordered rows of shape (n+1, len)."""
    pu, qrev = _batch_power_tables(values, n)
    return _binomial_row(n)[:, None] * pu * qrev


def _basis_rows_derivs(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched basis rows with first and second derivative rows, each of shape
    (n+1, len) with the points along its C-ordered rows.

    The value rows equal ``_basis_rows(values, n)`` bit for bit; all three
    are taken from the power tables, padded and shifted.
    """
    p, q = _batch_power_tables(values, n, pad=2)
    pu, pum1, pum2 = p[2:], p[1:-1], p[:-2]
    qrev, qrevm1, qrevm2 = q[:-2], q[1:-1], q[2:]
    i, j, cii, cij, cjj = (f[:, None] for f in _deriv_factors(n))
    c = _binomial_row(n)[:, None]
    b0 = c * pu * qrev
    b1 = c * (i * pum1 * qrev - j * pu * qrevm1)
    b2 = c * (cii * pum2 * qrev - cij * pum1 * qrevm1 + cjj * pu * qrevm2)
    return b0, b1, b2


def _surface_derivs(u, v, control):
    """Batched s, s_u, s_v, s_uu, s_vv, s_uv, stacked in one (6, 3, len) array."""
    # Only against a C-ordered tensor does each lane's sum run left to right
    # at any lane count (see the module docstring).
    control = np.ascontiguousarray(control)
    bu0, bu1, bu2 = _basis_rows_derivs(u, control.shape[0] - 1)
    bv0, bv1, bv2 = _basis_rows_derivs(v, control.shape[1] - 1)
    t0 = np.einsum("im,ijk->jkm", bu0, control)
    t1 = np.einsum("im,ijk->jkm", bu1, control)
    t2 = np.einsum("im,ijk->jkm", bu2, control)
    derivs = np.empty((6, 3, len(u)))
    for out, bv, t in zip(derivs, (bv0, bv0, bv1, bv0, bv2, bv1), (t0, t1, t0, t2, t0, t1)):
        np.einsum("jm,jkm->km", bv, t, out=out)
    return derivs


def _dot3(x, y):
    """Dot products along the last axis, of length 3, of two broadcast arrays;
    bit for bit ``(x * y).sum(axis=-1)`` but with the points as the long axis:
    the products are summed left to right onto +0.0, so three -0.0 products
    sum to +0.0, as in numpy's sum."""
    total = x[..., 0] * y[..., 0]
    total += 0.0
    total += x[..., 1] * y[..., 1]
    total += x[..., 2] * y[..., 2]
    return total


def _values_grads_hessians(points, u, v, control):
    """Batched objective values with gradients and Hessian entries, for points
    given as the (3, len) block of their coordinate rows."""
    derivs = _surface_derivs(u, v, control)
    np.subtract(points, derivs[0], out=derivs[0])  # the residual r = x - s
    rows = derivs.swapaxes(1, 2)  # a (6, len, 3) view: each coordinate is a contiguous row
    with_r = _dot3(rows, rows[0])  # r.r, s_u.r, s_v.r, s_uu.r, s_vv.r, s_uv.r
    jac = rows[1:3]
    gram = _dot3(jac[:, None], jac)  # s_a.s_b for a, b in (u, v)
    return (0.5 * with_r[0], -with_r[1], -with_r[2], gram[0, 0] - with_r[3],
            gram[0, 1] - with_r[5], gram[1, 1] - with_r[4])


@dataclass(frozen=True)
class BezierSurface:
    """Tensor-product patch defined by an (n_u+1, n_v+1, 3) control tensor."""

    control: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.control, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"control tensor must have shape (n_u+1, n_v+1, 3), got {arr.shape}")
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ValueError("surface orders must be at least 1 in each direction")
        if not np.isfinite(arr).all():
            raise ValueError("control points must be finite")
        object.__setattr__(self, "control", arr)

    @property
    def n_u(self) -> int:
        return self.control.shape[0] - 1

    @property
    def n_v(self) -> int:
        return self.control.shape[1] - 1

    @property
    def size(self) -> int:
        """Number of control points, (n_u+1)(n_v+1)."""
        return self.control.shape[0] * self.control.shape[1]

    @property
    def flat(self) -> np.ndarray:
        """Control tensor as ((n_u+1)(n_v+1), 3), u index fastest."""
        return self.control.reshape(-1, 3, order="F")

    @classmethod
    def from_flat(cls, flat: np.ndarray, n_u: int, n_v: int) -> "BezierSurface":
        """The patch of orders (n_u, n_v), integers of at least 1, whose ``flat`` is ``flat``."""
        n_u, n_v = _integer("n_u", n_u, 1), _integer("n_v", n_v, 1)
        flat = np.asarray(flat, dtype=np.float64)
        expected = (n_u + 1) * (n_v + 1)
        if flat.shape != (expected, 3):
            raise ValueError(f"flat control must have shape ({expected}, 3), got {flat.shape}")
        return cls(flat.reshape(n_u + 1, n_v + 1, 3, order="F"))


def _one(value: float) -> np.ndarray:
    return np.array([float(value)])


def surface_eval(u: float, v: float, surface: BezierSurface) -> np.ndarray:
    """Point on the surface at (u, v), shape (3,)."""
    return _surface_derivs(_one(u), _one(v), surface.control)[0][:, 0]


def design_matrix(u: np.ndarray, v: np.ndarray, n_u: int, n_v: int) -> np.ndarray:
    """Stack per-point basis Kronecker products as columns.

    Column i equals ``kron(b(v_i; n_v), b(u_i; n_u))``, so for a surface S with
    matching orders, ``S.flat.T @ B[:, i] == surface_eval(u_i, v_i, S)``.

    Args:
        u, v: Parameter vectors of equal length n_x >= 1.
        n_u, n_v: Surface orders, integers of at least 1.

    Returns:
        C-ordered matrix of shape ((n_u+1)(n_v+1), n_x), the points along each row.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"u and v must be 1D vectors of equal length, got {u.shape} and {v.shape}")
    if u.size < 1:
        raise ValueError("need at least one parameter pair")
    n_u, n_v = _integer("n_u", n_u, 1), _integer("n_v", n_v, 1)
    rows_u, rows_v = _basis_rows(u, n_u), _basis_rows(v, n_v)
    return (rows_v[:, None, :] * rows_u[None, :, :]).reshape(-1, u.size)


@lru_cache(maxsize=None)
def _elevation(n_u: int, n_v: int, top_u: int, top_v: int) -> np.ndarray:
    """Read-only K = kron(E_v, E_u), with K @ design_matrix(u, v, top_u, top_v) equal to
    design_matrix(u, v, n_u, n_v) up to rounding, for a top order of n or n + 1 on
    each axis. Degree elevation writes b(t; n) = E b(t; n + 1), with
    E[i, i] = (n+1-i)/(n+1) and E[i, i+1] = (i+1)/(n+1); an axis not elevated takes I."""
    def axis(n: int, top: int) -> np.ndarray:
        if top == n:
            return np.eye(n + 1)
        i = np.arange(n + 1)
        e = np.zeros((n + 1, n + 2))
        e[i, i] = (n + 1 - i) / (n + 1)
        e[i, i + 1] = (i + 1) / (n + 1)
        return e

    k = np.kron(axis(n_v, top_v), axis(n_u, top_u))
    k.flags.writeable = False
    return k


def g_value(x: np.ndarray, u: float, v: float, surface: BezierSurface) -> float:
    """Half squared distance between x and the surface point at (u, v)."""
    point = np.asarray(x, dtype=np.float64).reshape(3, 1)
    return float(_values_grads_hessians(point, _one(u), _one(v), surface.control)[0][0])


def g_eval(
    x: np.ndarray, u: float, v: float, surface: BezierSurface
) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian of the half squared point-to-surface distance.

    The gradient is with respect to (u, v). The Hessian is the Gauss-Newton
    term J J^T minus the curvature corrections from the second basis
    derivatives dotted with the residual; it is symmetric as stored but not
    necessarily positive definite.

    Returns:
        (value, gradient shape (2,), hessian shape (2, 2))
    """
    point = np.asarray(x, dtype=np.float64).reshape(3, 1)
    value, g_u, g_v, h11, h12, h22 = (
        a[0] for a in _values_grads_hessians(point, _one(u), _one(v), surface.control)
    )
    return float(value), np.array([g_u, g_v]), np.array([[h11, h12], [h12, h22]])
