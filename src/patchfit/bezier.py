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
``g_eval`` are one-row calls of the same code. Contractions use einsum,
whose per-lane results do not depend on which other lanes share the batch,
so evaluating a batch is bit-identical to evaluating its lanes one by one
(this is asserted in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _pascal_row(n: int) -> np.ndarray:
    """Binomial coefficients C(n, 0..n) built by Pascal addition (exact)."""
    row = np.ones(1)
    for _ in range(n):
        nxt = np.empty(row.size + 1)
        nxt[0] = 1.0
        nxt[-1] = 1.0
        nxt[1:-1] = row[:-1] + row[1:]
        row = nxt
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

    Exact at u in {0, 1}. Raises ValueError when i is outside [0, n].
    """
    i = int(i)
    n = int(n)
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    if i < 0 or i > n:
        raise ValueError(f"basis index {i} outside [0, {n}]")
    return float(_basis_rows(np.array([float(u)]), n)[0, i])


def basis_vector(u: float, n: int, deriv: int = 0) -> np.ndarray:
    """All n+1 Bernstein basis values at u, or their elementwise derivatives.

    Args:
        u: Parameter value (any real).
        n: Polynomial order, at least 1.
        deriv: 0 for values, 1 or 2 for first/second derivatives in u.

    Returns:
        Array of length n+1.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    if deriv not in (0, 1, 2):
        raise ValueError(f"derivative level must be 0, 1 or 2, got {deriv}")
    return _basis_rows_derivs(np.array([float(u)]), n)[deriv][0]


def _batch_power_tables(values: np.ndarray, n: int, pad: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Rows pu[k] = (0,)*pad + values[k]**(0..n) and qrev[k] = (1-values[k])**(n..0) + (0,)*pad,
    stored by column, so that every column slice of a table is contiguous."""
    pu = np.zeros((values.size, pad + n + 1), order="F")
    qu = np.zeros((values.size, pad + n + 1), order="F")
    pu[:, pad] = 1.0
    qu[:, pad] = 1.0
    w = 1.0 - values
    for k in range(pad + 1, pad + n + 1):
        pu[:, k] = pu[:, k - 1] * values
        qu[:, k] = qu[:, k - 1] * w
    return pu, qu[:, ::-1]


def _basis_rows(values: np.ndarray, n: int) -> np.ndarray:
    """Basis values for a batch of parameters: C-ordered rows of shape (len, n+1)."""
    pu, qrev = _batch_power_tables(values, n)
    return np.ascontiguousarray(_pascal_row(n) * pu * qrev)


def _basis_rows_derivs(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched basis rows with first and second derivative rows.

    All three are C-ordered and the value rows equal ``_basis_rows(values, n)``
    bit for bit; the derivatives use the same power tables, padded and shifted.
    """
    p, q = _batch_power_tables(values, n, pad=2)
    pu, pum1, pum2 = p[:, 2:], p[:, 1:-1], p[:, :-2]
    qrev, qrevm1, qrevm2 = q[:, :-2], q[:, 1:-1], q[:, 2:]
    i, j, cii, cij, cjj = _deriv_factors(n)
    c = _pascal_row(n)
    b0 = c * pu * qrev
    b1 = c * (i * pum1 * qrev - j * pu * qrevm1)
    b2 = c * (cii * pum2 * qrev - cij * pum1 * qrevm1 + cjj * pu * qrevm2)
    return np.ascontiguousarray(b0), np.ascontiguousarray(b1), np.ascontiguousarray(b2)


def _surface_derivs(u, v, control):
    """Batched s, s_u, s_v, s_uu, s_vv, s_uv, each of shape (len, 3)."""
    bu0, bu1, bu2 = _basis_rows_derivs(u, control.shape[0] - 1)
    bv0, bv1, bv2 = _basis_rows_derivs(v, control.shape[1] - 1)
    t0 = np.einsum("mi,ijk->mjk", bu0, control)
    t1 = np.einsum("mi,ijk->mjk", bu1, control)
    t2 = np.einsum("mi,ijk->mjk", bu2, control)
    s = np.einsum("mj,mjk->mk", bv0, t0)
    su = np.einsum("mj,mjk->mk", bv0, t1)
    sv = np.einsum("mj,mjk->mk", bv1, t0)
    suu = np.einsum("mj,mjk->mk", bv0, t2)
    svv = np.einsum("mj,mjk->mk", bv2, t0)
    suv = np.einsum("mj,mjk->mk", bv1, t1)
    return s, su, sv, suu, svv, suv


def _values_grads_hessians(points, u, v, control):
    """Batched objective values with gradients and Hessian entries."""
    s, su, sv, suu, svv, suv = _surface_derivs(u, v, control)
    r = points - s
    value = 0.5 * (r * r).sum(axis=1)
    grad_u = -(su * r).sum(axis=1)
    grad_v = -(sv * r).sum(axis=1)
    h11 = (su * su).sum(axis=1) - (suu * r).sum(axis=1)
    h12 = (su * sv).sum(axis=1) - (suv * r).sum(axis=1)
    h22 = (sv * sv).sum(axis=1) - (svv * r).sum(axis=1)
    return value, grad_u, grad_v, h11, h12, h22


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
        flat = np.asarray(flat, dtype=np.float64)
        expected = (n_u + 1) * (n_v + 1)
        if flat.shape != (expected, 3):
            raise ValueError(f"flat control must have shape ({expected}, 3), got {flat.shape}")
        return cls(flat.reshape(n_u + 1, n_v + 1, 3, order="F"))


def _one(value: float) -> np.ndarray:
    return np.array([float(value)])


def surface_eval(u: float, v: float, surface: BezierSurface) -> np.ndarray:
    """Point on the surface at (u, v), shape (3,)."""
    return _surface_derivs(_one(u), _one(v), surface.control)[0][0]


def design_matrix(u: np.ndarray, v: np.ndarray, n_u: int, n_v: int) -> np.ndarray:
    """Stack per-point basis Kronecker products as columns.

    Column i equals ``kron(b(v_i; n_v), b(u_i; n_u))``, so for a surface S with
    matching orders, ``S.flat.T @ B[:, i] == surface_eval(u_i, v_i, S)``.

    Args:
        u, v: Parameter vectors of equal length n_x >= 1.
        n_u, n_v: Surface orders, at least 1.

    Returns:
        Matrix of shape ((n_u+1)(n_v+1), n_x).
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"u and v must be 1D vectors of equal length, got {u.shape} and {v.shape}")
    if u.size < 1:
        raise ValueError("need at least one parameter pair")
    rows_u = _basis_rows(u, int(n_u))
    rows_v = _basis_rows(v, int(n_v))
    outer = rows_v[:, :, None] * rows_u[:, None, :]
    return outer.reshape(u.size, -1).T


def g_value(x: np.ndarray, u: float, v: float, surface: BezierSurface) -> float:
    """Half squared distance between x and the surface point at (u, v)."""
    point = np.asarray(x, dtype=np.float64).reshape(1, 3)
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
    point = np.asarray(x, dtype=np.float64).reshape(1, 3)
    value, g_u, g_v, h11, h12, h22 = (
        a[0] for a in _values_grads_hessians(point, _one(u), _one(v), surface.control)
    )
    return float(value), np.array([g_u, g_v]), np.array([[h11, h12], [h12, h22]])
