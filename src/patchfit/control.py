"""Closed-form control-point updates.

For fixed location parameters the weighted fitting objective is linear least
squares in the flattened control matrix; a Tikhonov term keeps the system
well posed when the design is poorly scaled. The regularizer penalizes
distance from the origin, so clouds should be centered before solving and
the surface translated back afterwards.

The Gram matrix B W^2 B^T and the right-hand side B W^2 X are summed over
blocks of floor(2^18 / m^2) points, m control points, one product per block,
added left to right: OpenBLAS runs a product of at most 2^18 multiply-adds
on one thread, so no BLAS thread count changes the order of a sum. Unblocked,
both moved in their last bits between 1 and 2 threads, and fixed 256-point
blocks still did at orders (6, 6). The other products of a fit, ``b.T @ flat``,
``K G K^T``, ``K @ rhs``, the Cholesky factorization and its triangular
solves, read the same bytes at 1 and 2 threads unblocked, at top orders up
to (8, 8) and 300 to 30 000 points (OpenBLAS 0.3.31, 2-core Xeon).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .bezier import BezierSurface, _dot3, design_matrix
from .errors import RankDeficiencyError

DEFAULT_LAMBDA = 1e-3
_ONE_THREAD_MADDS = 1 << 18  # 65 536 x the default GEMM_MULTITHREAD_THRESHOLD, 4


def _residual_sum(points, weights, b, flat: np.ndarray) -> float:
    """Weighted sum of squared residuals against the samples ``b.T @ flat``."""
    residual = points - b.T @ flat
    return float(np.sum(weights**2 * _dot3(residual, residual)))


def _ridge_penalty(surface: BezierSurface, lam: float) -> float:
    return 0.5 * lam * float(np.sum(surface.flat**2))


def weighted_objective(
    points: np.ndarray,
    weights: np.ndarray,
    surface: BezierSurface,
    u: np.ndarray,
    v: np.ndarray,
) -> float:
    """Half the weighted sum of squared point-to-surface-sample distances."""
    b = design_matrix(u, v, surface.n_u, surface.n_v)
    return 0.5 * _residual_sum(points, weights, b, surface.flat)


def solve_control_points(
    points: np.ndarray,
    weights: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    n_u: int,
    n_v: int,
    lam: float = DEFAULT_LAMBDA,
) -> BezierSurface:
    """Minimize the (optionally ridge-regularized) weighted objective over A.

    Solves (B W^2 B^T + lam I) A_flat = B W^2 X for the flattened control
    matrix via a single symmetric positive definite factorization shared by
    the three coordinate columns.

    Raises:
        RankDeficiencyError: the system is singular and ``lam`` is 0.
    """
    return _solve_gram(*_gram(points, weights, design_matrix(u, v, n_u, n_v)), n_u, n_v, lam)


def _gram(points, weights, b) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix B W^2 B^T and right-hand side B W^2 X of the design ``b``, summed
    by blocks (module docstring); entries that overflow are left for ``_solve_gram``."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    step = max(1, _ONE_THREAD_MADDS // len(b) ** 2)
    blocks = [slice(start, start + step) for start in range(0, b.shape[1], step)]
    with np.errstate(over="ignore", invalid="ignore"):
        bw = b * weights**2
        return (reduce(np.add, (bw[:, k] @ b[:, k].T for k in blocks)),
                reduce(np.add, (bw[:, k] @ points[k] for k in blocks)))


def _solve_gram(gram, rhs, n_u: int, n_v: int, lam: float) -> BezierSurface:
    """Solve (gram + lam I) A_flat = rhs for the control points of orders (n_u, n_v).

    ``gram`` is left unchanged. Raises ValueError for a negative ``lam`` or
    non-finite entries, and RankDeficiencyError as ``solve_control_points``.
    """
    if lam < 0:
        raise ValueError(f"regularization strength must be nonnegative, got {lam}")
    gram = gram.copy()
    gram.reshape(-1)[::len(gram) + 1] += lam  # the copy's diagonal, as a strided view
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    try:
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(
            "control-point system is singular; increase the regularization "
            "strength or supply more points"
        ) from exc
    if lam == 0.0:
        # rank deficiency can slip through the factorization as a tiny pivot
        pivots = np.abs(np.diag(factor))
        if pivots.min() <= 1e-7 * pivots.max():
            raise RankDeficiencyError(
                "control-point system is numerically singular at lam=0; "
                "increase the regularization strength or supply more points"
            )
    # Fortran order keeps from_flat's reshape, and the surface's ``flat``, contiguous views.
    flat = np.asfortranarray(np.linalg.solve(factor.T, np.linalg.solve(factor, rhs)))
    return BezierSurface.from_flat(flat, n_u, n_v)


def translate_surface(surface: BezierSurface, offset: np.ndarray) -> BezierSurface:
    """Shift every control point by ``offset``; evaluation commutes with it."""
    offset = np.asarray(offset, dtype=np.float64).reshape(3)
    return BezierSurface(surface.control + offset)
