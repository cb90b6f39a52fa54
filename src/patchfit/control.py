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
blocks still did at orders (6, 6). The other products of a fit read the same
bytes at 1 and 2 threads unblocked, at top orders up to (8, 8) and 300 to
30 000 points (OpenBLAS 0.3.31, 2-core Xeon): the order search's stacked
systems ``lift @ G @ lift^T`` and right-hand sides ``lift @ rhs``, the
stacked Cholesky factorization and its pair of stacked solves, the
``(lift^T A)^T`` products and the one (3C x m) @ B product of the residual
sums, with C candidates of m control points.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bezier import BezierSurface, design_matrix
from .errors import RankDeficiencyError, _nonnegative_real

DEFAULT_LAMBDA = 1e-3
_ONE_THREAD_MADDS = 1 << 18  # 65 536 x the default GEMM_MULTITHREAD_THRESHOLD, 4


def _residual_sums(points, weights, b, coeffs: np.ndarray) -> np.ndarray:
    """Weighted sums of squared residuals against the samples ``coeffs @ b``, one
    per (3, m) item of the (..., 3, m) stack ``coeffs``: one (3C x m) @ b product
    gives the (..., 3, n) samples, points last. Each point's squares are summed
    over the coordinates left to right, then weighted and summed over the points."""
    samples = (coeffs.reshape(-1, len(b)) @ b).reshape(coeffs.shape[:-1] + (-1,))
    residual = np.subtract(np.asarray(points).T, samples, out=samples)
    return np.sum(weights**2 * np.square(residual, out=residual).sum(axis=-2), axis=-1)


def _ridge_penalty(flat: np.ndarray, lam: float) -> float:
    return 0.5 * lam * float(np.sum(flat**2))


def weighted_objective(
    points: np.ndarray,
    weights: np.ndarray,
    surface: BezierSurface,
    u: np.ndarray,
    v: np.ndarray,
) -> float:
    """Half the weighted sum of squared point-to-surface-sample distances."""
    b = design_matrix(u, v, surface.n_u, surface.n_v)
    return 0.5 * float(_residual_sums(points, weights, b, surface.flat.T))


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
        ValueError: ``lam`` is not a finite nonnegative real number.
    """
    _nonnegative_real("lam", lam)
    b = design_matrix(u, v, n_u, n_v)
    gram, rhs = _gram(points, weights, b)
    flat, errors = _solve_gram(gram, rhs, lam, b.shape[1], np.zeros(gram.shape))
    if errors[0] is not None:
        raise errors[0]
    # Fortran order keeps from_flat's reshape, and the surface's ``flat``, contiguous views.
    return BezierSurface.from_flat(np.asfortranarray(flat), n_u, n_v)


def _gram(points, weights, b) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix B W^2 B^T and right-hand side B W^2 X of the design ``b``, summed
    by blocks (module docstring); entries that overflow are left for ``_solve_gram``."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    step = max(1, _ONE_THREAD_MADDS // len(b) ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        bw = b * weights**2
        gram, rhs = bw[:, :step] @ b[:, :step].T, bw[:, :step] @ points[:step]
        for start in range(step, b.shape[1], step):
            block = slice(start, start + step)
            gram += bw[:, block] @ b[:, block].T
            rhs += bw[:, block] @ points[block]
    return gram, rhs


@lru_cache(maxsize=None)
def _identity(m: int) -> np.ndarray:
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def _solve_gram(gram, rhs, lam: float, n_x: int, pad) -> tuple[np.ndarray, list]:
    """Solve (gram + pad + lam I) flat = rhs for every system of a stack.

    ``gram`` is a (..., m, m) stack of systems and ``rhs`` the (..., m, 3)
    stack of their right-hand sides, both left unchanged; a single (m, m)
    system is a stack of one. ``pad``, of the shape of ``gram``, is 1 on each
    system's diagonal past its own size and 0 elsewhere, and the pivot test
    skips those entries. One Cholesky factorization and one pair of solves serve
    the whole stack; only when the stacked factorization fails are the
    systems factored one by one, to find the failing ones.

    Returns the (..., m, 3) solutions and, per system in C order, None or the
    RankDeficiencyError that ``solve_control_points`` raises for it; a failed
    system's solution is 0. Raises ValueError for non-finite entries in any
    system; ``lam`` comes checked from the public entry points.
    """
    m = gram.shape[-1]
    systems = gram + (pad + lam * _identity(m))
    if not (np.isfinite(systems).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    errors = [None] * (systems.size // (m * m))
    try:
        factors = np.linalg.cholesky(systems)
    except np.linalg.LinAlgError:
        factors = np.zeros_like(systems)
        for c, (system, factor) in enumerate(zip(systems.reshape(-1, m, m),
                                                 factors.reshape(-1, m, m))):
            try:
                factor[...] = np.linalg.cholesky(system)
            except np.linalg.LinAlgError as exc:
                errors[c] = RankDeficiencyError(
                    "control-point system is singular; increase the regularization "
                    "strength or supply more points")
                errors[c].__cause__ = exc
    if lam == 0.0:
        # rank deficiency can slip through the factorization as a tiny pivot; a
        # system larger than the n_x points summed into it has rank at most n_x
        pivots = np.abs(np.diagonal(factors, axis1=-2, axis2=-1))
        own = np.diagonal(pad, axis1=-2, axis2=-1) == 0
        tiny = (np.where(own, pivots, np.inf).min(axis=-1)
                <= 1e-7 * np.where(own, pivots, 0.0).max(axis=-1))
        for c in np.flatnonzero(tiny | (own.sum(axis=-1) > n_x)):
            errors[c] = errors[c] or RankDeficiencyError(
                "control-point system is numerically singular at lam=0; "
                "increase the regularization strength or supply more points")
    if not any(errors):
        return np.linalg.solve(factors.swapaxes(-1, -2), np.linalg.solve(factors, rhs)), errors
    failed = np.array([error is not None for error in errors]).reshape(gram.shape[:-2])
    factors[failed] = _identity(m)  # solved as the identity, then set to 0
    flats = np.linalg.solve(factors.swapaxes(-1, -2), np.linalg.solve(factors, rhs))
    flats[failed] = 0.0
    return flats, errors


def translate_surface(surface: BezierSurface, offset: np.ndarray) -> BezierSurface:
    """Shift every control point by ``offset``; evaluation commutes with it."""
    offset = np.asarray(offset, dtype=np.float64).reshape(3)
    return BezierSurface(surface.control + offset)
