"""Alternating surface fitting with online order selection.

The loop interleaves two blocks: per-point foot-point updates on the current
surface, and a closed-form control-point refit that may also grow the surface
order. Location parameters are initialized by projecting the cloud onto its
top two principal directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from .control import DEFAULT_LAMBDA, _ridge_penalty, translate_surface
from .control import solve_control_points  # noqa: F401  kept bound for perfbench's tracer test
from .errors import DegenerateGeometryError
from .projection import project_all
from .selection import FitModel, _search_orders, weight_scale
from .voxel import PointCloud

_DEGENERATE_RATIO = 1e-10


@dataclass
class FitSettings:
    """Settings of ``fit_surface``; ``lam`` is the ridge strength per unit of
    mean(w^2), so it acts the same at any overall scale of the weights."""

    max_outer_iters: int = 10
    rel_sigma2_tol: float = 1e-6
    lam: float = DEFAULT_LAMBDA
    order_cap: tuple[int, int] = (6, 6)
    fixed_orders: tuple[int, int] | None = None

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if self.order_cap[0] < 1 or self.order_cap[1] < 1:
            raise ValueError("order caps must be at least 1")
        if self.fixed_orders is not None and min(self.fixed_orders) < 1:
            raise ValueError("fixed_orders must be at least 1")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and nonnegative")
        if not (math.isfinite(self.rel_sigma2_tol) and self.rel_sigma2_tol >= 0):
            raise ValueError("rel_sigma2_tol must be finite and nonnegative")


@dataclass
class FitIteration:
    """One record per outer iteration; iteration 0 is the initial fit.

    ``f`` is the weighted objective of the iteration's final model. The
    f_* pairs instrument the two descent blocks: the projection pair uses the
    projector's own objective values, the solve pair compares the regularized
    objective of the previous surface (``f_after_projection`` plus its ridge
    penalty) against a refit at unchanged orders.
    """

    iteration: int
    n_u: int
    n_v: int
    sigma2: float
    t: float
    f: float
    f_before_projection: float
    f_after_projection: float
    f_reg_before_solve: float
    f_reg_after_solve: float
    projection_failures: int
    seconds: float


FitTrace = list[FitIteration]


def init_uv(cloud: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """Initial location parameters from the top two principal directions.

    Each coordinate is affinely rescaled to span [0, 1], where the basis is
    best conditioned. Both principal directions are sign-fixed (largest
    magnitude component positive) so the result is deterministic.

    Raises:
        DegenerateGeometryError: second singular value is negligible, so the
            cloud has no usable 2D extent.
    """
    if cloud.n_x < 3:
        raise ValueError(f"need at least 3 points to initialize, got {cloud.n_x}")
    centered = cloud.points - cloud.points.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals[1] <= _DEGENERATE_RATIO * svals[0]:
        raise DegenerateGeometryError(
            "points are collinear or nearly collinear; cannot spread them over a patch"
        )
    basis = vt[:2].copy()
    for row in basis:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    coords = centered @ basis.T
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    coords = (coords - lo) / (hi - lo)
    return coords[:, 0].copy(), coords[:, 1].copy()


def fit_surface(
    cloud: PointCloud, settings: FitSettings | None = None
) -> tuple[FitModel, FitTrace]:
    """Fit a surface to a point cloud, selecting the order on the fly.

    The cloud is centered, location parameters are initialized from the
    principal directions, and the surface starts bilinear. Each outer
    iteration updates the foot points, then refits the control points while
    allowing the order to grow by one per direction. Iteration stops at
    ``max_outer_iters`` or when the relative change of the noise variance
    estimate drops below ``rel_sigma2_tol``. The returned surface is
    translated back to the original frame.

    The ridge strength and the ranking floor scale with mean(w^2), so
    multiplying every weight by c changes only sigma2, by c^2. This holds
    while sigma2 * c^2 does not underflow: at weights near 1e-160, sigma2
    underflows to 0.

    Raises ValueError, before any solve, when the weighted squared spread
    sum_i w_i^2 |x_i - mean(x)|^2 overflows or is zero: such magnitudes
    would overflow or vanish inside the solves.
    """
    if settings is None:
        settings = FitSettings()
    if cloud.n_x < 3:
        raise ValueError(f"need at least 3 points to fit, got {cloud.n_x}")
    with np.errstate(over="ignore", invalid="ignore"):
        centroid = cloud.points.mean(axis=0)
        points = cloud.points - centroid
        spread = np.sum(cloud.weights**2 * np.sum(points**2, axis=1))
    if not (np.isfinite(spread) and spread > 0):
        raise ValueError(
            f"weighted squared spread of the cloud is {float(spread)!r}; it must be finite and "
            "positive (rescale the points or the weights)"
        )
    inner = PointCloud(points, cloud.weights)
    u, v = init_uv(inner)
    lam = settings.lam
    ridge = lam * weight_scale(inner.weights)  # the order search's ridge strength
    if settings.fixed_orders is not None:
        start = cap = settings.fixed_orders
    else:
        start, cap = (1, 1), settings.order_cap

    trace: FitTrace = []
    tic = perf_counter()
    model, f, _ = _search_orders(inner, u, v, start[0], start[1], lam, cap)
    trace.append(
        FitIteration(0, model.n_u, model.n_v, model.sigma2, model.t, f,
                     math.nan, math.nan, math.nan, math.nan, 0, perf_counter() - tic)
    )

    prev_sigma2 = model.sigma2
    for it in range(1, settings.max_outer_iters + 1):
        tic = perf_counter()
        batch = project_all(inner, model.surface, u, v)
        u, v = batch.u, batch.v
        f_before = float(np.sum(inner.weights**2 * batch.g_start))
        f_after = float(np.sum(inner.weights**2 * batch.g_final))
        f_reg_before = f_after + _ridge_penalty(model.surface, ridge)
        model, f, f_reg_after = _search_orders(inner, u, v, model.n_u, model.n_v, lam, cap)
        trace.append(
            FitIteration(it, model.n_u, model.n_v, model.sigma2, model.t, f,
                         f_before, f_after, f_reg_before, f_reg_after,
                         len(batch.failed), perf_counter() - tic)
        )

        settled = abs(model.sigma2 - prev_sigma2) < settings.rel_sigma2_tol * prev_sigma2
        prev_sigma2 = model.sigma2
        if settled:
            break

    final = replace(model, surface=translate_surface(model.surface, centroid), centroid=centroid)
    return final, trace


def outer_iterations(trace: FitTrace) -> int:
    """Number of alternating iterations executed (excludes the initial fit)."""
    return sum(1 for row in trace if row.iteration > 0)
