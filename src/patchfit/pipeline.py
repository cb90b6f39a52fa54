"""Alternating surface fitting with online order selection.

The loop interleaves two blocks: per-point foot-point updates on the current
surface, and a closed-form control-point refit that may also grow the surface
order. Location parameters are initialized by projecting the cloud onto its
top two principal directions. After the first iteration the foot-point
update takes a fixed budget of Newton steps per point, which makes the loop
inexact block-coordinate descent; its last update is finished exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from .control import DEFAULT_LAMBDA, _ridge_penalty, translate_surface
from .control import solve_control_points  # noqa: F401  kept bound for perfbench's tracer test
from .errors import DegenerateGeometryError, _integer, _integers, _nonnegative_real
from .projection import project_all
from .selection import FitModel, _centred_scales, _search_orders
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
        _integer("max_outer_iters", self.max_outer_iters, 1)
        _integers("order_cap", self.order_cap, 2, 1)
        if self.fixed_orders is not None:
            _integers("fixed_orders", self.fixed_orders, 2, 1)
        _nonnegative_real("lam", self.lam)
        _nonnegative_real("rel_sigma2_tol", self.rel_sigma2_tol)


@dataclass
class FitIteration:
    """One record per foot-point solve and order search; row 0 is the initial fit.

    The f_* pairs instrument the two descent blocks: the projection pair uses
    the projector's own objective values, the solve pair compares the
    regularized objective of the previous surface (``f_after_projection`` plus
    its ridge penalty) against a refit at unchanged orders.

    ``seconds`` is the row's wall time, of which ``projection_seconds`` went
    to the foot-point solve and ``search_seconds`` to the order search.
    ``kernel_calls``, ``newton_steps`` (accepted Newton steps summed over the
    points) and ``unconverged_lanes`` (points not at the precision floor,
    failed ones included) describe the foot-point solve; row 0 has none.
    Iteration 1's solve runs to the floor; from iteration 2 on each point
    takes at most the Newton budget ``ProjectionSettings.loop_newton_iters``,
    so there ``unconverged_lanes`` counts the points that the budget left
    short of the floor. ``stop`` is empty except on the last row, where it
    says why the loop ended: ``"tolerance"`` or ``"iteration cap"``.

    When the last loop solve was budgeted and left points neither converged
    nor failed, ``fit_surface`` finishes it: an exact solve on the same
    surface from where the budget left each point, then a search from the
    same orders. The finish is a row of its own, the last, and repeats the
    ``iteration`` of the row before, since it redoes that iteration; its
    ``f_before_projection`` is that row's ``f_after_projection``. A fit that
    ends at iteration 1 has made only exact solves and has no finish.
    """

    iteration: int
    n_u: int
    n_v: int
    sigma2: float
    t: float
    f_before_projection: float
    f_after_projection: float
    f_reg_before_solve: float
    f_reg_after_solve: float
    projection_failures: int
    seconds: float
    projection_seconds: float = 0.0
    search_seconds: float = 0.0
    kernel_calls: int = 0
    newton_steps: int = 0
    unconverged_lanes: int = 0
    stop: str = ""


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
    # largest entry in [1/2, 1): LAPACK then rescales nothing, so 2^k scaling is exact
    centered = np.ldexp(centered, -np.frexp(np.abs(centered).max())[1])
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

    The first foot-point solve runs to the precision floor; later ones, warm
    started at the previous foot points, take at most a fixed budget of
    Newton steps per point. If the last loop solve was such a one and left a
    point short of the floor, a finish solves it at the floor and reruns the
    last search, in a trace row of its own (``FitIteration``), so the returned
    (u, v) are foot points at the floor on the surface before the last search,
    as with exact solves throughout.

    The check of ``search_scales`` runs on ``lam`` and the cloud before any
    solve, and the same pass centres the cloud and sets the order search's
    ridge and floor from mean(w^2) and its weighted spread; ``init_uv``'s
    SVD and each Newton step run at a power-of-two scale of their own. So
    scaling every weight by c changes only sigma2, by c^2, and scaling the
    points by 2^k only the control points, by 2^k, and sigma2, by 4^k, while
    sigma2 stays a normal float.
    """
    if settings is None:
        settings = FitSettings()
    if cloud.n_x < 3:
        raise ValueError(f"need at least 3 points to fit, got {cloud.n_x}")
    ridge, floor, centroid, centered = _centred_scales(cloud, settings.lam)
    inner = PointCloud(centered, cloud.weights)
    u, v = init_uv(inner)
    start = settings.fixed_orders or (1, 1)
    cap = settings.fixed_orders or settings.order_cap

    trace: FitTrace = []
    tic = perf_counter()
    model, _ = _search_orders(inner, u, v, start[0], start[1], ridge, cap, floor)
    seconds = perf_counter() - tic
    trace.append(
        FitIteration(0, model.n_u, model.n_v, model.sigma2, model.t, math.nan, math.nan,
                     math.nan, math.nan, 0, seconds, search_seconds=seconds)
    )

    for it in range(1, settings.max_outer_iters + 1):
        # Lanes started at the previous foot points take a Newton budget; the
        # first solve starts at the principal-direction parameters, far from
        # them, and runs to the floor.
        projected = model
        model, batch, row = _iteration(inner, projected, u, v, ridge, cap, floor, it,
                                       budgeted=it > 1)
        u, v = batch.u, batch.v
        trace.append(row)
        settled = (abs(model.sigma2 - trace[-2].sigma2)
                   < settings.rel_sigma2_tol * trace[-2].sigma2)
        if settled:
            break

    if it > 1 and np.count_nonzero(~batch.converged) > len(batch.failed):
        # Finish the last projection, which was budgeted, at the floor from where
        # its budget left it, on the same surface, and search again from the same
        # orders; the finish's row repeats the iteration it redoes.
        model, _, row = _iteration(inner, projected, u, v, ridge, cap, floor, it, budgeted=False)
        trace.append(row)
    trace[-1].stop = "tolerance" if settled else "iteration cap"

    final = replace(model, surface=translate_surface(model.surface, centroid), centroid=centroid)
    return final, trace


def _iteration(inner: PointCloud, model: FitModel, u: np.ndarray, v: np.ndarray, ridge: float,
               cap: tuple, floor: float, it: int, *, budgeted: bool):
    """One trace row: foot points on ``model``'s surface from (u, v), then the
    order search from ``model``'s orders. Returns the search's model, the
    projection and the row's ``FitIteration``."""
    tic = perf_counter()
    batch = project_all(inner, model.surface, u, v, budgeted=budgeted)
    projection_seconds = perf_counter() - tic
    f_before = float(np.sum(inner.weights**2 * batch.g_start))
    f_after = float(np.sum(inner.weights**2 * batch.g_final))
    f_reg_before = f_after + _ridge_penalty(model.surface.flat, ridge)
    search_tic = perf_counter()
    model, f_reg_after = _search_orders(inner, batch.u, batch.v, model.n_u, model.n_v, ridge, cap,
                                        floor)
    search_seconds = perf_counter() - search_tic
    row = FitIteration(it, model.n_u, model.n_v, model.sigma2, model.t, f_before, f_after,
                       f_reg_before, f_reg_after, len(batch.failed), perf_counter() - tic,
                       projection_seconds=projection_seconds, search_seconds=search_seconds,
                       kernel_calls=batch.kernel_calls, newton_steps=int(batch.iterations.sum()),
                       unconverged_lanes=int(np.count_nonzero(~batch.converged)))
    return model, batch, row


def outer_iterations(trace: FitTrace) -> int:
    """Number of alternating iterations executed (excludes the initial fit); a
    finish row repeats the iteration it redoes, so this is the last row's."""
    return trace[-1].iteration
