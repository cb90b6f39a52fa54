"""Foot-point location on a fixed surface.

Each point is an independent 2D minimization of the half squared distance,
solved by Newton's method with Armijo backtracking; when the Hessian is not
positive definite the step falls back to steepest descent, so every accepted
step decreases the objective.

All points are advanced in lockstep on batched arrays. The objective and
its derivatives come from the batched kernel in ``bezier``, whose per-lane
results do not depend on the rest of the batch, so projecting a cloud is
bit-identical to projecting its points one by one. Accepted line-search
values are carried forward rather than recomputed, which makes the per-point
objective sequence monotone by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bezier import BezierSurface, _values_grads_hessians, _values_only
from .bezier import _basis_rows, _basis_rows_derivs  # noqa: F401  kept bound for perfbench's tracer test
from .errors import ProjectionError
from .voxel import PointCloud

# |u| or |v| beyond this marks a runaway parameterization.
_PARAM_RANGE = 10.0


@dataclass
class ProjectionSettings:
    max_newton_iters: int = 20
    grad_tol: float = 1e-10
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 50

    def __post_init__(self):
        if self.max_newton_iters < 0 or self.max_backtracks < 0:
            raise ValueError("iteration limits must be nonnegative")
        if not (np.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError("grad_tol must be finite and strictly positive")
        if not (0.0 < self.armijo_c < 1.0 and 0.0 < self.backtrack_factor < 1.0):
            raise ValueError("armijo_c and backtrack_factor must lie in (0, 1)")


@dataclass
class ProjectionResult:
    u: float
    v: float
    g: float
    g_start: float
    grad_norm: float
    iterations: int
    converged: bool
    out_of_range: bool


@dataclass
class BatchProjection:
    """Per-point foot points for a cloud; failed points keep their inputs."""

    u: np.ndarray
    v: np.ndarray
    g_start: np.ndarray
    g_final: np.ndarray
    converged: np.ndarray
    failed: tuple[int, ...] = field(default=())


def _finite_rows(*arrays):
    ok = np.isfinite(arrays[0])
    for arr in arrays[1:]:
        ok &= np.isfinite(arr)
    return ok


@dataclass
class _BatchState:
    u: np.ndarray
    v: np.ndarray
    value: np.ndarray
    g_start: np.ndarray
    grad_norm: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    failed: np.ndarray
    fail_u: np.ndarray
    fail_v: np.ndarray


def _solve_batch(points, control, u0, v0, settings: ProjectionSettings) -> _BatchState:
    # Overflow and invalid-value warnings are expected when trial parameters
    # run away; non-finite lanes are rejected or marked failed explicitly.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _solve_batch_inner(points, control, u0, v0, settings)


def _solve_batch_inner(points, control, u0, v0, settings: ProjectionSettings) -> _BatchState:
    n = points.shape[0]
    u = u0.astype(np.float64, copy=True)
    v = v0.astype(np.float64, copy=True)
    value, grad_u, grad_v, h11, h12, h22 = _values_grads_hessians(points, u, v, control)
    ok = _finite_rows(value, grad_u, grad_v, h11, h12, h22)
    failed = ~ok
    fail_u = u0.copy()
    fail_v = v0.copy()
    g_start = value.copy()
    iterations = np.zeros(n, dtype=np.int64)
    grad_norm = np.hypot(grad_u, grad_v)
    active = ok & (grad_norm > settings.grad_tol)

    for _ in range(settings.max_newton_iters):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        gu, gv = grad_u[idx], grad_v[idx]
        a, b, d = h11[idx], h12[idx], h22[idx]
        det = a * d - b * b
        newton = (det > 0.0) & (a + d > 0.0)
        det_safe = np.where(newton, det, 1.0)
        p0 = np.where(newton, -(d * gu - b * gv) / det_safe, -gu)
        p1 = np.where(newton, -(a * gv - b * gu) / det_safe, -gv)
        dirderiv = gu * p0 + gv * p1

        alpha = np.ones(idx.size)
        accepted = np.zeros(idx.size, dtype=bool)
        cand_u = np.empty(idx.size)
        cand_v = np.empty(idx.size)
        cand_val = np.empty(idx.size)
        pending = np.arange(idx.size)
        for _ in range(settings.max_backtracks):
            if pending.size == 0:
                break
            lanes = idx[pending]
            trial_u = u[lanes] + alpha[pending] * p0[pending]
            trial_v = v[lanes] + alpha[pending] * p1[pending]
            trial_val = _values_only(points[lanes], trial_u, trial_v, control)
            bound = value[lanes] + settings.armijo_c * alpha[pending] * dirderiv[pending]
            good = np.isfinite(trial_val) & (trial_val <= bound)
            sel = pending[good]
            accepted[sel] = True
            cand_u[sel] = trial_u[good]
            cand_v[sel] = trial_v[good]
            cand_val[sel] = trial_val[good]
            pending = pending[~good]
            alpha[pending] *= settings.backtrack_factor

        stuck = idx[~accepted]
        active[stuck] = False
        moved = idx[accepted]
        if moved.size == 0:
            continue
        prev_u = u[moved].copy()
        prev_v = v[moved].copy()
        u[moved] = cand_u[accepted]
        v[moved] = cand_v[accepted]
        value[moved] = cand_val[accepted]
        iterations[moved] += 1

        _, mgu, mgv, ma, mb, md = _values_grads_hessians(points[moved], u[moved], v[moved], control)
        mok = _finite_rows(mgu, mgv, ma, mb, md)
        if not mok.all():
            bad = moved[~mok]
            failed[bad] = True
            active[bad] = False
            fail_u[bad] = prev_u[~mok]
            fail_v[bad] = prev_v[~mok]
            u[bad] = u0[bad]
            v[bad] = v0[bad]
            value[bad] = g_start[bad]
        good_lanes = moved[mok]
        grad_u[good_lanes] = mgu[mok]
        grad_v[good_lanes] = mgv[mok]
        h11[good_lanes] = ma[mok]
        h12[good_lanes] = mb[mok]
        h22[good_lanes] = md[mok]
        grad_norm[good_lanes] = np.hypot(mgu[mok], mgv[mok])
        active[good_lanes] = grad_norm[good_lanes] > settings.grad_tol

    converged = ~failed & (grad_norm <= settings.grad_tol)
    return _BatchState(u, v, value, g_start, grad_norm, iterations, converged,
                       failed, fail_u, fail_v)


def project_point(
    x: np.ndarray,
    surface: BezierSurface,
    u0: float,
    v0: float,
    settings: ProjectionSettings | None = None,
) -> ProjectionResult:
    """Locally minimize the half squared distance from x to the surface.

    Returns once the gradient norm falls to ``settings.grad_tol`` or the
    Newton budget is spent; the final objective never exceeds the starting
    one. Raises ProjectionError, carrying the last finite iterate, when the
    objective or its derivatives stop being finite.
    """
    if settings is None:
        settings = ProjectionSettings()
    point = np.asarray(x, dtype=np.float64).reshape(1, 3)
    state = _solve_batch(point, surface.control, np.array([float(u0)]),
                         np.array([float(v0)]), settings)
    if state.failed[0]:
        raise ProjectionError(
            "objective or derivatives not finite during foot-point search",
            float(state.fail_u[0]), float(state.fail_v[0]),
        )
    u, v = float(state.u[0]), float(state.v[0])
    return ProjectionResult(
        u=u,
        v=v,
        g=float(state.value[0]),
        g_start=float(state.g_start[0]),
        grad_norm=float(state.grad_norm[0]),
        iterations=int(state.iterations[0]),
        converged=bool(state.converged[0]),
        out_of_range=abs(u) > _PARAM_RANGE or abs(v) > _PARAM_RANGE,
    )


def project_all(
    cloud: PointCloud,
    surface: BezierSurface,
    u: np.ndarray,
    v: np.ndarray,
    settings: ProjectionSettings | None = None,
) -> BatchProjection:
    """Foot points for every cloud point, warm-started from (u, v).

    Each solve is independent and deterministic. Points whose solve fails
    keep their previous parameters; their indices are reported in ``failed``.
    ``converged`` marks the points whose gradient norm reached ``grad_tol``.
    """
    if settings is None:
        settings = ProjectionSettings()
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.shape != (cloud.n_x,):
        raise ValueError("parameter vectors must match the cloud size")
    state = _solve_batch(cloud.points, surface.control, u, v, settings)
    return BatchProjection(
        u=state.u,
        v=state.v,
        g_start=state.g_start,
        g_final=state.value,
        converged=state.converged,
        failed=tuple(int(i) for i in np.flatnonzero(state.failed)),
    )


def project_nearest(points, surface: BezierSurface, refs, ref_u, ref_v,
                    settings: ProjectionSettings | None = None) -> BatchProjection:
    """Foot points for finite points, each started at its nearest reference.

    Point i starts at ``(ref_u[k], ref_v[k])`` for the ``refs[k]`` at least
    exact squared distance, the first on ties, found one point at a time. A
    point whose distances all overflow starts at k = 0 and its lane fails.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cloud = PointCloud(points, np.ones(points.shape[0]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nearest = [np.argmin(np.sum((p - refs) ** 2, axis=1)) for p in cloud.points]
    return project_all(cloud, surface, ref_u[nearest], ref_v[nearest], settings)
