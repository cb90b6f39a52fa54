"""Foot-point location on a fixed surface.

Each point is an independent 2D minimization of the half squared distance,
solved by Newton's method on a modified Hessian with Armijo backtracking:
(H + mu I) p = -g, with mu = 0 when H is positive definite and otherwise
mu = |g| - 2 lambda_min(H), so every step descends. A point stops once its
gradient norm is at most ``grad_tol``, or at the precision floor: when no
step length alpha = 1, 1/2, ... whose predicted decrease alpha (-g.p) is
above the rounding noise ``floor_ulp`` eps |r| (|x| + |r|) of the objective,
|r| = sqrt(2 g), is an Armijo point; a point whose decrement -g.p is within
that noise stops without the step. Both stops count as converged; a
non-finite step, such as that of a system whose determinant overflows, is
never at the floor.

A Newton iteration makes at most two ``_values_only`` calls: one for the
full step of every active point, and one for the remaining backtracking
ladders (alpha = 1/2, 1/4, ...) of the points that reject it.

All points are advanced in lockstep on batched arrays. The objective and
its derivatives come from the batched kernel in ``bezier``, whose per-lane
results do not depend on the rest of the batch, so projecting a cloud is
bit-identical to projecting its points one by one. Accepted line-search
values are carried forward rather than recomputed, which makes the per-point
objective sequence monotone by construction. The solve returns one
``BatchProjection``, with each point's final gradient norm in ``grad_norm``.
A point whose objective or derivatives stop being finite fails: it is not
advanced again and ends at its start with its starting objective, and
``project_point`` raises a ``ProjectionError`` that carries only a message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bezier import BezierSurface, _values_grads_hessians, _values_only
from .bezier import _basis_rows, _basis_rows_derivs  # noqa: F401  kept bound for perfbench's tracer test
from .errors import ProjectionError
from .voxel import PointCloud


@dataclass(frozen=True)
class ProjectionSettings:
    """The solver's fixed constants; it takes no arguments, and the solver reads ``_SETTINGS``."""

    max_newton_iters: int = field(default=20, init=False)
    grad_tol: float = field(default=1e-10, init=False)
    armijo_c: float = field(default=1e-4, init=False)
    backtrack_factor: float = field(default=0.5, init=False)
    max_backtracks: int = field(default=50, init=False)
    floor_ulp: int = field(default=4, init=False)


_SETTINGS = ProjectionSettings()
_EPS = np.finfo(np.float64).eps


@dataclass
class ProjectionResult:
    """One point's foot point; ``converged`` as in ``BatchProjection``."""

    u: float
    v: float
    g: float
    g_start: float
    grad_norm: float
    iterations: int
    converged: bool


@dataclass
class BatchProjection:
    """Per-point foot points for a cloud; failed points keep their inputs.

    ``converged`` marks the points that stopped at ``grad_tol`` or at the
    precision floor: no Armijo point among the step lengths whose predicted
    decrease is above ``floor_ulp`` eps |r| (|x| + |r|). ``grad_norm`` holds
    each point's final gradient norm; a point that failed after a step keeps
    the norm of its last finite derivatives. ``iterations`` counts each
    point's accepted Newton steps and ``kernel_calls`` the batched
    objective-kernel calls of the solve.
    """

    u: np.ndarray
    v: np.ndarray
    g_start: np.ndarray
    g_final: np.ndarray
    grad_norm: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    kernel_calls: int
    failed: tuple[int, ...] = field(default=())


# Overflow and invalid-value warnings are expected when trial parameters run
# away; non-finite lanes are rejected or marked failed explicitly.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve_batch(points, control, u0, v0):
    """Foot points of a batch. Row k of ``derivs`` holds lane k's (grad_u, grad_v,
    h11, h12, h22); a non-finite refresh fails the lane instead of overwriting it."""
    u, v = u0.astype(np.float64), v0.astype(np.float64)
    value, *rest = _values_grads_hessians(points, u, v, control)
    derivs = np.column_stack(rest)
    calls = 1
    failed = ~(np.isfinite(value) & np.isfinite(derivs).all(axis=1))
    g_start = value.copy()
    iterations = np.zeros(u.size, dtype=np.int64)
    active = ~failed & (np.hypot(derivs[:, 0], derivs[:, 1]) > _SETTINGS.grad_tol)
    floored = np.zeros(u.size, dtype=bool)
    x_norm = np.hypot(np.hypot(points[:, 0], points[:, 1]), points[:, 2])

    for _ in range(_SETTINGS.max_newton_iters):
        idx = np.flatnonzero(active)
        gu, gv, a, b, d = derivs[idx].T
        # Lanes not positive definite shift H by mu to smallest eigenvalue |g| + |lambda_min|.
        convex = (a * d - b * b > 0.0) & (a + d > 0.0)
        lam_min = (a + d) / 2 - np.hypot((a - d) / 2, b)
        mu = np.where(convex, 0.0, np.hypot(gu, gv) - 2.0 * lam_min)
        a, d = a + mu, d + mu
        det = a * d - b * b
        det[~np.isfinite(det)] = np.nan  # an overflowed system gives a NaN step, not 0
        p0, p1 = -(d * gu - b * gv) / det, -(a * gv - b * gu) / det
        dirderiv = gu * p0 + gv * p1

        # A lane whose decrement -g.p is within the rounding noise of its
        # objective, floor_ulp eps |r| (|x| + |r|), stops without the step.
        r_norm = np.sqrt(2.0 * value[idx])
        noise = _SETTINGS.floor_ulp * _EPS * r_norm * (x_norm[idx] + r_norm)
        done = -dirderiv <= noise
        stop = idx[done]
        floored[stop], active[stop] = True, False
        idx, p0, p1, dirderiv, noise = (y[~done] for y in (idx, p0, p1, dirderiv, noise))
        if idx.size == 0:
            break

        cur_u, cur_v, cur_val = u[idx], v[idx], value[idx]
        cand_u, cand_v = cur_u + p0, cur_v + p1
        cand_val = _values_only(points[idx], cand_u, cand_v, control)
        calls += 1
        accepted = np.isfinite(cand_val) & (cand_val <= cur_val + _SETTINGS.armijo_c * dirderiv)

        # Lanes that reject alpha = 1 evaluate the rest of their ladder in one
        # call: alpha = 1/2, 1/4, ... while alpha (-g.p) is above the noise,
        # which a NaN step always is. Each takes its first Armijo point; a lane
        # with none whose ladder reached the noise stops at the floor.
        back = np.flatnonzero(~accepted)
        if back.size:
            alphas = np.cumprod(np.full(_SETTINGS.max_backtracks - 1, _SETTINGS.backtrack_factor))
            rungs = ~(-alphas * dirderiv[back, None] <= noise[back, None])
            length = rungs.sum(axis=1)
            trial_u = cur_u[back, None] + alphas * p0[back, None]
            trial_v = cur_v[back, None] + alphas * p1[back, None]
            trial_val = np.full(rungs.shape, np.nan)
            if length.any():
                trial_val[rungs] = _values_only(points[np.repeat(idx[back], length)],
                                                trial_u[rungs], trial_v[rungs], control)
                calls += 1
            bound = cur_val[back, None] + _SETTINGS.armijo_c * alphas * dirderiv[back, None]
            good = np.isfinite(trial_val) & (trial_val <= bound)
            hit = good.any(axis=1)
            first = good.argmax(axis=1)[hit]
            won = back[hit]
            accepted[won] = True
            cand_u[won] = trial_u[hit, first]
            cand_v[won] = trial_v[hit, first]
            cand_val[won] = trial_val[hit, first]
            floored[idx[back[~hit & (length < alphas.size)]]] = True

        active[idx[~accepted]] = False
        moved = idx[accepted]
        if moved.size == 0:
            continue
        new_u, new_v = cand_u[accepted], cand_v[accepted]
        u[moved], v[moved] = new_u, new_v
        value[moved] = cand_val[accepted]
        iterations[moved] += 1

        fresh = np.column_stack(_values_grads_hessians(points[moved], new_u, new_v, control)[1:])
        calls += 1
        finite = np.isfinite(fresh).all(axis=1)
        failed[moved[~finite]] = True
        derivs[moved[finite]] = fresh[finite]
        active[moved] = finite & (np.hypot(fresh[:, 0], fresh[:, 1]) > _SETTINGS.grad_tol)

    u[failed], v[failed], value[failed] = u0[failed], v0[failed], g_start[failed]
    grad_norm = np.hypot(derivs[:, 0], derivs[:, 1])
    converged = ~failed & ((grad_norm <= _SETTINGS.grad_tol) | floored)
    return BatchProjection(u, v, g_start, value, grad_norm, converged, iterations, calls,
                           tuple(int(i) for i in np.flatnonzero(failed)))


def project_point(
    x: np.ndarray,
    surface: BezierSurface,
    u0: float,
    v0: float,
) -> ProjectionResult:
    """Locally minimize the half squared distance from x to the surface.

    Takes shifted Newton steps (see the module docstring) until the gradient
    norm falls to ``grad_tol`` or the point reaches the precision floor (both
    count as ``converged``), the line search finds no Armijo point, or the
    Newton budget is spent; the final objective never exceeds the starting
    one. Raises ProjectionError when the objective or its derivatives stop
    being finite.
    """
    point = np.asarray(x, dtype=np.float64).reshape(1, 3)
    batch = _solve_batch(point, surface.control, np.array([float(u0)]), np.array([float(v0)]))
    if batch.failed:
        raise ProjectionError("objective or derivatives not finite during foot-point search")
    return ProjectionResult(
        u=float(batch.u[0]),
        v=float(batch.v[0]),
        g=float(batch.g_final[0]),
        g_start=float(batch.g_start[0]),
        grad_norm=float(batch.grad_norm[0]),
        iterations=int(batch.iterations[0]),
        converged=bool(batch.converged[0]),
    )


def project_all(
    cloud: PointCloud,
    surface: BezierSurface,
    u: np.ndarray,
    v: np.ndarray,
) -> BatchProjection:
    """Foot points for every cloud point, warm-started from (u, v).

    Each solve is independent and deterministic. Points whose solve fails
    keep their previous parameters; their indices are reported in ``failed``.
    ``converged`` marks the points whose gradient norm reached ``grad_tol``
    or that stopped at the precision floor (see the module docstring).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.shape != (cloud.n_x,):
        raise ValueError("parameter vectors must match the cloud size")
    return _solve_batch(cloud.points, surface.control, u, v)


def project_nearest(points, surface: BezierSurface, refs, ref_u, ref_v) -> BatchProjection:
    """Foot points for finite points, each started at its nearest reference.

    Point i starts at ``(ref_u[k], ref_v[k])`` for the ``refs[k]`` at least
    exact squared distance, the first on ties, found one point at a time. A
    point whose distances all overflow starts at k = 0 and its lane fails.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cloud = PointCloud(points, np.ones(points.shape[0]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nearest = [np.argmin(np.sum((p - refs) ** 2, axis=1)) for p in cloud.points]
    return project_all(cloud, surface, ref_u[nearest], ref_v[nearest])
