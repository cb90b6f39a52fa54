"""Foot-point location on a fixed surface.

Each point is an independent 2D minimization of the half squared distance,
solved by Newton's method on a modified Hessian with Armijo backtracking:
(H + mu I) p = -g, with mu = 0 when H is positive definite and otherwise
mu = |g| - 2 lambda_min(H), so every step descends. A point stops at the
precision floor, or, in a budgeted solve, after a fixed number of Newton
steps. A point that stops at the floor is converged: its gradient is
exactly zero, or its decrement -g.p is within the rounding noise ``floor_ulp``
eps |r| (|x| + |r|) of its objective, |r| = sqrt(2 g), or no step length
alpha = 1, 1/2, ... whose predicted decrease alpha (-g.p) is above that noise
is an Armijo point; the floor is checked once more after the last Newton
step. No constant of the rule has a unit, and each step solves the point's
(H, g) scaled by the power of two that brings their largest entry into
[1/2, 1), so the 2x2 system neither overflows nor underflows: scaling the
points by a power of two scales only the objectives and their derivatives.
A non-finite step is never at the floor.

All points are advanced in lockstep on batched arrays, and every evaluation
is one call of the objective kernel ``_values_grads_hessians`` in
``bezier``, which returns a trial's value with its gradient and Hessian. A
Newton iteration makes at most two calls: one for the full step of every
active point, and one for the remaining backtracking ladders (alpha = 1/2,
1/4, ...) of the points that reject it. A point that accepts a step keeps
that step's kernel values, so nothing is evaluated twice and the per-point
objective sequence is monotone by construction. The kernel's per-lane
results do not depend on the rest of the batch, so projecting a cloud is
bit-identical to projecting its points one by one. The solve returns one
``BatchProjection``. It transposes the points once, into a (3, n) block of
coordinate rows, the kernel's layout, and gathers that block's lanes with
``take`` along axis 1. Every (8, k) block of lanes stays row-contiguous: lanes
are gathered with ``take`` and ``compress`` along axis 1, since ``a[:, idx]``
returns an F-ordered copy on which each later row pass is strided (on a
(5, 5 000) block, the column maximum took 410 us against 24 us and ``ldexp``
92 us against 13 us; 2-core Xeon). Each pass runs a block only when one of
its lanes needs it, and every lane's arithmetic is the same either way: the
Hessian shift when a lane is not positive definite, the stop bookkeeping when
a lane stops, the backtracking ladder when a lane rejects its full step, and
the failure bookkeeping when a lane's derivatives are not finite; while every
lane is active, nothing is gathered and ``state`` takes the whole candidate
block. In the loop solves of 20 study-shaped fits (n = 100), 91 % of passes
had no shifted lane, 55 % stopped no lane, and 83 % of the passes that called
the kernel had every lane accept its full step.
A point whose objective or derivatives stop being finite fails: it is not
advanced again and ends at its start with its starting objective, and
``project_point`` raises a ``ProjectionError`` that carries only a message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bezier import BezierSurface, _values_grads_hessians
from .bezier import _basis_rows, _basis_rows_derivs  # noqa: F401  kept bound for perfbench's tracer test
from .errors import ProjectionError
from .voxel import PointCloud


@dataclass(frozen=True)
class ProjectionSettings:
    """Fixed solver constants, no arguments; the solver reads ``_SETTINGS`` but not ``grad_tol``.

    ``max_newton_iters`` bounds the accepted Newton steps of each lane of an
    exact solve, and ``loop_newton_iters`` those of a budgeted one, which
    ``fit_surface`` runs inside its loop.
    """

    max_newton_iters: int = field(default=20, init=False)
    loop_newton_iters: int = field(default=2, init=False)
    grad_tol: float = field(default=1e-10, init=False)
    armijo_c: float = field(default=1e-4, init=False)
    backtrack_factor: float = field(default=0.5, init=False)
    max_backtracks: int = field(default=50, init=False)
    floor_ulp: int = field(default=4, init=False)


_SETTINGS = ProjectionSettings()
_EPS = np.finfo(np.float64).eps
_NEAREST_BLOCK = 256  # points per distance block of ``project_nearest``


@dataclass
class BatchProjection:
    """Per-point foot points for a cloud; failed points keep their inputs.

    ``converged`` marks the points that stopped at the precision floor: a zero
    gradient, or no Armijo point among the step lengths whose predicted
    decrease is above ``floor_ulp`` eps |r| (|x| + |r|). ``iterations``
    counts each point's accepted Newton steps and ``kernel_calls`` the
    solve's calls of the batched objective kernel: one for the starts, then
    at most two per Newton iteration.
    """

    u: np.ndarray
    v: np.ndarray
    g_start: np.ndarray
    g_final: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    kernel_calls: int
    failed: tuple[int, ...] = field(default=())


def _lanes(coords, u, v, control):
    """Kernel values (u, v, g, g_u, g_v, h11, h12, h22) of a batch whose points
    are the (3, len) block ``coords``, as the rows of an (8, len) array, so that
    each quantity is contiguous over the lanes."""
    block = np.empty((8, len(u)))
    block[0], block[1], block[2:] = u, v, _values_grads_hessians(coords, u, v, control)
    return block


# Step lengths alpha = 1/2, 1/4, ... of a backtracking ladder.
_ALPHAS = np.cumprod(np.full(_SETTINGS.max_backtracks - 1, _SETTINGS.backtrack_factor))


# Overflow and invalid-value warnings are expected when trial parameters run
# away; non-finite lanes are rejected or marked failed explicitly.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve_batch(points, control, u0, v0, budgeted=False):
    """Foot points of a batch. Column k of ``state`` holds lane k's kernel values
    at its current point; a lane that accepts a trial takes the trial's column,
    unless its derivatives are not finite, which fails the lane and keeps its
    last finite column. A lane takes at most ``loop_newton_iters`` Newton steps
    when ``budgeted``, and ``max_newton_iters`` otherwise. Each pass runs the
    shift, stop, ladder and failure blocks only when one of its lanes needs
    them, and gathers nothing while every lane is active."""
    max_iters = _SETTINGS.loop_newton_iters if budgeted else _SETTINGS.max_newton_iters
    coords = np.ascontiguousarray(points.T)  # one (3, n) block: each coordinate a contiguous row
    state = _lanes(coords, u0, v0, control)
    n, calls = state.shape[1], 1
    failed = ~np.isfinite(state[2:]).all(axis=0)
    g_start = state[2].copy()
    iterations = np.zeros(n, dtype=np.int64)
    active = ~failed
    converged = np.zeros(n, dtype=bool)
    x_norm = np.hypot(np.hypot(coords[0], coords[1]), coords[2])

    for it in range(max_iters + 1):  # the last pass only checks the floor
        idx = active.nonzero()[0]
        whole = idx.size == n
        # While every lane is active, cur is state itself: state is written
        # only after the pass's last read of cur.
        cur = state if whole else state.take(idx, axis=1)
        # The step solves the lane's (H, g) scaled by one power of two, which
        # brings its largest entry into [1/2, 1): the step does not change, and
        # the 2x2 system can neither overflow nor underflow at any point scale.
        _, exponent = np.frexp(np.abs(cur[3:]).max(axis=0, initial=0.0))
        scaled = np.ldexp(cur[3:], -exponent)  # rows g_u, g_v, h11, h12, h22
        a, b, d = scaled[2:]
        det = a * d - b * b
        # Lanes not positive definite shift H by mu to smallest eigenvalue
        # |g| + |lambda_min|. A positive definite lane has a > 0 and d > 0, so
        # its mu = +0.0 would change no bit, and a pass without a shifted lane
        # skips the shift.
        shift = ~((det > 0.0) & (a + d > 0.0))
        if np.count_nonzero(shift):
            xgu, xgv, xa, xb, xd = scaled.compress(shift, axis=1)
            lam_min = (xa + xd) / 2 - np.hypot((xa - xd) / 2, xb)
            mu = np.zeros(a.shape)
            mu[shift] = np.hypot(xgu, xgv) - 2.0 * lam_min
            a += mu
            d += mu
            det = a * d - b * b
        # Rows p_u = -(d g_u - b g_v) / det and p_v = -(a g_v - b g_u) / det.
        step = -(scaled[4:1:-2] * scaled[:2] - b * scaled[1::-1]) / det
        slope = cur[3:5] * step
        dirderiv = slope[0] + slope[1]

        # A lane whose decrement -g.p is within the rounding noise of its objective,
        # floor_ulp eps |r| (|x| + |r|), or whose gradient is 0 (step 0/0) stops unmoved.
        r_norm = np.sqrt(2.0 * cur[2])
        x_lanes = x_norm if whole else x_norm.take(idx)
        noise = _SETTINGS.floor_ulp * _EPS * r_norm * (x_lanes + r_norm)
        done = (-dirderiv <= noise) | ((cur[3] == 0.0) & (cur[4] == 0.0))
        if np.count_nonzero(done):
            stop, keep = idx[done], ~done
            converged[stop], active[stop] = True, False
            idx, dirderiv, noise = idx[keep], dirderiv[keep], noise[keep]
            cur, step = cur.compress(keep, axis=1), step.compress(keep, axis=1)
            whole = False
        if idx.size == 0 or it == max_iters:
            break

        cand = _lanes(coords if whole else coords.take(idx, axis=1), *(cur[:2] + step), control)
        calls += 1
        cand_val = cand[2]
        accepted = np.isfinite(cand_val) & (cand_val <= cur[2] + _SETTINGS.armijo_c * dirderiv)

        # Lanes that reject alpha = 1 evaluate the rest of their ladder in one
        # call: alpha = 1/2, 1/4, ... while alpha (-g.p) is above the noise,
        # which a NaN step always is. Each ladder is a prefix, so its columns
        # lie flat from the lane's offset on. Each lane takes its first Armijo
        # rung; a lane with none whose ladder reached the noise stops at the floor.
        rejected = ~accepted
        if np.count_nonzero(rejected):
            back = rejected.nonzero()[0]
            hit = np.zeros(back.size, dtype=bool)
            rungs = ~(-_ALPHAS * dirderiv[back, None] <= noise[back, None])
            length = rungs.sum(axis=1)
            if length.any():
                trial_u = cur[0, back, None] + _ALPHAS * step[0, back, None]
                trial_v = cur[1, back, None] + _ALPHAS * step[1, back, None]
                ladder = _lanes(coords.take(np.repeat(idx[back], length), axis=1),
                                trial_u[rungs], trial_v[rungs], control)
                calls += 1
                bound = cur[2, back, None] + _SETTINGS.armijo_c * _ALPHAS * dirderiv[back, None]
                good = np.zeros(rungs.shape, dtype=bool)
                good[rungs] = np.isfinite(ladder[2]) & (ladder[2] <= bound[rungs])
                hit = good.any(axis=1)
                accepted[back[hit]] = True
                first = np.cumsum(length) - length + good.argmax(axis=1)
                cand[:, back[hit]] = ladder.take(first[hit], axis=1)
            converged[idx[back[~hit & (length < _ALPHAS.size)]]] = True
            active[idx[~accepted]] = False
            idx, cand = idx[accepted], cand.compress(accepted, axis=1)
            whole = False

        # The lanes of idx moved. Each takes its column of cand, unless its
        # derivatives are not finite, which fails it.
        if whole:
            iterations += 1
        else:
            iterations[idx] += 1
        broken = ~np.isfinite(cand[3:]).all(axis=0)
        if np.count_nonzero(broken):
            failed[idx[broken]], active[idx[broken]] = True, False
            idx, cand = idx[~broken], cand.compress(~broken, axis=1)
            whole = False
        if whole:
            state = cand
        else:
            state[:, idx] = cand

    failed_lanes = failed.nonzero()[0]
    if failed_lanes.size:
        state[:3, failed_lanes] = np.stack((u0, v0, g_start))[:, failed_lanes]
    u, v, value = state[:3].copy()
    return BatchProjection(u, v, g_start, value, converged, iterations, calls,
                           tuple(failed_lanes.tolist()))


def project_point(
    x: np.ndarray,
    surface: BezierSurface,
    u0: float,
    v0: float,
) -> BatchProjection:
    """Locally minimize the half squared distance from x to the surface.

    Takes shifted Newton steps (see the module docstring) until the point
    reaches the precision floor (``converged``), the line search finds no
    Armijo point, or the Newton budget is spent; the final objective never
    exceeds the starting one. Returns the solve's one-lane batch. Raises
    ProjectionError, so ``failed`` is always empty, when the objective or
    its derivatives stop being finite.
    """
    point = np.asarray(x, dtype=np.float64).reshape(1, 3)
    batch = _solve_batch(point, surface.control, np.array([float(u0)]), np.array([float(v0)]))
    if batch.failed:
        raise ProjectionError("objective or derivatives not finite during foot-point search")
    return batch


def project_all(
    cloud: PointCloud,
    surface: BezierSurface,
    u: np.ndarray,
    v: np.ndarray,
    *,
    budgeted: bool = False,
) -> BatchProjection:
    """Foot points for every cloud point, warm-started from (u, v).

    Each solve is independent and deterministic. Points whose solve fails
    keep their previous parameters; their indices are reported in ``failed``.
    ``converged`` marks the points that stopped at the precision floor (see
    the module docstring). A ``budgeted`` solve stops each point after
    ``loop_newton_iters`` Newton steps, so a point may end neither converged
    nor failed; on every step it keeps its Armijo descent.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.shape != (cloud.n_x,):
        raise ValueError("parameter vectors must match the cloud size")
    return _solve_batch(cloud.points, surface.control, u, v, budgeted)


def project_nearest(points, surface: BezierSurface, refs, ref_u, ref_v) -> BatchProjection:
    """Foot points for finite points, each started at its nearest reference.

    Point i starts at ``(ref_u[k], ref_v[k])`` for the ``refs[k]`` at least
    squared distance, its coordinates summed left to right, the first on ties.
    A NaN distance is never the nearest: it ranks after every number, so a
    non-finite reference takes no start unless every distance is NaN. A point
    whose distances all overflow or are NaN starts at k = 0 and its lane fails.
    The distances are taken ``_NEAREST_BLOCK`` points at a time, so memory
    stays proportional to that block times the reference count. Raises
    ValueError unless there is at least one reference and ``ref_u`` and
    ``ref_v`` hold one parameter each per reference.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cloud = PointCloud(points, np.ones(points.shape[0]))
    refs = np.asarray(refs, dtype=np.float64).reshape(-1, 3)
    ref_u = np.asarray(ref_u, dtype=np.float64)
    ref_v = np.asarray(ref_v, dtype=np.float64)
    if not len(refs) == len(ref_u) == len(ref_v) > 0:
        raise ValueError(f"project_nearest needs one (u, v) per reference and at least one: "
                         f"{len(refs)} refs, {len(ref_u)} ref_u, {len(ref_v)} ref_v")
    nearest = np.zeros(cloud.n_x, dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, cloud.n_x, _NEAREST_BLOCK):
            block = cloud.points[start:start + _NEAREST_BLOCK]
            dist2 = (block[:, 0, None] - refs[:, 0]) ** 2
            dist2 += (block[:, 1, None] - refs[:, 1]) ** 2
            dist2 += (block[:, 2, None] - refs[:, 2]) ** 2
            # Ranked by the bits of |dist2|: those of a float >= 0 order like its
            # value, and those of NaN after inf.
            nearest[start:start + _NEAREST_BLOCK] = np.argmin(
                np.abs(dist2, out=dist2).view(np.int64), axis=1)
    return project_all(cloud, surface, ref_u[nearest], ref_v[nearest])
