"""Noise estimation and automatic surface order selection.

Candidate orders grow by at most one in each direction per update. Each
candidate is scored by an information statistic that trades the log of the
estimated noise variance against a parameter-count penalty; the candidate
with the largest statistic wins, with ties broken toward parsimony. One
design matrix and one Gram matrix, built at the largest candidate, serve
every candidate of a search through Bernstein degree elevation, and one
stacked factorization and pair of solves solve all the candidates at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bezier import BezierSurface, _dot3, _elevation, design_matrix
from .control import _gram, _residual_sums, _ridge_penalty, _solve_gram, weighted_objective
from .control import solve_control_points  # noqa: F401  kept bound for perfbench's tracer test
from .errors import DegenerateGeometryError, _integer, _integers, _nonnegative_real
from .voxel import PointCloud

# The order search floors the noise variance at this fraction of the cloud's
# mean weighted squared spread, so candidates that interpolate to floating-point
# dust tie and compete through the parameter penalty, not through rounding noise.
# Should the floor underflow to 0, they tie at +inf and parsimony decides.
_REL_FLOOR = 1e-13
_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float


def search_scales(cloud: PointCloud, lam: float) -> tuple[float, float]:
    """The order search's (ridge, floor) for ``cloud``, after one check.

    With S = sum_i w_i^2 |x_i - mean(x)|^2 / n, the mean weighted squared
    spread, returns (``lam`` * mean(w^2), ``_REL_FLOOR``^2 * S). Raises
    ValueError when ``lam`` is not a finite nonnegative real number,
    DegenerateGeometryError when all the points coincide, and ValueError
    when S is not finite or is below the smallest normal float: such
    magnitudes would overflow inside the solves or make sigma2 underflow.
    """
    return _centred_scales(cloud, lam)[:2]


def _centred_scales(cloud: PointCloud, lam: float) -> tuple[float, float, np.ndarray, np.ndarray]:
    """``search_scales`` with the centroid and the centred points it measured S on."""
    _nonnegative_real("lam", lam)
    n = cloud.n_x
    with np.errstate(over="ignore", invalid="ignore"):
        # sum / n is np.mean's centroid, without its warning on an empty cloud
        centroid = cloud.points.sum(axis=0) / n
        centered = cloud.points - centroid
        spread = np.sum(cloud.weights**2 * _dot3(centered, centered))
        mean_spread = spread / n
    if n and (cloud.points == cloud.points[0]).all():
        raise DegenerateGeometryError(
            f"all {n} points coincide; a surface needs points spread over two directions")
    if not (np.isfinite(mean_spread) and mean_spread >= _TINY):
        raise ValueError(
            f"weighted squared spread of the cloud is {float(spread)!r} over {n} points; "
            f"its mean must be finite and at least {_TINY!r} (rescale the points or the weights)"
        )
    ridge, floor = lam * float(np.mean(cloud.weights**2)), _REL_FLOOR**2 * float(mean_spread)
    return ridge, floor, centroid, centered


@dataclass
class FitModel:
    """Fitted surface with location parameters and selection statistics."""

    surface: BezierSurface
    u: np.ndarray
    v: np.ndarray
    sigma2: float
    t: float
    centroid: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @property
    def d(self) -> int:
        """Free-parameter count of ``param_count``, from the point count and orders."""
        return param_count(self.u.size, self.n_u, self.n_v)

    @property
    def n_u(self) -> int:
        return self.surface.n_u

    @property
    def n_v(self) -> int:
        return self.surface.n_v

    @property
    def size(self) -> int:
        return self.surface.size


def sigma2_hat(cloud: PointCloud, surface: BezierSurface, u: np.ndarray, v: np.ndarray) -> float:
    """Maximum-likelihood noise variance from weighted squared residuals.

    Equals two thirds of the weighted objective divided by the point count.
    """
    if cloud.n_x < 1:
        raise ValueError("cannot estimate noise variance from an empty cloud")
    f = weighted_objective(cloud.points, cloud.weights, surface, u, v)
    return 2.0 * f / (3.0 * cloud.n_x)


def param_count(n_x: int, n_u: int, n_v: int) -> int:
    """Total free parameters: two locations per point, control coords, variance;
    the point count and the orders are integers of at least 1."""
    n_x, n_u, n_v = _integer("n_x", n_x, 1), _integer("n_u", n_u, 1), _integer("n_v", n_v, 1)
    return 2 * n_x + 3 * (n_u + 1) * (n_v + 1) + 1


def bic_statistic(sigma2: float, d: int, n_x: int) -> float:
    """Selection statistic: -3 n_x ln(sigma2) - d ln(n_x). Larger is better.

    A zero variance (degenerate exact interpolation) returns +inf; callers
    comparing candidates must fall back to the parsimony tie-break. ``d``
    is an integer of at least 0 and ``n_x`` one of at least 1.
    """
    d, n_x = _integer("d", d, 0), _integer("n_x", n_x, 1)
    if not sigma2 >= 0:
        raise ValueError(f"variance must be nonnegative, got {sigma2}")
    if sigma2 == 0.0:
        return math.inf
    return -3.0 * n_x * math.log(sigma2) - d * math.log(n_x)


def _rank_key(t: float, n_u: int, n_v: int) -> tuple:
    """Sort key of a candidate with statistic ``t`` at orders (n_u, n_v): best
    statistic first, then parsimony.

    Parsimony is the control-point count, then the total order, then n_u.
    Every ranking compares candidates of one cloud, where ``param_count``
    orders them as their control-point count does.
    """
    return (-t, (n_u + 1) * (n_v + 1), n_u + n_v, n_u)


@lru_cache(maxsize=64)  # 36 searches under the default order cap (1.6 MB), +1 per fixed pair
def _stacked_lift(n_u: int, n_v: int, top_u: int, top_v: int) -> tuple:
    """The candidates of a search from (n_u, n_v) with top orders (top_u, top_v), in
    ``itertools.product`` order, with their read-only (C, m, m) stacks ``lift`` and
    ``pad``, m the top's control-point count: ``lift[c]`` holds candidate c's
    ``bezier._elevation`` K in its leading rows and 0 below, and ``pad[c]`` is 1 on
    the diagonal below them and 0 elsewhere, so that ``lift @ G @ lift^T + pad``
    holds each candidate's K G K^T and keeps its padded rows out of the solution.
    With one candidate, the top, ``lift`` is the identity and ``pad`` is 0."""
    orders = tuple(itertools.product(range(n_u, top_u + 1), range(n_v, top_v + 1)))
    m = (top_u + 1) * (top_v + 1)
    lift, pad = np.zeros((2, len(orders), m, m))
    for c, cand in enumerate(orders):
        size = (cand[0] + 1) * (cand[1] + 1)
        lift[c, :size] = _elevation(*cand, top_u, top_v)
        pad[c, range(size, m), range(size, m)] = 1.0
    lift.flags.writeable = pad.flags.writeable = False
    return orders, lift, pad


def _search_orders(
    cloud: PointCloud,
    u: np.ndarray,
    v: np.ndarray,
    n_u: int,
    n_v: int,
    ridge: float,
    order_cap: tuple[float, float],
    floor: float,
) -> tuple[FitModel, float]:
    """``mdl_select`` with one design matrix B, one Gram matrix G and one stacked
    solve per search.

    B and G, with right-hand side R, are built at the top candidate, each
    order one up unless already at its ``order_cap``. Every candidate, the
    top alone included, solves at once through ``_stacked_lift``: the systems
    ``lift @ G @ lift^T + pad`` and right-hand sides ``lift @ R`` go through
    one ``control._solve_gram`` call. One product (lift^T A)^T @ B then gives
    every candidate's residual, from which its weighted residual sum, taken
    directly since the expansion through G and R cancels at exact recovery,
    gives its noise variance (sum / 3n). A candidate whose solve is rank
    deficient is skipped. The candidates are ranked on their statistics by
    ``_rank_key``, and only the winner becomes a model, holding one copy of
    ``u`` and ``v``. ``ridge`` and ``floor`` are those of ``search_scales``,
    which a fit computes once. Returns the winner and the regularized
    objective of the refit at the start order, NaN when that refit is rank
    deficient.
    """
    u = np.array(u, dtype=np.float64)
    v = np.array(v, dtype=np.float64)
    points, weights, n_x = cloud.points, cloud.weights, cloud.n_x
    top = (n_u + (n_u < order_cap[0]), n_v + (n_v < order_cap[1]))
    b = design_matrix(u, v, *top)
    gram, rhs = _gram(points, weights, b)
    orders, lift, pad = _stacked_lift(n_u, n_v, *top)
    with np.errstate(over="ignore", invalid="ignore"):  # _solve_gram rejects them
        flats, errors = _solve_gram(lift @ gram @ lift.swapaxes(1, 2), lift @ rhs, ridge, n_x, pad)
    # (lift^T A)^T; for the top alone it has A^T's layout, so a direct solve's bits
    totals = _residual_sums(points, weights, b, (lift.swapaxes(1, 2) @ flats).swapaxes(1, 2))

    def own_flat(c):  # candidate c's flat without its padding, in from_flat's F order
        return np.asfortranarray(flats[c, :(orders[c][0] + 1) * (orders[c][1] + 1)])

    ranked = []
    for c, ((cand_u, cand_v), total, error) in enumerate(zip(orders, totals.tolist(), errors)):
        if error is None:
            sigma2 = total / (3.0 * n_x)
            t = bic_statistic(max(sigma2, floor), param_count(n_x, cand_u, cand_v), n_x)
            ranked.append((_rank_key(t, cand_u, cand_v), c, sigma2, t))
    if not ranked:
        raise errors[-1]
    _, c, sigma2, t = min(ranked)
    model = FitModel(BezierSurface.from_flat(own_flat(c), *orders[c]), u, v, sigma2, t)
    f_reg_same = (math.nan if errors[0] else  # orders[0] is the start order
                  0.5 * float(totals[0]) + _ridge_penalty(own_flat(0), ridge))
    return model, f_reg_same


def mdl_select(
    cloud: PointCloud,
    u: np.ndarray,
    v: np.ndarray,
    n_u: int,
    n_v: int,
    lam: float,
    order_cap: tuple[int, int] | None = None,
) -> FitModel:
    """Refit control points at the current and incremented orders, keep the best.

    Location parameters are held fixed. The candidate grid is
    {n_u, n_u+1} x {n_v, n_v+1}, clipped at ``order_cap``; orders therefore
    never decrease. ``search_scales`` first checks ``lam`` and the cloud and
    sets the ridge and the variance floor. A candidate whose solve is rank
    deficient is skipped; if every candidate fails, the last one's error
    propagates. The orders and the caps are integers of at least 1, and
    ``lam`` is a finite nonnegative real number.
    """
    n_u, n_v = _integer("n_u", n_u, 1), _integer("n_v", n_v, 1)
    cap = (math.inf, math.inf) if order_cap is None else _integers("order_cap", order_cap, 2, 1)
    ridge, floor = search_scales(cloud, lam)
    return _search_orders(cloud, u, v, n_u, n_v, ridge, cap, floor)[0]
