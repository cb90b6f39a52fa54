"""Point selection from binary occupancy grids.

The pipeline is: mark interior boundary voxels by thresholding a Laplacian
response, grow a connected region outward from a query voxel by repeated
box-kernel convolution, then turn the grown region into a weighted point
cloud at voxel centers. Both steps are box sums: at an occupied voxel the
Laplacian (26 at the center, -1 elsewhere) equals 27 - box_3(occupancy).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptySelectionError, PerimeterTruncationWarning, _integer, _integers

DEFAULT_EPSILON = 9
DEFAULT_NEIGHBORHOOD = 3
DEFAULT_MAX_ITERS = 7


@dataclass
class VoxelGrid:
    """Dense 3D scalar lattice with physical spacing and origin.

    ``data[i, j, k]`` lives at physical position ``origin + spacing * (i, j, k)``
    (the origin is the center of voxel (0, 0, 0)). Occupancy grids hold 0/1,
    region grids hold nonnegative integers, weight grids hold reals.
    """

    data: np.ndarray
    spacing: np.ndarray
    origin: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ValueError(f"grid data must be 3D, got {data.ndim}D")
        if 0 in data.shape:
            raise ValueError(f"grid axes must be non-empty, got shape {data.shape}")
        spacing = np.asarray(self.spacing, dtype=np.float64).reshape(3)
        origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        if not (np.isfinite(spacing).all() and (spacing > 0).all()):
            raise ValueError(f"spacing must be strictly positive, got {spacing}")
        if not np.isfinite(origin).all():
            raise ValueError("origin must be finite")
        self.data = data
        self.spacing = spacing
        self.origin = origin

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def is_binary(self) -> bool:
        data = self.data
        if data.dtype.kind in "iu":
            # One pass: read as unsigned, a negative value wraps above 1.
            return bool(data.view(data.dtype.str.replace("i", "u")).max() <= 1)
        return bool(((data == 0) | (data == 1)).all())


@dataclass
class PointCloud:
    """Indexed finite points in R^3 with finite, strictly positive weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if pts.shape[0] != w.shape[0]:
            raise ValueError(f"points ({pts.shape[0]}) and weights ({w.shape[0]}) differ in length")
        if w.size and not (w > 0).all():
            raise ValueError("weights must be strictly positive")
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            raise ValueError("points and weights must be finite")
        self.points = pts
        self.weights = w

    @property
    def n_x(self) -> int:
        return self.points.shape[0]


@dataclass
class Region:
    """A grown region: hop counts in a window of a parent grid.

    ``window[i, j, k]`` is the value of parent voxel ``offset + (i, j, k)``;
    every parent voxel outside the window is 0. From ``select_points`` a
    selected voxel h hops from the seed holds max_iters + 1 - h. ``dims``,
    ``spacing`` and ``origin`` are the parent grid's.
    """

    window: np.ndarray
    offset: tuple[int, int, int]
    dims: tuple[int, int, int]
    spacing: np.ndarray
    origin: np.ndarray

    @cached_property
    def data(self) -> np.ndarray:
        """The region as a read-only grid of the parent's dims, built on first read."""
        full = np.zeros(self.dims, dtype=self.window.dtype)
        full[tuple(slice(o, o + n) for o, n in zip(self.offset, self.window.shape))] = self.window
        full.flags.writeable = False
        return full


def _box_size(l: int, dims: tuple[int, int, int] | None = None) -> int:
    """``l`` as an int, checked to be an odd integer of at least 1 and, given ``dims``,
    within them."""
    l = _integer("neighborhood size", l, 1)
    if l % 2 == 0:
        raise ValueError(f"neighborhood size must be odd, got {l}")
    if dims is not None and any(l > d for d in dims):
        raise ValueError(f"kernel dims {(l, l, l)} exceed grid dims {dims}")
    return l


def convolve3(grid: VoxelGrid, l: int) -> VoxelGrid:
    """Zero-padded l x l x l box sum, exact while every sum fits in int64.

    The box is separable: along each axis in turn, the array shifted by
    each of -(l-1)/2 .. (l-1)/2 voxels is added into a copy of itself, the
    voxels shifted in from outside counting 0. Output has the same dims,
    spacing and origin as the input.
    """
    l = _box_size(l, grid.dims)
    out = grid.data.astype(np.int64, copy=False)
    for axis in range(3):
        acc = out.copy()
        lead = (slice(None),) * axis
        for s in range(1, l // 2 + 1):
            acc[lead + (slice(s, None),)] += out[lead + (slice(None, -s),)]
            acc[lead + (slice(None, -s),)] += out[lead + (slice(s, None),)]
        out = acc
    return VoxelGrid(out, grid.spacing, grid.origin)


def _require_binary(grid: VoxelGrid) -> None:
    if not grid.is_binary():
        raise ValueError("boundary_mask requires a binary occupancy grid")


def boundary_mask(grid: VoxelGrid, epsilon: int = DEFAULT_EPSILON) -> VoxelGrid:
    """Binary mask of interior boundary voxels.

    A voxel is kept when it is occupied and has at least ``epsilon`` exterior
    voxels in its 3x3x3 neighborhood, out-of-grid voxels counting as
    exterior. That count, 27 - box_3(occupancy), is the Laplacian response
    at an occupied voxel. The occupancy requirement excludes exterior voxels
    adjacent to the volume, which would otherwise pass the threshold.
    ``epsilon`` may be any integer.
    """
    epsilon = _integer("epsilon", epsilon, None)
    _require_binary(grid)
    exterior = 27 - convolve3(grid, 3).data
    mask = ((exterior >= epsilon) & (grid.data == 1)).astype(np.int64)
    return VoxelGrid(mask, grid.spacing, grid.origin)


def _snap_to_mask(mask: np.ndarray, local: tuple[int, int, int], seed: tuple[int, int, int],
                  radius: int, spacing: np.ndarray) -> tuple[int, int, int]:
    """Nearest mask voxel within a Chebyshev radius of ``local``, else error.

    ``local`` and the result index ``mask``, which must reach at least
    ``radius`` voxels past ``local`` wherever the grid does; ``seed`` names
    the query in the errors. Nearest is by physical distance, ranked at a
    power-of-two scale of ``spacing``; ties break on lexicographic index order.
    """
    box_lo = np.maximum(np.subtract(local, radius), 0)
    box_hi = np.minimum(np.add(local, radius + 1), mask.shape)
    if (box_lo >= box_hi).any():
        raise EmptySelectionError(f"query voxel {seed} is beyond the snap radius of any boundary voxel")
    candidates = np.argwhere(mask[tuple(map(slice, box_lo, box_hi))] > 0)
    if candidates.size == 0:
        raise EmptySelectionError(
            f"no boundary voxel within Chebyshev radius {radius} of query voxel {seed}"
        )
    candidates = candidates + box_lo
    # An exact power-of-two rescaling: no squared distance overflows or underflows.
    offsets = (candidates - np.array(local)) * np.ldexp(spacing, -np.frexp(spacing.max())[1])
    dist2 = (offsets**2).sum(axis=1)
    order = np.lexsort((candidates[:, 2], candidates[:, 1], candidates[:, 0], dist2))
    return tuple(int(c) for c in candidates[order[0]])


def _window(seed: tuple[int, int, int], reach: int, dims: tuple[int, int, int],
            min_width: int) -> tuple[slice, slice, slice]:
    """Voxels within Chebyshev ``reach`` of seed, clipped to the grid.

    Along each axis the window is widened to ``min_width`` voxels (or the
    whole axis, if shorter), also when the seed lies outside the grid.
    """
    bounds = []
    for s, d in zip(seed, dims):
        width = min(d, min_width)
        lo = max(0, min(s - reach, d - width))
        hi = min(d, max(s + reach + 1, lo + width))
        bounds.append(slice(lo, hi))
    return tuple(bounds)


def select_points(
    grid: VoxelGrid,
    seed: tuple[int, int, int],
    l: int = DEFAULT_NEIGHBORHOOD,
    max_iters: int = DEFAULT_MAX_ITERS,
    epsilon: int = DEFAULT_EPSILON,
) -> Region:
    """Grow a single-surface region of boundary voxels around a query voxel.

    Starting from the seed (snapped to the nearest boundary voxel within
    Chebyshev radius ``l`` if needed), the region is a masked dilation that
    counts steps: reached_0 is the seed, reached_k is the mask voxels whose
    l x l x l box meets reached_(k-1), and the region holds the sum of
    reached_0 .. reached_max_iters. Its support is the set of mask voxels
    within ``max_iters`` hops of the seed, where one hop spans Chebyshev
    distance (l-1)/2, and a voxel first reached at hop h holds
    max_iters + 1 - h: the seed holds max_iters + 1, the outermost voxels 1.
    Once reached_k equals reached_(k-1) it stays so, and the remaining hops
    are added in closed form, so at most ``max_iters`` growth box sums run.
    ``max_iters`` must lie in 1..2^63 - 2, so that the seed's hop count
    ``max_iters`` + 1 fits in int64.

    The support thus lies within Chebyshev distance
    ``l + max_iters*(l-1)/2`` of the query voxel, so the mask and the growth
    run only in a window one voxel wider than that (the mask's 3x3x3
    context), and the result is that window with its offset into the grid.
    Only the binary check covers the whole grid.

    Emits PerimeterTruncationWarning when the grown region comes close enough
    to the grid perimeter that the next dilation would leave the grid.
    ``epsilon`` must lie in 1..26: an occupied voxel has 0..26 exterior
    neighbours, so below 1 every occupied voxel is boundary and above 26 none is.
    ``seed`` is a tuple or list of three integers.
    """
    epsilon = _integer("epsilon", epsilon, 1, 26)
    max_iters = _integer("max_iters", max_iters, 1, np.iinfo(np.int64).max - 1)
    l = _box_size(l)
    _require_binary(grid)
    _box_size(3, grid.dims)
    seed = _integers("seed", seed, 3)
    margin = (l - 1) // 2
    reach = l + max_iters * margin + 1
    window = _window(seed, reach, grid.dims, max(3, l))
    lo = tuple(w.start for w in window)
    crop = VoxelGrid(grid.data[window], grid.spacing, grid.origin)
    mask = boundary_mask(crop, epsilon).data
    local = tuple(s - o for s, o in zip(seed, lo))
    inside = all(0 <= local[a] < mask.shape[a] for a in range(3))
    if not inside or mask[local] == 0:
        local = _snap_to_mask(mask, local, seed, l, grid.spacing)

    _box_size(l, grid.dims)
    on_mask = mask > 0
    reached = np.zeros(mask.shape, dtype=bool)
    reached[local] = True
    region = reached.astype(np.int64)
    for k in range(1, max_iters + 1):
        grown = (convolve3(VoxelGrid(reached, crop.spacing, crop.origin), l).data > 0) & on_mask
        if np.array_equal(grown, reached):
            region += (max_iters - k + 1) * reached  # hops k .. max_iters reach the same set
            break
        reached = grown
        region += reached

    support = np.argwhere(region > 0) + np.array(lo)
    if ((support <= margin) | (support >= np.array(grid.dims) - 1 - margin)).any():
        warnings.warn(
            "region growth reached the grid perimeter; selection may be truncated",
            PerimeterTruncationWarning,
            stacklevel=2,
        )
    return Region(region, lo, grid.dims, grid.spacing, grid.origin)


def extract_cloud(
    region: Region | VoxelGrid,
    weight_mode: str = "uniform",
    weight_grid: VoxelGrid | None = None,
) -> PointCloud:
    """One point per nonzero region voxel, at its physical center.

    Only the region's window is read; a plain ``VoxelGrid`` is its own
    window, at offset 0.

    Weight modes:
        uniform: all weights 1.
        inverse-distance: region value divided by the region maximum, in (0, 1].
            For a ``select_points`` region that is (max_iters + 1 - h) /
            (max_iters + 1) at hop h, so in [1 / (max_iters + 1), 1].
        external-map: weights read from ``weight_grid`` at the same voxels;
            its dims, spacing and origin must match the region's.
    """
    if isinstance(region, VoxelGrid):
        region = Region(region.data, (0, 0, 0), region.dims, region.spacing, region.origin)
    local = np.argwhere(region.window > 0)
    if local.shape[0] == 0:
        raise EmptySelectionError("region grid has no nonzero voxels")
    indices = local + np.array(region.offset)
    points = region.origin + indices.astype(np.float64) * region.spacing
    if weight_mode == "uniform":
        weights = np.ones(indices.shape[0])
    elif weight_mode == "inverse-distance":
        values = region.window[tuple(local.T)].astype(np.float64)
        weights = values / values.max()
    elif weight_mode == "external-map":
        if weight_grid is None:
            raise ValueError("external-map mode requires a weight grid")
        if weight_grid.dims != region.dims:
            raise ValueError(
                f"weight grid dims {weight_grid.dims} do not match region dims {region.dims}"
            )
        if not (np.array_equal(weight_grid.spacing, region.spacing)
                and np.array_equal(weight_grid.origin, region.origin)):
            raise ValueError(f"weight grid spacing {weight_grid.spacing}, origin "
                             f"{weight_grid.origin} do not match region spacing "
                             f"{region.spacing}, origin {region.origin}")
        weights = weight_grid.data[tuple(indices.T)].astype(np.float64)
        if not (weights > 0).all():
            raise ValueError("external weight map must be strictly positive on selected voxels")
    else:
        raise ValueError(f"unknown weight mode: {weight_mode!r}")
    return PointCloud(points, weights)
