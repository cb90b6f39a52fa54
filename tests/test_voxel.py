"""Boundary detection and region growth against counting and BFS oracles."""

import re
import tracemalloc
import warnings
from collections import deque

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchfit import (
    EmptySelectionError,
    PerimeterTruncationWarning,
    PointCloud,
    VoxelGrid,
    boundary_mask,
    convolve3,
    extract_cloud,
    select_points,
)


def unit_grid(data):
    return VoxelGrid(np.asarray(data, dtype=np.int64), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


def half_space(dim=20, z_top=9):
    data = np.zeros((dim, dim, dim), dtype=np.int64)
    data[:, :, : z_top + 1] = 1
    return unit_grid(data)


def exterior_neighbor_count(data, i, j, k):
    """Oracle: count exterior voxels in the 3x3x3 neighborhood, out-of-grid exterior."""
    count = 0
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            for dk in (-1, 0, 1):
                if di == dj == dk == 0:
                    continue
                p = (i + di, j + dj, k + dk)
                inside = all(0 <= p[a] < data.shape[a] for a in range(3))
                if not inside or data[p] == 0:
                    count += 1
    return count


def box_sum(data, l):
    """Oracle: the zero-padded l x l x l box sum, one shifted slice per tap."""
    data = np.asarray(data, dtype=np.int64)
    padded = np.pad(data, l // 2)
    n, m, p = data.shape
    out = np.zeros(data.shape, dtype=np.int64)
    for a, b, c in np.ndindex(l, l, l):
        out += padded[a:a + n, b:b + m, c:c + p]
    return out


def bfs_support(mask, seed, radius, max_depth):
    """Oracle: depth-limited BFS over mask voxels, Chebyshev-radius adjacency."""
    if mask[seed] == 0:
        return set()
    seen = {seed}
    frontier = deque([(seed, 0)])
    offsets = [
        (di, dj, dk)
        for di in range(-radius, radius + 1)
        for dj in range(-radius, radius + 1)
        for dk in range(-radius, radius + 1)
        if (di, dj, dk) != (0, 0, 0)
    ]
    while frontier:
        (i, j, k), depth = frontier.popleft()
        if depth == max_depth:
            continue
        for di, dj, dk in offsets:
            p = (i + di, j + dj, k + dk)
            if p in seen or not all(0 <= p[a] < mask.shape[a] for a in range(3)):
                continue
            if mask[p]:
                seen.add(p)
                frontier.append((p, depth + 1))
    return seen


def reference_snap(mask, seed, radius, spacing):
    """Oracle: nearest mask voxel within a Chebyshev radius, searched on the whole grid."""
    dims = mask.shape
    lo = [max(0, seed[a] - radius) for a in range(3)]
    hi = [min(dims[a], seed[a] + radius + 1) for a in range(3)]
    if any(lo[a] >= hi[a] for a in range(3)):
        raise EmptySelectionError(f"query voxel {seed} is beyond the snap radius of any boundary voxel")
    window = mask[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
    candidates = np.argwhere(window > 0)
    if candidates.size == 0:
        raise EmptySelectionError(
            f"no boundary voxel within Chebyshev radius {radius} of query voxel {seed}"
        )
    candidates = candidates + np.array(lo)
    dist2 = (((candidates - np.array(seed)) * spacing) ** 2).sum(axis=1)
    order = np.lexsort((candidates[:, 2], candidates[:, 1], candidates[:, 0], dist2))
    return tuple(int(c) for c in candidates[order[0]])


def reference_select(grid, seed, l, max_iters, epsilon):
    """Oracle: the boundary mask and every growth box sum over the whole grid."""
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    mask = boundary_mask(grid, epsilon).data
    seed = tuple(int(s) for s in seed)
    if not all(0 <= seed[a] < mask.shape[a] for a in range(3)) or mask[seed] == 0:
        seed = reference_snap(mask, seed, l, grid.spacing)
    if any(l > d for d in mask.shape):
        raise ValueError(f"kernel dims {(l, l, l)} exceed grid dims {mask.shape}")
    reached = np.zeros(mask.shape, dtype=bool)
    reached[seed] = True
    region = reached.astype(np.int64)
    for _ in range(max_iters):
        reached = (box_sum(reached, l) > 0) & (mask == 1)
        region += reached
    margin = (l - 1) // 2
    support = np.argwhere(region > 0)
    if ((support <= margin).any()
            or (support >= np.array(region.shape) - 1 - margin).any()):
        warnings.warn("region growth reached the grid perimeter; selection may be truncated",
                      PerimeterTruncationWarning)
    return VoxelGrid(region, grid.spacing, grid.origin)


def selection_outcome(select, grid, seed, l, max_iters, epsilon):
    """Region bytes and dtype (or exception type and message), and the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            region = select(grid, seed, l, max_iters, epsilon)
        except Exception as exc:  # the type and message are compared, not handled
            result = (type(exc), str(exc))
        else:
            result = (region.data.dtype, region.data.shape, region.data.tobytes(),
                      region.spacing.tobytes(), region.origin.tobytes())
    return result, [(w.category, str(w.message)) for w in caught]


def slab(dims, top):
    data = np.zeros(dims, dtype=np.int64)
    data[:, :, : top + 1] = 1
    return data


def random_occupancy(rng, dims, kind):
    """A random binary grid: noise, a union of balls, or a slab along k."""
    if kind == "noise":
        return (rng.random(dims) < rng.uniform(0.2, 0.9)).astype(np.int64)
    if kind == "blobs":
        idx = np.indices(dims)
        data = np.zeros(dims, dtype=np.int64)
        for _ in range(int(rng.integers(1, 4))):
            center = rng.uniform(0, dims)
            dist2 = sum((idx[a] - center[a]) ** 2 for a in range(3))
            data[dist2 <= rng.uniform(2, 10) ** 2] = 1
        return data
    return slab(dims, int(rng.integers(0, dims[2])))


@st.composite
def selection_cases(draw):
    """Random binary grids 3-40 voxels a side (one in ten with a stray 2), and
    queries inside, near and outside them."""
    dims = tuple(draw(st.integers(3, 40)) for _ in range(3))
    l = draw(st.sampled_from((1, 3, 5)))
    max_iters = draw(st.integers(1, 6))
    epsilon = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = random_occupancy(rng, dims, draw(st.sampled_from(("noise", "blobs", "slab"))))
    if rng.random() < 0.1:
        data[tuple(int(rng.integers(0, d)) for d in dims)] = 2
    reach = l + max_iters * (l - 1) // 2 + 1
    pad = {"inside": 0, "near": l, "outside": reach + 3}[
        draw(st.sampled_from(("inside", "near", "outside")))]
    query = tuple(draw(st.integers(-pad, d - 1 + pad)) for d in dims)
    return data, query, l, max_iters, epsilon


@st.composite
def cloud_cases(draw):
    """Random binary grids 3-32 voxels a side with anisotropic spacing and an
    offset origin, a seed on, off or beside a face of the boundary mask, a
    weight mode and a weight grid (sometimes 0 on a few voxels)."""
    dims = tuple(draw(st.integers(3, 32)) for _ in range(3))
    l = draw(st.sampled_from((1, 3, 5)))
    max_iters = draw(st.integers(1, 4))
    epsilon = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = random_occupancy(rng, dims, draw(st.sampled_from(("noise", "blobs", "slab"))))
    spacing = tuple(draw(st.sampled_from((0.3, 0.5, 1.25, 2.0))) for _ in range(3))
    origin = tuple(draw(st.floats(-100, 100, allow_nan=False)) for _ in range(3))
    grid = VoxelGrid(data, spacing, origin)
    on_mask = np.argwhere(boundary_mask(grid, epsilon).data == 1)
    kind = draw(st.sampled_from(("on", "off", "face")))
    if kind == "face":
        near_face = ((on_mask <= 1) | (on_mask >= np.array(dims) - 2)).any(axis=1)
        on_mask = on_mask[near_face]
    if len(on_mask) == 0:
        seed = tuple(int(rng.integers(0, d)) for d in dims)
    else:
        seed = tuple(int(c) for c in on_mask[rng.integers(len(on_mask))])
    if kind == "off":
        seed = tuple(c + int(rng.integers(-l - 1, l + 2)) for c in seed)
    weights = rng.uniform(0.1, 2.0, dims)
    if rng.random() < 0.2:
        weights[rng.random(dims) < 0.05] = 0.0
    mode = draw(st.sampled_from(("uniform", "inverse-distance", "external-map")))
    return grid, seed, l, max_iters, epsilon, mode, VoxelGrid(weights, spacing, origin)


def cloud_outcome(select, as_grid, grid, seed, l, max_iters, epsilon, mode, weight_grid):
    """Cloud bytes (or exception type and message) of ``select`` then
    ``extract_cloud``, and the warnings raised; ``as_grid`` passes the
    region's full ``.data`` as a plain ``VoxelGrid``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            region = select(grid, seed, l, max_iters, epsilon)
            if as_grid:
                region = VoxelGrid(region.data, region.spacing, region.origin)
            cloud = extract_cloud(region, mode, weight_grid)
        except Exception as exc:  # the type and message are compared, not handled
            result = (type(exc), str(exc))
        else:
            result = (cloud.points.shape, cloud.points.tobytes(), cloud.weights.tobytes())
    return result, [(w.category, str(w.message)) for w in caught]


# Values beside 0 and 1 in each dtype: negatives that wrap to large unsigned
# values, 2 and the extremes; for floats also 0.5, -0.0, NaN and the doubles
# next to 1.
ODD_VALUES = {
    "int8": [-1, 2, -128, 127],
    "int64": [-1, 2, -2**63, 2**63 - 1, 2**32 + 1],
    ">i8": [-1, 2, -2**63, 2**32 + 1],
    "uint8": [2, 255],
    "float64": [-1.0, 2.0, 0.5, -0.0, np.nan, np.inf, 1 + 2**-52, 1 - 2**-53],
    "bool": [],
}


@st.composite
def near_binary_arrays(draw):
    """A 0/1 array of a drawn dtype, with a few entries set to odd values,
    sometimes transposed so that it is not C-contiguous."""
    name = draw(st.sampled_from(sorted(ODD_VALUES)))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    bits = draw(st.lists(st.booleans(), min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    data = np.array(bits).reshape(shape).astype(name)
    for _ in range(draw(st.integers(0, 2)) if ODD_VALUES[name] else 0):
        index = tuple(draw(st.integers(0, d - 1)) for d in shape)
        data[index] = draw(st.sampled_from(ODD_VALUES[name]))
    return data.transpose(2, 0, 1) if draw(st.booleans()) else data


def random_blob_grid(rng, dim=20):
    """Union of a few random balls; guarantees nontrivial boundary structure."""
    data = np.zeros((dim, dim, dim), dtype=np.int64)
    idx = np.indices(data.shape)
    for _ in range(int(rng.integers(2, 5))):
        center = rng.uniform(4, dim - 4, 3)
        radius = rng.uniform(3, 6)
        dist2 = sum((idx[a] - center[a]) ** 2 for a in range(3))
        data[dist2 <= radius**2] = 1
    return unit_grid(data)


class TestConvolve3:
    def test_identity_kernel(self):
        # the 1x1x1 box is the identity
        rng = np.random.default_rng(0)
        grid = unit_grid(rng.integers(0, 5, (6, 7, 8)))
        out = convolve3(grid, 1)
        npt.assert_array_equal(out.data, grid.data)

    def test_laplacian_on_all_ones_interior(self):
        # the Laplacian response 27 x - box_3(x) vanishes inside a solid
        out = convolve3(unit_grid(np.ones((9, 9, 9))), 3)
        assert 27 - out.data[4, 4, 4] == 0

    def test_laplacian_single_voxel(self):
        data = np.zeros((7, 7, 7), dtype=np.int64)
        data[3, 3, 3] = 1
        out = convolve3(unit_grid(data), 3)
        assert 27 * data[3, 3, 3] - out.data[3, 3, 3] == 26

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        data = 2**40 + rng.integers(-1000, 1000, (5, 6, 7))
        grid = VoxelGrid(data, (0.5, 1.0, 2.0), (1.5, -2.0, 0.25))
        for l in (1, 3, 5):
            out = convolve3(grid, l)
            assert out.data.dtype == np.int64
            npt.assert_array_equal(out.data, box_sum(data, l), err_msg=f"{l=}")
            npt.assert_array_equal(out.spacing, grid.spacing)
            npt.assert_array_equal(out.origin, grid.origin)

    def test_integer_exact_beyond_double(self):
        data = np.zeros((3, 3, 3), dtype=np.int64)
        data[0, 0, 0] = 2**53 + 1
        data[2, 1, 0] = 2**60 + 3
        out = convolve3(unit_grid(data), 3).data
        assert out.dtype == np.int64
        assert out[1, 1, 1] == 2**60 + 2**53 + 4

    def test_kernel_larger_than_grid(self):
        message = "kernel dims (3, 3, 3) exceed grid dims (2, 2, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            convolve3(unit_grid(np.ones((2, 2, 2))), 3)

    def test_box_size_must_be_odd_and_positive(self):
        grid = unit_grid(np.ones((5, 5, 5)))
        for l, message in [(0, "neighborhood size must be at least 1, got 0"),
                           (2, "neighborhood size must be odd, got 2"),
                           (4, "neighborhood size must be odd, got 4"),
                           (-3, "neighborhood size must be at least 1, got -3")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                convolve3(grid, l)


class TestBoundaryMask:
    def test_deep_interior_excluded(self):
        grid = half_space()
        mask = boundary_mask(grid)
        assert mask.data[10, 10, 4] == 0

    def test_face_voxel_included_at_threshold(self):
        # a face voxel of a solid half-space has exactly 9 exterior neighbors
        grid = half_space()
        assert exterior_neighbor_count(grid.data, 10, 10, 9) == 9
        assert boundary_mask(grid, epsilon=9).data[10, 10, 9] == 1
        assert boundary_mask(grid, epsilon=10).data[10, 10, 9] == 0

    def test_edge_voxel_of_quarter_space(self):
        data = np.zeros((20, 20, 20), dtype=np.int64)
        data[:, :10, :10] = 1
        grid = unit_grid(data)
        assert exterior_neighbor_count(data, 10, 9, 9) == 15
        assert boundary_mask(grid).data[10, 9, 9] == 1

    def test_requires_binary(self):
        with pytest.raises(ValueError):
            boundary_mask(unit_grid(np.full((5, 5, 5), 2)))

    def test_mask_soundness_on_random_grids(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            grid = random_blob_grid(rng)
            mask = boundary_mask(grid).data
            for i, j, k in np.argwhere(mask == 1)[::7]:
                assert grid.data[i, j, k] == 1
                assert exterior_neighbor_count(grid.data, i, j, k) >= 9
            for i, j, k in np.argwhere((mask == 0) & (grid.data == 1))[::31]:
                assert exterior_neighbor_count(grid.data, i, j, k) < 9

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(*[st.integers(3, 8)] * 3), seed=st.integers(0, 2**32 - 1),
           density=st.floats(0.1, 0.95))
    def test_matches_exterior_count_for_every_epsilon(self, dims, seed, density):
        # every voxel, faces and corners included, against the brute-force count
        data = (np.random.default_rng(seed).random(dims) < density).astype(np.int64)
        counts = np.zeros(dims, dtype=np.int64)
        for index in np.ndindex(dims):
            counts[index] = exterior_neighbor_count(data, *index)
        grid = unit_grid(data)
        for epsilon in range(28):
            expected = ((data == 1) & (counts >= epsilon)).astype(np.int64)
            npt.assert_array_equal(boundary_mask(grid, epsilon).data, expected,
                                   err_msg=f"{epsilon=}")


class TestSelectPoints:
    def test_isolated_voxel_support_is_seed(self):
        data = np.zeros((11, 11, 11), dtype=np.int64)
        data[5, 5, 5] = 1
        region = select_points(unit_grid(data), (5, 5, 5), max_iters=3)
        npt.assert_array_equal(np.argwhere(region.data > 0), [[5, 5, 5]])
        # 26 exterior neighbours, the most an occupied voxel has
        region = select_points(unit_grid(data), (5, 5, 5), max_iters=3, epsilon=26)
        npt.assert_array_equal(np.argwhere(region.data > 0), [[5, 5, 5]])

    @pytest.mark.parametrize("epsilon", [-3, 0, 27, 40])
    def test_epsilon_outside_one_to_26_raises(self, epsilon):
        # Below 1 every occupied voxel of the slab would be boundary, above 26 none.
        data = np.zeros((12, 12, 12), dtype=np.int64)
        data[:, :, :6] = 1
        with pytest.raises(ValueError, match=rf"^epsilon must lie in 1\.\.26, got {epsilon}$"):
            select_points(unit_grid(data), (6, 6, 5), epsilon=epsilon)

    @pytest.mark.parametrize("seed, message", [
        ((5, 5, 5, 9), "seed must be 3 integers, got (5, 5, 5, 9)"),
        ((5.7, 5, 5), "seed[0] must be an integer, got 5.7"),
        (("5", 5, 5), "seed[0] must be an integer, got '5'"),
        ((True, 5, 5), "seed[0] must be an integer, got True"),
        ((5, 5), "seed must be 3 integers, got (5, 5)"),
        (5, "seed must be 3 integers, got 5"),
        (np.array([5.0, 5.0, 5.0]), "seed must be 3 integers, got array([5., 5., 5.])"),
    ], ids=repr)
    def test_seed_must_be_three_integers(self, seed, message):
        data = np.zeros((12, 12, 12), dtype=np.int64)
        data[:, :, :6] = 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            select_points(unit_grid(data), seed)

    def test_numpy_integer_seed(self):
        data = np.zeros((12, 12, 12), dtype=np.int64)
        data[:, :, :6] = 1
        expected = select_points(unit_grid(data), (6, 6, 5), max_iters=2)
        for seed in [(np.int64(6), np.int32(6), np.uint8(5)), [6, 6, 5]]:
            region = select_points(unit_grid(data), seed, max_iters=2)
            assert (region.offset, region.window.tobytes()) == (expected.offset,
                                                                expected.window.tobytes())

    def test_half_space_chebyshev_ball(self):
        grid = half_space(dim=24, z_top=11)
        for t in (1, 2, 4):
            region = select_points(grid, (12, 12, 11), max_iters=t)
            support = np.argwhere(region.data > 0)
            assert (support[:, 2] == 11).all()
            cheb = np.abs(support[:, :2] - 12).max(axis=1)
            assert cheb.max() == t
            assert len(support) == (2 * t + 1) ** 2

    def test_two_separated_surfaces_stay_apart(self):
        data = np.zeros((24, 24, 24), dtype=np.int64)
        data[:, :, :6] = 1     # slab 1, top face z = 5
        data[:, :, 12:18] = 1  # slab 2, bottom face z = 12 (gap of 6 > l)
        grid = unit_grid(data)
        region = select_points(grid, (12, 12, 5), max_iters=6)
        support = np.argwhere(region.data > 0)
        assert set(np.unique(support[:, 2])) <= {0, 5}
        assert not (support[:, 2] >= 12).any()

    def test_support_matches_bfs_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            grid = random_blob_grid(rng)
            mask = boundary_mask(grid).data
            candidates = np.argwhere(mask == 1)
            if len(candidates) == 0:
                continue
            seed = tuple(candidates[len(candidates) // 2])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PerimeterTruncationWarning)
                region = select_points(grid, seed, max_iters=4)
            support = {tuple(p) for p in np.argwhere(region.data > 0)}
            assert support == bfs_support(mask, seed, 1, 4)

    def test_monotone_growth(self):
        rng = np.random.default_rng(3)
        grid = random_blob_grid(rng)
        mask = boundary_mask(grid).data
        seed = tuple(np.argwhere(mask == 1)[0])
        previous = set()
        for t in range(1, 5):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PerimeterTruncationWarning)
                region = select_points(grid, seed, max_iters=t)
            support = {tuple(p) for p in np.argwhere(region.data > 0)}
            assert previous <= support
            previous = support

    def test_seed_snapping(self):
        grid = half_space(dim=20, z_top=9)
        # query two voxels above the face snaps down onto it
        region = select_points(grid, (10, 10, 11), max_iters=1)
        assert region.data[10, 10, 9] > 0

    @pytest.mark.parametrize("k", [-540, -500, 500, 540])
    def test_snap_is_the_same_at_any_power_of_two_spacing(self, k):
        # At 2^-540 every squared distance underflows to 0, and at 2^540 it
        # overflows to inf, unless the snap ranks them at a power-of-two scale.
        def select(scale):
            grid = VoxelGrid(slab((20, 20, 20), 9), np.ldexp([1.0, 0.5, 2.0], scale), (0, 0, 0))
            return select_points(grid, (10, 10, 12), max_iters=1)

        expected, region = select(0), select(k)
        assert expected.data[10, 10, 9] == 2
        assert region.offset == expected.offset
        assert region.window.tobytes() == expected.window.tobytes()

    def test_no_surface_within_radius(self):
        grid = half_space(dim=20, z_top=5)
        with pytest.raises(EmptySelectionError):
            select_points(grid, (10, 10, 15), max_iters=1)

    def test_perimeter_warning(self):
        grid = half_space(dim=9, z_top=4)
        with pytest.warns(PerimeterTruncationWarning):
            select_points(grid, (4, 4, 4), max_iters=4)

    def test_values_peak_at_seed(self):
        grid = half_space(dim=24, z_top=11)
        region = select_points(grid, (12, 12, 11), max_iters=4)
        assert region.data[12, 12, 11] == region.data.max()

    @pytest.mark.parametrize("l, max_iters", [(1, 3), (3, 4), (5, 2)])
    def test_values_count_hops(self, l, max_iters):
        # on a flat face a voxel h hops out holds max_iters + 1 - h
        grid = half_space(dim=24, z_top=11)
        region = select_points(grid, (12, 12, 11), l=l, max_iters=max_iters)
        support = np.argwhere(region.data > 0)
        hops = -(-np.abs(support[:, :2] - 12).max(axis=1) // (l // 2 or 1))
        npt.assert_array_equal(region.data[tuple(support.T)], max_iters + 1 - hops)
        weights = extract_cloud(region, "inverse-distance").weights
        assert weights.min() == (1.0 if l == 1 else 1.0 / (max_iters + 1))

    @pytest.mark.parametrize("max_iters", [1, 7, 50])
    @pytest.mark.parametrize("surface", ["half-space", "wavy"])
    def test_stationary_stop_equals_the_full_loop(self, surface, max_iters):
        # The half-space's face saturates within 6 hops of its centre; the
        # wavy face is wider than 50 hops, so its growth never stops early.
        if surface == "half-space":
            grid, seed = half_space(dim=12, z_top=5), (6, 6, 5)
        else:
            i, j = np.indices((110, 110))
            height = 4 + np.rint(2.0 * np.sin(i / 5.0) * np.cos(j / 7.0)).astype(np.int64)
            grid = unit_grid(np.arange(10) <= height[..., None])
            seed = (55, 55, int(height[55, 55]))
        outcome = selection_outcome(select_points, grid, seed, 3, max_iters, 9)
        assert outcome == selection_outcome(reference_select, grid, seed, 3, max_iters, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PerimeterTruncationWarning)
            window = select_points(grid, seed, max_iters=max_iters).window
        # a region that saturated before its last hop has no voxel holding 1
        assert (window[window > 0].min() > 1) == (surface == "half-space" and max_iters == 50)

    def test_hops_past_saturation_add_in_closed_form(self):
        grid = half_space(dim=6, z_top=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PerimeterTruncationWarning)
            few = select_points(grid, (3, 3, 2), max_iters=50).data
            many = select_points(grid, (3, 3, 2), max_iters=10**15).data
        assert many[3, 3, 2] == 10**15 + 1
        npt.assert_array_equal(many, few + (10**15 - 50) * (few > 0))

    def test_seed_hop_count_must_fit_in_int64(self):
        grid = half_space(dim=6, z_top=2)
        top = np.iinfo(np.int64).max
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PerimeterTruncationWarning)
            assert select_points(grid, (3, 3, 2), max_iters=top - 1).data[3, 3, 2] == top
        with pytest.raises(ValueError, match=rf"^max_iters must lie in 1\.\.{top - 1}, got {top}$"):
            select_points(grid, (3, 3, 2), max_iters=top)


class TestWindowedSelection:
    """The windowed selection against the whole-grid oracle above."""

    @settings(max_examples=150, deadline=None)
    @given(case=selection_cases(), spacing=st.sampled_from([(1.0, 1.0, 1.0), (0.5, 1.0, 2.0)]))
    # thin grid, query on and just past its thin face
    @example(case=(slab((3, 30, 30), 1), (1, 15, 1), 5, 6, 9), spacing=(1.0, 1.0, 1.0))
    @example(case=(slab((5, 12, 12), 2), (6, 6, 2), 5, 3, 9), spacing=(1.0, 1.0, 1.0))
    @example(case=(slab((4, 20, 20), 9), (2, 10, 9), 5, 2, 9), spacing=(1.0, 1.0, 1.0))
    # query outside the grid: snapped, just beyond the snap radius, and far away
    @example(case=(slab((20, 20, 20), 9), (-2, 10, 9), 3, 4, 9), spacing=(1.0, 1.0, 1.0))
    @example(case=(slab((20, 20, 20), 9), (26, 10, 9), 3, 4, 9), spacing=(1.0, 1.0, 1.0))
    @example(case=(slab((20, 20, 20), 9), (10, 10, -40), 3, 4, 9), spacing=(1.0, 1.0, 1.0))
    def test_equals_full_grid_reference(self, case, spacing):
        data, query, l, max_iters, epsilon = case
        grid = VoxelGrid(data, spacing, (1.5, -2.0, 0.25))
        assert (selection_outcome(select_points, grid, query, l, max_iters, epsilon)
                == selection_outcome(reference_select, grid, query, l, max_iters, epsilon))

    @settings(max_examples=150, deadline=None)
    @given(case=cloud_cases())
    def test_window_cloud_equals_full_grid_cloud(self, case):
        # the window read at its offset gives the cloud of the full grid, and
        # both give the cloud of the whole-grid oracle
        window = cloud_outcome(select_points, False, *case)
        assert window == cloud_outcome(select_points, True, *case)
        assert window == cloud_outcome(reference_select, True, *case)

    def test_non_binary_value_outside_window(self):
        data = slab((30, 30, 30), 9)
        data[29, 29, 29] = 2
        with pytest.raises(ValueError, match="binary occupancy grid"):
            select_points(unit_grid(data), (5, 5, 9), max_iters=1)

    @pytest.mark.parametrize("dims, l, message", [
        ((2, 20, 20), 3, "kernel dims (3, 3, 3) exceed grid dims (2, 20, 20)"),
        ((4, 20, 20), 5, "kernel dims (5, 5, 5) exceed grid dims (4, 20, 20)"),
    ])
    def test_kernel_larger_than_grid_names_grid_dims(self, dims, l, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            select_points(unit_grid(slab(dims, 9)), (1, 10, 9), l=l, max_iters=1)

    @pytest.mark.parametrize("query, message", [
        ((10, 10, 40), "query voxel (10, 10, 40) is beyond the snap radius"),
        ((10, 10, 15), "Chebyshev radius 3 of query voxel (10, 10, 15)"),
    ])
    def test_snap_errors_name_the_query_voxel(self, query, message):
        with pytest.raises(EmptySelectionError, match=re.escape(message)):
            select_points(half_space(dim=20, z_top=5), query, max_iters=1)

    @pytest.mark.parametrize("l, message", [
        (0, "neighborhood size must be at least 1, got 0"),
        (2, "neighborhood size must be odd, got 2"),
        (-3, "neighborhood size must be at least 1, got -3"),
    ])
    def test_bad_neighborhood_is_rejected_before_the_snap(self, l, message):
        # (10, 10, 5) lies inside the solid, off the boundary mask
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            select_points(half_space(dim=20, z_top=9), (10, 10, 5), l=l, max_iters=1)

    def test_region_far_from_the_edge_leaves_the_rest_zero(self):
        grid = half_space(dim=64, z_top=31)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PerimeterTruncationWarning)
            region = select_points(grid, (32, 32, 31), max_iters=2)
        assert region.dims == grid.dims and region.data.dtype == np.int64
        support = np.argwhere(region.data > 0)
        assert np.abs(support - [32, 32, 31]).max() == 2


class TestRegion:
    def test_window_offset_and_parent_geometry(self):
        grid = VoxelGrid(slab((64, 64, 64), 31), (0.5, 1.0, 2.0), (1.5, -2.0, 0.25))
        region = select_points(grid, (32, 32, 31), max_iters=2)
        assert region.dims == grid.dims
        npt.assert_array_equal(region.spacing, grid.spacing)
        npt.assert_array_equal(region.origin, grid.origin)
        # the window spans Chebyshev radius l + max_iters + 1 = 6 around the seed
        assert region.offset == (26, 26, 25) and region.window.shape == (13, 13, 13)
        full = region.data
        npt.assert_array_equal(full[26:39, 26:39, 25:38], region.window)
        assert full.sum() == region.window.sum()

    def test_data_is_built_once_and_read_only(self):
        region = select_points(half_space(dim=24, z_top=11), (12, 12, 11), max_iters=2)
        assert region.data is region.data
        with pytest.raises(ValueError, match="read-only"):
            region.data[0, 0, 0] = 1

    def test_selection_allocates_well_below_the_grid(self):
        # Peak traced allocation of the default selection and extraction on a
        # 64^3 grid: measured 0.33 of grid.data.nbytes (686 416 bytes, about
        # 7 window-sized 23^3 int64 arrays, ufunc buffers included). With a
        # full-size region grid and the three-pass binary check it was 1.19.
        grid = half_space(dim=64, z_top=31)
        extract_cloud(select_points(grid, (32, 32, 31)))
        tracemalloc.start()
        try:
            cloud = extract_cloud(select_points(grid, (32, 32, 31)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cloud.n_x == 225
        assert peak < 0.5 * grid.data.nbytes, peak


class TestExtractCloud:
    def test_single_voxel(self):
        data = np.zeros((6, 6, 6), dtype=np.int64)
        data[2, 3, 4] = 7
        region = VoxelGrid(data, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        cloud = extract_cloud(region)
        npt.assert_array_equal(cloud.points, [[2.0, 3.0, 4.0]])
        npt.assert_array_equal(cloud.weights, [1.0])

    def test_spacing_and_origin(self):
        data = np.zeros((4, 4, 4), dtype=np.int64)
        data[1, 2, 3] = 1
        region = VoxelGrid(data, (0.5, 2.0, 1.0), (10.0, -1.0, 0.25))
        cloud = extract_cloud(region)
        npt.assert_allclose(cloud.points, [[10.5, 3.0, 3.25]])

    def test_uniform_weights(self):
        grid = half_space()
        region = select_points(grid, (10, 10, 9), max_iters=2)
        cloud = extract_cloud(region, "uniform")
        assert (cloud.weights == 1.0).all()

    def test_inverse_distance_weights(self):
        grid = half_space(dim=24, z_top=11)
        region = select_points(grid, (12, 12, 11), max_iters=3)
        cloud = extract_cloud(region, "inverse-distance")
        assert (cloud.weights > 0).all() and (cloud.weights <= 1.0).all()
        seed_row = np.flatnonzero((cloud.points == [12.0, 12.0, 11.0]).all(axis=1))
        assert cloud.weights[seed_row[0]] == 1.0

    def test_locality_bound(self):
        grid = half_space(dim=24, z_top=11)
        l, max_iters = 3, 4
        region = select_points(grid, (12, 12, 11), l=l, max_iters=max_iters)
        cloud = extract_cloud(region)
        cheb = np.abs(cloud.points - np.array([12.0, 12.0, 11.0])).max(axis=1)
        assert cheb.max() <= 1.0 * l * max_iters

    def test_external_map(self):
        data = np.zeros((5, 5, 5), dtype=np.int64)
        data[1, 1, 1] = 3
        data[2, 2, 2] = 1
        region = VoxelGrid(data, (1, 1, 1), (0, 0, 0))
        wmap = VoxelGrid(np.full((5, 5, 5), 0.5), (1, 1, 1), (0, 0, 0))
        cloud = extract_cloud(region, "external-map", wmap)
        npt.assert_array_equal(cloud.weights, [0.5, 0.5])
        with pytest.raises(ValueError):
            extract_cloud(region, "external-map", None)
        bad = VoxelGrid(np.zeros((5, 5, 5)), (1, 1, 1), (0, 0, 0))
        with pytest.raises(ValueError):
            extract_cloud(region, "external-map", bad)

    def test_external_map_dims_must_match(self):
        data = np.zeros((5, 5, 5), dtype=np.int64)
        data[1, 1, 1] = 1
        region = VoxelGrid(data, (1, 1, 1), (0, 0, 0))
        wmap = VoxelGrid(np.ones((5, 5, 4)), (1, 1, 1), (0, 0, 0))
        message = "weight grid dims (5, 5, 4) do not match region dims (5, 5, 5)"
        with pytest.raises(ValueError, match=re.escape(message)):
            extract_cloud(region, "external-map", wmap)
        # same dims on other voxels: a shifted origin, a different spacing
        for spacing, origin in (((1, 1, 1), (0, 0, 0.5)), ((1, 2, 1), (0, 0, 0))):
            wmap = VoxelGrid(np.ones((5, 5, 5)), spacing, origin)
            with pytest.raises(ValueError, match="do not match region spacing"):
                extract_cloud(region, "external-map", wmap)

    def test_empty_region(self):
        region = VoxelGrid(np.zeros((4, 4, 4), dtype=np.int64), (1, 1, 1), (0, 0, 0))
        with pytest.raises(EmptySelectionError):
            extract_cloud(region)

    def test_unknown_mode(self):
        data = np.zeros((4, 4, 4), dtype=np.int64)
        data[0, 0, 0] = 1
        with pytest.raises(ValueError):
            extract_cloud(VoxelGrid(data, (1, 1, 1), (0, 0, 0)), "nearest")


class TestPointCloudType:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((2, 3)), [1.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((2, 3)), [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        points = np.zeros((3, 3))
        points[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            PointCloud(points, np.ones(3))

    def test_rejects_infinite_weights(self):
        with pytest.raises(ValueError, match="finite"):
            PointCloud(np.zeros((2, 3)), [1.0, np.inf])


class TestVoxelGridType:
    @pytest.mark.parametrize("shape", [(0, 4, 4), (4, 0, 4), (4, 4, 0)])
    def test_rejects_empty_axes(self, shape):
        with pytest.raises(ValueError, match="non-empty"):
            VoxelGrid(np.zeros(shape, dtype=np.int64), (1, 1, 1), (0, 0, 0))

    @settings(max_examples=300, deadline=None)
    @given(data=near_binary_arrays())
    def test_is_binary_matches_the_elementwise_check(self, data):
        grid = VoxelGrid(data, (1, 1, 1), (0, 0, 0))
        assert grid.is_binary() == bool(((data == 0) | (data == 1)).all())
