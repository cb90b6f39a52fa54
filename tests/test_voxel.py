"""Boundary detection and region growth against counting and BFS oracles."""

import warnings
from collections import deque

import numpy as np
import numpy.testing as npt
import pytest

from patchfit import (
    EmptySelectionError,
    Kernel3,
    PerimeterTruncationWarning,
    PointCloud,
    VoxelGrid,
    boundary_mask,
    convolve3,
    extract_cloud,
    laplacian_kernel,
    ones_kernel,
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


class TestKernels:
    def test_laplacian_entries(self):
        w = laplacian_kernel().weights
        assert w[1, 1, 1] == 26
        assert w.sum() == 0
        off_center = w.copy()
        off_center[1, 1, 1] = -1
        assert (off_center == -1).all()

    def test_ones_kernel_validation(self):
        assert ones_kernel(3).weights.sum() == 27
        with pytest.raises(ValueError):
            ones_kernel(4)

    def test_kernel_requires_odd_dims(self):
        with pytest.raises(ValueError):
            Kernel3(np.ones((2, 3, 3), dtype=int))


class TestConvolve3:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        grid = unit_grid(rng.integers(0, 5, (6, 7, 8)))
        kernel = np.zeros((3, 3, 3), dtype=np.int64)
        kernel[1, 1, 1] = 1
        out = convolve3(grid, Kernel3(kernel))
        npt.assert_array_equal(out.data, grid.data)

    def test_laplacian_on_all_ones_interior(self):
        grid = unit_grid(np.ones((9, 9, 9)))
        out = convolve3(grid, laplacian_kernel())
        assert out.data[4, 4, 4] == 0

    def test_laplacian_single_voxel(self):
        data = np.zeros((7, 7, 7), dtype=np.int64)
        data[3, 3, 3] = 1
        out = convolve3(unit_grid(data), laplacian_kernel())
        assert out.data[3, 3, 3] == 26

    def test_kernel_larger_than_grid(self):
        grid = unit_grid(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            convolve3(grid, laplacian_kernel())


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


class TestSelectPoints:
    def test_isolated_voxel_support_is_seed(self):
        data = np.zeros((11, 11, 11), dtype=np.int64)
        data[5, 5, 5] = 1
        region = select_points(unit_grid(data), (5, 5, 5), max_iters=3)
        npt.assert_array_equal(np.argwhere(region.data > 0), [[5, 5, 5]])

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
