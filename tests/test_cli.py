"""End-to-end command-line runs, exit codes, and output determinism."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from patchfit import (
    DegenerateGeometryError,
    EmptySelectionError,
    FileFormatError,
    FitSettings,
    PatchFitError,
    PerimeterTruncationWarning,
    ProjectionError,
    RankDeficiencyError,
    VoxelGrid,
    design_matrix,
    fit_surface,
    g_value,
    project_point,
)
from patchfit import cli
from patchfit.cli import build_parser
from patchfit.io import (read_point_cloud, read_surface_model, write_point_cloud,
                         write_surface_model, write_voxel_grid)
from patchfit.voxel import PointCloud

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "patchfit", *args],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture
def half_space_grid(tmp_path):
    data = np.zeros((20, 20, 20), dtype=np.int64)
    data[:, :, :10] = 1
    path = tmp_path / "grid.vox"
    write_voxel_grid(VoxelGrid(data, (1, 1, 1), (0, 0, 0)), path)
    return path


@pytest.fixture
def saddle_cloud(tmp_path):
    rng = np.random.default_rng(21)
    xy = rng.uniform(-1, 1, (80, 2))
    points = np.column_stack([xy, 0.3 * xy[:, 0] * xy[:, 1]])
    points += 0.01 * rng.normal(size=points.shape)
    path = tmp_path / "cloud.csv"
    write_point_cloud(PointCloud(points, np.ones(80)), path)
    return path


class TestSelect:
    def test_half_space_cloud_is_coplanar(self, tmp_path, half_space_grid):
        out = tmp_path / "cloud.csv"
        result = run_cli("select", str(half_space_grid), "-o", str(out),
                         "--seed-voxel", "10", "10", "9", "--max-iters", "4")
        assert result.returncode == 0, result.stderr
        assert "points" in result.stdout
        cloud = read_point_cloud(out)
        assert cloud.n_x == 81
        # plane-fit residual bounded by voxel spacing
        centered = cloud.points - cloud.points.mean(axis=0)
        svals = np.linalg.svd(centered, compute_uv=False)
        assert svals[2] <= 1.0

    def test_physical_query_point(self, tmp_path, half_space_grid):
        out = tmp_path / "cloud.csv"
        result = run_cli("select", str(half_space_grid), "-o", str(out),
                         "--query", "10.2", "9.8", "9.3", "--max-iters", "2")
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("spacing, coords", [
        (1.0, ("inf", "0", "0")),
        (1.0, ("0", "nan", "0")),
        # Finite, but (query - origin) / spacing overflows.
        (0.5, ("1.7e308", "0", "0")),
    ])
    def test_non_finite_query_is_a_usage_error(self, tmp_path, spacing, coords):
        data = np.zeros((20, 20, 20), dtype=np.int64)
        data[:, :, :10] = 1
        grid = tmp_path / "grid.vox"
        write_voxel_grid(VoxelGrid(data, (spacing,) * 3, (0, 0, 0)), grid)
        result = run_cli("select", str(grid), "-o", str(tmp_path / "cloud.csv"),
                         "--query", *coords)
        assert result.returncode == 2
        assert "--query" in result.stderr
        assert "Traceback" not in result.stderr
        assert "Warning" not in result.stderr
        assert not (tmp_path / "cloud.csv").exists()

    @pytest.mark.parametrize("exponent, plain", [("-1e1", "-10.0"), ("-1E+1", "-10.0"),
                                                 ("-.5e0", "-0.5")])
    def test_query_accepts_negative_exponent_form(self, exponent, plain):
        def query(x):
            return build_parser().parse_args(["select", "g.vox", "-o", "c.csv",
                                              "--query", x, "-2", x]).query
        assert query(exponent) == query(plain) == [float(plain), -2.0, float(plain)]

    def test_non_finite_integral_grid_is_not_binary(self, tmp_path):
        grid = tmp_path / "grid.vox"
        grid.write_text("VOX1 2 1 1 1 1 1 0 0 0\n1 inf\n")
        result = run_cli("select", str(grid), "-o", str(tmp_path / "c.csv"),
                         "--seed-voxel", "0", "0", "0")
        assert result.returncode == 2
        assert "error: boundary_mask requires a binary occupancy grid" in result.stderr
        assert "Warning" not in result.stderr

    def test_empty_selection_exit_code(self, tmp_path, half_space_grid):
        out = tmp_path / "cloud.csv"
        result = run_cli("select", str(half_space_grid), "-o", str(out),
                         "--seed-voxel", "10", "10", "18", "--max-iters", "2")
        assert result.returncode == 4
        assert "error" in result.stderr

    @pytest.mark.parametrize("epsilon", ["-3", "0", "27", "40"])
    def test_epsilon_outside_one_to_26_is_a_usage_error(self, tmp_path, half_space_grid, epsilon):
        out = tmp_path / "cloud.csv"
        result = run_cli("select", str(half_space_grid), "-o", str(out),
                         "--seed-voxel", "10", "10", "9", "--epsilon", epsilon)
        assert result.returncode == 2
        assert result.stderr == f"error: epsilon must lie in 1..26, got {epsilon}\n"
        assert not out.exists()

    @pytest.mark.parametrize("l, message", [
        ("0", "neighborhood size must be at least 1, got 0"),
        ("2", "neighborhood size must be odd, got 2"),
        ("-3", "neighborhood size must be at least 1, got -3"),
    ])
    def test_bad_neighborhood_is_a_usage_error(self, tmp_path, half_space_grid, l, message):
        # the seed lies inside the solid, off the boundary mask
        result = run_cli("select", str(half_space_grid), "-o", str(tmp_path / "cloud.csv"),
                         "--seed-voxel", "10", "10", "5", "--l", l)
        assert result.returncode == 2
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("mode", [None, "uniform", "inverse-distance"])
    def test_weight_grid_needs_external_map(self, tmp_path, mode):
        # neither grid exists: the flags are rejected before either is read
        args = ["select", str(tmp_path / "missing.vox"), "-o", str(tmp_path / "cloud.csv"),
                "--seed-voxel", "0", "0", "0", "--weight-grid", str(tmp_path / "w.vox")]
        result = run_cli(*args, *(["--weight-mode", mode] if mode else []))
        assert result.returncode == 2
        assert result.stderr == ("error: --weight-grid is read only with "
                                 "--weight-mode external-map\n")
        assert not (tmp_path / "cloud.csv").exists()

    def test_external_map_needs_weight_grid(self, tmp_path):
        # the occupancy grid does not exist: the mode is rejected before it is read
        result = run_cli("select", str(tmp_path / "missing.vox"), "-o", str(tmp_path / "cloud.csv"),
                         "--seed-voxel", "0", "0", "0", "--weight-mode", "external-map")
        assert result.returncode == 2
        assert result.stderr == "error: external-map mode requires a weight grid\n"
        assert not (tmp_path / "cloud.csv").exists()

    @pytest.mark.parametrize("weights", [None, "not a grid\n"], ids=["missing", "malformed"])
    def test_weight_grid_is_read_before_the_region_grows(self, tmp_path, half_space_grid,
                                                         monkeypatch, capsys, weights):
        def never(*args, **kwargs):
            raise AssertionError("select_points ran before the weight grid was read")

        monkeypatch.setattr(cli, "select_points", never)
        path = tmp_path / "w.vox"
        if weights is not None:
            path.write_text(weights)
        code = cli.main(["select", str(half_space_grid), "-o", str(tmp_path / "cloud.csv"),
                         "--seed-voxel", "10", "10", "9", "--weight-mode", "external-map",
                         "--weight-grid", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "cloud.csv").exists()

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.vox"
        bad.write_text("not a grid\n")
        result = run_cli("select", str(bad), "-o", str(tmp_path / "x.csv"),
                         "--seed-voxel", "0", "0", "0")
        assert result.returncode == 2

    def test_usage_error(self):
        result = run_cli("select")
        assert result.returncode == 2

    def test_negative_grid_dimensions_exit_code(self, tmp_path):
        bad = tmp_path / "bad.vox"
        bad.write_text("VOX1 -2 -2 2 1 1 1 0 0 0\n1 1 1 1 1 1 1 1\n")
        result = run_cli("select", str(bad), "-o", str(tmp_path / "x.csv"),
                         "--seed-voxel", "0", "0", "0")
        assert result.returncode == 2
        assert "bad.vox:1" in result.stderr

    def test_zero_spacing_exit_code(self, tmp_path):
        bad = tmp_path / "bad.vox"
        bad.write_text("VOX1 1 1 1 0 1 1 0 0 0\n1\n")
        result = run_cli("select", str(bad), "-o", str(tmp_path / "x.csv"),
                         "--seed-voxel", "0", "0", "0")
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {bad}:1: spacing must be strictly positive")

    def test_growth_past_saturation_costs_no_hops(self, tmp_path, capsys):
        # the 6^3 half-space's face saturates within a few hops
        data = np.zeros((6, 6, 6), dtype=np.int64)
        data[:, :, :3] = 1
        grid = tmp_path / "grid.vox"
        write_voxel_grid(VoxelGrid(data, (1, 1, 1), (0, 0, 0)), grid)
        clouds = []
        for max_iters in (50, 10**15):
            out = tmp_path / f"cloud_{max_iters}.csv"
            start = time.perf_counter()
            with pytest.warns(PerimeterTruncationWarning):
                code = cli.main(["select", str(grid), "-o", str(out), "--seed-voxel", "3", "3", "2",
                                 "--max-iters", str(max_iters)])
            assert time.perf_counter() - start < 0.5
            assert code == 0
            clouds.append(read_point_cloud(out).points)
            # the summary counts the hops that grew the region, not the cap
            summary = capsys.readouterr().out
            assert summary == f"selected 92 points in 5 growth iterations -> {out}\n"
        np.testing.assert_array_equal(clouds[0], clouds[1])

    def test_seed_hop_count_beyond_int64_is_a_usage_error(self, tmp_path, half_space_grid, capsys):
        out = tmp_path / "cloud.csv"
        assert cli.main(["select", str(half_space_grid), "-o", str(out),
                         "--seed-voxel", "10", "10", "9", "--max-iters", str(2**63)]) == 2
        assert capsys.readouterr() == ("", f"error: max_iters must lie in 1..{2**63 - 2}, "
                                           f"got {2**63}\n")
        assert not out.exists()

    def test_curved_boundary_point_count(self, tmp_path):
        # 15 mm cube at 1 mm spacing around a spherical boundary; the point
        # count is reported, not asserted
        idx = np.indices((15, 15, 15))
        dist2 = (idx[0] - 7.0) ** 2 + (idx[1] - 7.0) ** 2 + (idx[2] + 12.0) ** 2
        data = (dist2 <= 20.0**2).astype(np.int64)
        path = tmp_path / "curved.vox"
        write_voxel_grid(VoxelGrid(data, (1, 1, 1), (0, 0, 0)), path)
        out = tmp_path / "cloud.csv"
        result = run_cli("select", str(path), "-o", str(out), "--seed-voxel", "4", "7", "7")
        assert result.returncode == 0, result.stderr
        n_x = read_point_cloud(out).n_x
        print(f"curved boundary selection: n_x = {n_x}")
        assert n_x > 0


def reference_row(point, model):
    """One probe's output row, projected on its own: the batched CLI path must match it."""
    with np.errstate(over="ignore", invalid="ignore"):
        if model.u.size:
            records = design_matrix(model.u, model.v, model.n_u, model.n_v).T @ model.surface.flat
            j = int(np.argmin(np.sum((point - records) ** 2, axis=1)))
            u0, v0 = model.u[j], model.v[j]
        else:
            grid = np.linspace(0.0, 1.0, 5)  # the fixed start lattice of record-less documents
            starts = [(u, v) for u in grid for v in grid]
            values = [g_value(point, u, v, model.surface) for u, v in starts]
            u0, v0 = starts[int(np.argmin(values))]
    try:
        res = project_point(point, model.surface, u0, v0)
    except ProjectionError:
        return "nan,nan,nan,0"
    u, v, g, converged = res.u[0], res.v[0], res.g_final[0], res.converged[0]
    return f"{float(u)!r},{float(v)!r},{float(np.sqrt(2.0 * g))!r},{int(converged)}"


class TestFit:
    def test_fit_plane_prints_orders(self, tmp_path, half_space_grid):
        cloud = tmp_path / "cloud.csv"
        run_cli("select", str(half_space_grid), "-o", str(cloud),
                "--seed-voxel", "10", "10", "9", "--max-iters", "4")
        out = tmp_path / "surface.json"
        result = run_cli("fit", str(cloud), "-o", str(out), "--lam", "0")
        assert result.returncode == 0, result.stderr
        assert "orders (1, 1)" in result.stdout

    @pytest.mark.parametrize("row", ["nan,0.5,0.5,1.0", "0.5,0.5,0.5,inf"])
    def test_non_finite_cloud_is_a_usage_error(self, tmp_path, saddle_cloud, row):
        path = tmp_path / "bad.csv"
        path.write_text(saddle_cloud.read_text() + row + "\n")
        result = run_cli("fit", str(path), "-o", str(tmp_path / "s.json"))
        assert result.returncode == 2
        assert "points and weights must be finite" in result.stderr

    @pytest.mark.parametrize("point_scale, weight", [
        (1e160, 1.0), (1e200, 1.0), (1.0, 1e200), (1.0, 1e-200), (1.0, 1e-155), (1.0, 1e-160),
    ])
    def test_overflowing_magnitudes_are_a_usage_error(self, tmp_path, saddle_cloud,
                                                       point_scale, weight):
        cloud = read_point_cloud(saddle_cloud)
        path = tmp_path / "scaled.csv"
        write_point_cloud(PointCloud(point_scale * cloud.points, np.full(cloud.n_x, weight)), path)
        out = tmp_path / "s.json"
        result = run_cli("fit", str(path), "-o", str(out))
        assert result.returncode == 2
        assert "error: weighted squared spread of the cloud is" in result.stderr
        assert "Warning" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        ("--fixed-orders -1 2", "fixed_orders[0] must be at least 1, got -1"),
        ("--fixed-orders 0 3", "fixed_orders[0] must be at least 1, got 0"),
        ("--lam nan", "lam must be finite and nonnegative"),
        ("--lam inf", "lam must be finite and nonnegative"),
        ("--rel-sigma2-tol nan", "rel_sigma2_tol must be finite and nonnegative"),
        ("--max-outer-iters 0", "max_outer_iters must be at least 1, got 0"),
        ("--order-cap-u 0", "order_cap[0] must be at least 1, got 0"),
        ("--order-cap-v 0", "order_cap[1] must be at least 1, got 0"),
        ("--fixed-orders 1100 1", "order 1100 has binomial coefficients beyond the float range"),
    ])
    def test_bad_settings_are_a_usage_error(self, tmp_path, saddle_cloud, flags, message):
        result = run_cli("fit", str(saddle_cloud), "-o", str(tmp_path / "s.json"), *flags.split())
        assert result.returncode == 2
        assert result.stderr == f"error: {message}\n"

    def test_too_few_points_is_a_usage_error(self, tmp_path):
        path = tmp_path / "two.csv"
        write_point_cloud(PointCloud(np.eye(2, 3), np.ones(2)), path)
        result = run_cli("fit", str(path), "-o", str(tmp_path / "s.json"))
        assert result.returncode == 2
        assert result.stderr == "error: need at least 3 points to fit, got 2\n"

    def test_coincident_points_are_degenerate(self, tmp_path):
        # Rescaling cannot spread them, so it is a numerical failure, not a usage error.
        path = tmp_path / "coincident.csv"
        write_point_cloud(PointCloud(np.ones((10, 3)), np.ones(10)), path)
        result = run_cli("fit", str(path), "-o", str(tmp_path / "s.json"))
        assert result.returncode == 3
        assert result.stderr == ("error: all 10 points coincide; a surface needs points "
                                 "spread over two directions\n")

    def test_rank_deficiency_exit_code(self, tmp_path):
        # Every candidate order of the search is singular: the last one's own
        # error is printed.
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(3, 3))
        path = tmp_path / "tiny.csv"
        write_point_cloud(PointCloud(pts, np.ones(3)), path)
        result = run_cli("fit", str(path), "-o", str(tmp_path / "s.json"), "--lam", "0")
        assert result.returncode == 3
        assert result.stderr == ("error: control-point system is singular; increase the "
                                 "regularization strength or supply more points\n")

    def test_fixed_orders_flag(self, tmp_path, saddle_cloud):
        out = tmp_path / "s.json"
        result = run_cli("fit", str(saddle_cloud), "-o", str(out),
                         "--fixed-orders", "2", "2")
        assert result.returncode == 0, result.stderr
        assert "orders (2, 2)" in result.stdout

    @pytest.mark.parametrize("flags, settings", [
        (["--max-outer-iters", "1"], {"max_outer_iters": 1}),
        (["--order-cap-u", "1"], {"order_cap": (1, 6)}),
        (["--order-cap-v", "1"], {"order_cap": (6, 1)}),
    ])
    def test_loop_flags_equal_the_library(self, tmp_path, saddle_cloud, flags, settings):
        out = tmp_path / "s.json"
        result = run_cli("fit", str(saddle_cloud), "-o", str(out), *flags)
        assert result.returncode == 0, result.stderr
        cloud = read_point_cloud(saddle_cloud)
        expected = tmp_path / "expected.json"
        write_surface_model(fit_surface(cloud, FitSettings(**settings))[0], cloud, expected)
        assert out.read_bytes() == expected.read_bytes()
        if "max_outer_iters" in settings:
            assert "iterations 1 " in result.stdout

    def test_fit_deterministic_rerun(self, tmp_path, saddle_cloud):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        r1 = run_cli("fit", str(saddle_cloud), "-o", str(out1))
        r2 = run_cli("fit", str(saddle_cloud), "-o", str(out2))
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestProject:
    def test_project_surface_samples(self, tmp_path, saddle_cloud):
        surface = tmp_path / "surface.json"
        run_cli("fit", str(saddle_cloud), "-o", str(surface))
        model, _ = read_surface_model(surface)
        from patchfit import design_matrix

        samples = design_matrix(model.u[:10], model.v[:10], model.n_u, model.n_v).T
        samples = samples @ model.surface.flat
        sample_path = tmp_path / "samples.csv"
        write_point_cloud(PointCloud(samples, np.ones(10)), sample_path)
        out = tmp_path / "proj.csv"
        result = run_cli("project", str(surface), str(sample_path), "-o", str(out))
        assert result.returncode == 0, result.stderr
        rows = out.read_text().splitlines()
        assert rows[0] == "u,v,distance,converged"
        scale = np.abs(samples).max()
        for row in rows[1:]:
            u, v, dist, conv = row.split(",")
            assert float(dist) <= 1e-8 * scale
            assert conv == "1"

    def test_offset_point_distance(self, tmp_path, saddle_cloud):
        surface_path = tmp_path / "surface.json"
        run_cli("fit", str(saddle_cloud), "-o", str(surface_path))
        model, _ = read_surface_model(surface_path)
        from patchfit import surface_eval
        from patchfit.bezier import _surface_derivs

        u0, v0 = 0.4, 0.6
        _, su, sv, _, _, _ = _surface_derivs(np.array([u0]), np.array([v0]), model.surface.control)
        normal = np.cross(su[:, 0], sv[:, 0])
        normal /= np.linalg.norm(normal)
        offset = 0.05
        point = surface_eval(u0, v0, model.surface) + offset * normal
        point_path = tmp_path / "one.csv"
        write_point_cloud(PointCloud([point], [1.0]), point_path)
        out = tmp_path / "proj.csv"
        result = run_cli("project", str(surface_path), str(point_path), "-o", str(out))
        assert result.returncode == 0
        dist = float(out.read_text().splitlines()[1].split(",")[2])
        assert dist == pytest.approx(offset, rel=1e-3)

    def test_empty_cloud_usage_error(self, tmp_path, saddle_cloud):
        surface_path = tmp_path / "surface.json"
        run_cli("fit", str(saddle_cloud), "-o", str(surface_path))
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y,z,w\n")
        result = run_cli("project", str(surface_path), str(empty), "-o", str(tmp_path / "p.csv"))
        assert result.returncode == 2

    def test_non_finite_probe_gets_failure_row(self, tmp_path, saddle_cloud):
        surface_path = tmp_path / "surface.json"
        run_cli("fit", str(saddle_cloud), "-o", str(surface_path))
        probes = tmp_path / "probes.csv"
        probes.write_text("x,y,z,w\n0.1,0.2,0.0,1.0\nnan,nan,nan,1.0\n")
        out = tmp_path / "p.csv"
        result = run_cli("project", str(surface_path), str(probes), "-o", str(out))
        assert result.returncode == 0, result.stderr
        rows = out.read_text().splitlines()
        assert len(rows) == 3 and rows[2] == "nan,nan,nan,0"

    def test_only_non_finite_probes_is_a_numerical_failure(self, tmp_path, saddle_cloud):
        surface_path = tmp_path / "surface.json"
        run_cli("fit", str(saddle_cloud), "-o", str(surface_path))
        probes = tmp_path / "probes.csv"
        probes.write_text("x,y,z,w\nnan,0.0,0.0,1.0\ninf,1.0,1.0,1.0\n")
        out = tmp_path / "p.csv"
        result = run_cli("project", str(surface_path), str(probes), "-o", str(out))
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == "error: none of the 2 probes could be projected\n"
        assert out.read_text().splitlines()[1:] == ["nan,nan,nan,0"] * 2

    def test_non_finite_record_is_a_format_error(self, tmp_path, saddle_cloud):
        # a NaN u would start every probe at NaN, so the document is refused
        surface_path = tmp_path / "surface.json"
        run_cli("fit", str(saddle_cloud), "-o", str(surface_path))
        doc = json.loads(surface_path.read_text())
        doc["points"][0]["u"] = float("nan")
        surface_path.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        result = run_cli("project", str(surface_path), str(saddle_cloud), "-o", str(out))
        assert result.returncode == 2
        assert result.stderr == f"error: {surface_path}: u values must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("t, message", [
        ('"1.0"', "malformed surface document (t values must be JSON numbers, got '1.0')"),
        ("true", "malformed surface document (t values must be JSON numbers, got True)"),
        ("1" + "0" * 400, "malformed surface document (int too large to convert to float)"),
        ("[" * 100_000 + "]" * 100_000, "unreadable JSON (maximum recursion depth exceeded while "
                                        "decoding a JSON array from a unicode string)"),
    ], ids=["text", "bool", "400_digit_integer", "nested_100000_deep"])
    def test_unreadable_value_is_a_format_error(self, tmp_path, saddle_cloud, t, message):
        surface_path = tmp_path / "surface.json"
        run_cli("fit", str(saddle_cloud), "-o", str(surface_path))
        doc = json.loads(surface_path.read_text())
        doc["t"] = 7
        surface_path.write_text(json.dumps(doc).replace('"t": 7', f'"t": {t}'))
        out = tmp_path / "p.csv"
        result = run_cli("project", str(surface_path), str(saddle_cloud), "-o", str(out))
        assert result.returncode == 2
        assert result.stderr == f"error: {surface_path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("records", [True, False], ids=["records", "no_records"])
    def test_rows_equal_per_point_reference(self, tmp_path, saddle_cloud, records):
        surface_path = tmp_path / "surface.json"
        run_cli("fit", str(saddle_cloud), "-o", str(surface_path))
        if not records:
            doc = json.loads(surface_path.read_text())
            doc["points"] = []
            surface_path.write_text(json.dumps(doc))
        model, _ = read_surface_model(surface_path)
        rng = np.random.default_rng(23)
        probes = np.column_stack([rng.uniform(-1, 1, (12, 2)), rng.normal(0, 0.1, 12)])
        probes = np.vstack([probes, [np.nan] * 3, [1e300, 0.0, 0.0]])
        probe_path = tmp_path / "probes.csv"
        probe_path.write_text("x,y,z,w\n" + "".join(
            f"{x!r},{y!r},{z!r},1.0\n" for x, y, z in probes.tolist()))
        out = tmp_path / "p.csv"
        result = run_cli("project", str(surface_path), str(probe_path), "-o", str(out))
        assert result.returncode == 0, result.stderr
        assert "RuntimeWarning" not in result.stderr
        rows = out.read_text().splitlines()
        assert rows[1:] == [reference_row(p, model) for p in probes]
        assert rows[-2:] == ["nan,nan,nan,0", "nan,nan,nan,0"]

    def test_far_records_take_no_start(self, tmp_path, saddle_cloud):
        # Records at u = 1e160 and 1e300 evaluate to non-finite references,
        # which must neither start a probe nor print a warning.
        surface_path = tmp_path / "surface.json"
        run_cli("fit", str(saddle_cloud), "-o", str(surface_path))
        doc = json.loads(surface_path.read_text())
        doc["points"] += [{"u": 1e160, "v": 0.5, "residual": 0.0},
                          {"u": 1e300, "v": 0.5, "residual": 0.0}]
        far_path = tmp_path / "far.json"
        far_path.write_text(json.dumps(doc))
        tables = []
        for path in (surface_path, far_path):
            out = tmp_path / f"p_{path.stem}.csv"
            result = run_cli("project", str(path), str(saddle_cloud), "-o", str(out))
            assert result.returncode == 0, result.stderr
            assert "Warning" not in result.stderr
            tables.append(out.read_bytes())
        assert tables[1] == tables[0]


class TestStudy:
    def test_study_runs_and_is_deterministic(self, tmp_path):
        config = tmp_path / "tiny.cfg"
        config.write_text(
            "[spec]\n"
            "name = tiny\n"
            "surface = plane\n"
            "n_tr = 25\n"
            "n_te = 10\n"
            "sigma2_y = 0.01\n"
            "seed = 5\n"
            "trials = 1\n"
        )
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        r1 = run_cli("study", str(config), "-o", str(out1))
        r2 = run_cli("study", str(config), "-o", str(out2))
        assert r1.returncode == 0, r1.stderr
        assert r2.returncode == 0
        for suffix in ("_table.csv", "_long.csv"):
            a = (tmp_path / f"run1{suffix}").read_bytes()
            b = (tmp_path / f"run2{suffix}").read_bytes()
            assert a == b
        header = (tmp_path / "run1_table.csv").read_text().splitlines()[0]
        for column in ("n_tr", "sigma2_y", "mean_iterations", "mean_size",
                       "mean_sigma2_tr", "mean_sigma2_te"):
            assert column in header

    def test_seed_and_trials_overrides(self, tmp_path):
        config = tmp_path / "tiny.cfg"
        config.write_text("[spec]\nsurface = plane\nn_tr = 20\nn_te = 8\n"
                          "sigma2_y = 0.01\nseed = 5\ntrials = 3\n")
        out = tmp_path / "o"
        result = run_cli("study", str(config), "-o", str(out), "--seed", "77", "--trials", "2")
        assert result.returncode == 0, result.stderr
        long_rows = (tmp_path / "o_long.csv").read_text().splitlines()
        assert len(long_rows) == 3  # header + 2 trials

    @pytest.mark.parametrize("line, message", [
        ("brute_cap = 0 0", "spec 1: brute_cap[0] must be at least 1, got 0"),
        ("sigma2_y = nan", "spec 1: noise variance must be finite and nonnegative"),
    ])
    def test_bad_spec_is_a_usage_error(self, tmp_path, line, message):
        config = tmp_path / "bad.cfg"
        good = ("[spec]\nsurface = plane\nn_tr = 20\nn_te = 8\nsigma2_y = 0.01\n"
                "seed = 5\ntrials = 1\nmode = brute\n")
        # the bad value stands in place of that field's line
        key = line.split()[0]
        config.write_text("".join(f"{row}\n" for row in good.splitlines()
                                  if row.split()[0] != key) + line + "\n")
        result = run_cli("study", str(config), "-o", str(tmp_path / "o"))
        assert result.returncode == 2
        assert result.stderr == f"error: {config}: {message}\n"
        assert not (tmp_path / "o_table.csv").exists()

    @pytest.mark.parametrize("override, message", [
        (["--seed", "-1"], "seed must be at least 0, got -1"),
        (["--trials", "0"], "trials must be at least 1, got 0"),
        (["--trials", "-2"], "trials must be at least 1, got -2"),
    ])
    def test_bad_override_is_a_usage_error(self, tmp_path, override, message):
        config = tmp_path / "tiny.cfg"
        config.write_text("[spec]\nsurface = plane\nn_tr = 20\nn_te = 8\n"
                          "sigma2_y = 0.01\nseed = 5\ntrials = 1\n")
        result = run_cli("study", str(config), "-o", str(tmp_path / "o"), *override)
        assert result.returncode == 2
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "o_table.csv").exists()

    def test_repeated_field_is_a_usage_error(self, tmp_path):
        config = tmp_path / "twice.cfg"
        config.write_text("[spec]\nsurface = plane\nn_tr = 10\nn_te = 8\n"
                          "sigma2_y = 0.01\nseed = 5\nn_tr = 20\n")
        result = run_cli("study", str(config), "-o", str(tmp_path / "o"))
        assert result.returncode == 2
        assert result.stderr == f"error: {config}:7: field n_tr given twice in one [spec]\n"
        assert not (tmp_path / "o_table.csv").exists()

    def test_config_validation_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("[spec]\nsurface = plane\nwrong_field = 3\n")
        result = run_cli("study", str(config), "-o", str(tmp_path / "x"))
        assert result.returncode == 2
        assert "wrong_field" in result.stderr

    def test_missing_config(self, tmp_path):
        result = run_cli("study", str(tmp_path / "none.cfg"), "-o", str(tmp_path / "x"))
        assert result.returncode == 2


class TestUndecodableInput:
    """A file that is not UTF-8 is a usage error whose message names the file."""

    @pytest.mark.parametrize("command, text", [
        ("select", "VOX1 2 1 1 1 1 1 0 0 0\n1 "),
        ("fit", "x,y,z,w\n0,0,0,1\n"),
        ("project", '{"n_u": 1}\n'),
        ("study", "[spec]\nsurface = plane\n"),
    ], ids=["select", "fit", "project", "study"])
    def test_names_the_file(self, tmp_path, saddle_cloud, command, text):
        path = tmp_path / "input.txt"
        path.write_bytes(text.encode() + b"\xff\n")
        out = str(tmp_path / "out")
        args = {
            "select": [str(path), "-o", out, "--seed-voxel", "0", "0", "0"],
            "fit": [str(path), "-o", out],
            "project": [str(path), str(saddle_cloud), "-o", out],
            "study": [str(path), "-o", out],
        }[command]
        result = run_cli(command, *args)
        assert result.returncode == 2
        assert result.stderr == (f"error: {path}: not UTF-8 text ('utf-8' codec can't decode "
                                 f"byte 0xff in position {len(text)}: invalid start byte)\n")


class TestExitCodes:
    """Every error a handler raises is printed once by ``main``, which picks the exit code."""

    @pytest.mark.parametrize("error, code", [
        (FileFormatError, 2),
        (EmptySelectionError, 4),
        (DegenerateGeometryError, 3),
        (RankDeficiencyError, 3),
        (ProjectionError, 3),
        (np.linalg.LinAlgError, 3),  # a ValueError too
        (MemoryError, 3),
        (ValueError, 2),
        (OSError, 2),
        (PatchFitError, 2),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_error_kind_sets_exit_code(self, monkeypatch, capsys, error, code):
        def fail(args):
            print("fitting", args.cloud)
            raise error("some message")

        monkeypatch.setattr(cli, "cmd_fit", fail)
        assert cli.main(["fit", "cloud.csv", "-o", "surface.json"]) == code
        assert capsys.readouterr() == ("fitting cloud.csv\n", "error: some message\n")

    def test_empty_message_prints_the_class_name(self, monkeypatch, capsys):
        def fail(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_fit", fail)
        assert cli.main(["fit", "cloud.csv", "-o", "surface.json"]) == 3
        assert capsys.readouterr() == ("", "error: MemoryError\n")

    def test_allocation_failure_in_a_fit_is_one_error_line(self, monkeypatch, capsys, tmp_path,
                                                          saddle_cloud):
        # numpy's own exception for a failed allocation, raised without allocating anything
        error = _ArrayMemoryError((160000, 160000), np.dtype(np.float64))

        def fail(cloud, settings):
            raise error

        monkeypatch.setattr(cli, "fit_surface", fail)
        out = tmp_path / "surface.json"
        assert cli.main(["fit", str(saddle_cloud), "-o", str(out),
                         "--fixed-orders", "400", "400"]) == 3
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert str(error).startswith("Unable to allocate")
        assert not out.exists()


class TestHelpDefaults:
    def test_fit_help_lists_module_defaults(self):
        result = run_cli("fit", "--help")
        assert result.returncode == 0
        for token in ("0.001", "10", "1e-06", "6"):
            assert token in result.stdout

    @pytest.mark.parametrize("command", [["fit", "c.csv"], ["project", "s.json", "c.csv"]],
                             ids=["fit", "project"])
    @pytest.mark.parametrize("flag", ["--max-newton-iters", "--grad-tol", "--armijo-c",
                                      "--backtrack-factor", "--max-backtracks", "--init-grid"])
    def test_projection_constants_are_not_flags(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args([*command, "-o", "out", flag, "1"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_select_help_lists_module_defaults(self):
        result = run_cli("select", "--help")
        for token in ("9", "3", "7", "uniform"):
            assert token in result.stdout
