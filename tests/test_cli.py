"""End-to-end command-line runs, exit codes, and output determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from patchfit import ProjectionError, VoxelGrid, design_matrix, g_value, project_point
from patchfit.io import read_point_cloud, read_surface_model, write_point_cloud, write_voxel_grid
from patchfit.voxel import PointCloud


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

    def test_empty_selection_exit_code(self, tmp_path, half_space_grid):
        out = tmp_path / "cloud.csv"
        result = run_cli("select", str(half_space_grid), "-o", str(out),
                         "--seed-voxel", "10", "10", "18", "--max-iters", "2")
        assert result.returncode == 4
        assert "error" in result.stderr

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
            grid = np.linspace(0.0, 1.0, 5)  # the default --init-grid
            starts = [(u, v) for u in grid for v in grid]
            values = [g_value(point, u, v, model.surface) for u, v in starts]
            u0, v0 = starts[int(np.argmin(values))]
    try:
        res = project_point(point, model.surface, u0, v0)
    except ProjectionError:
        return "nan,nan,nan,0"
    return f"{res.u!r},{res.v!r},{float(np.sqrt(2.0 * res.g))!r},{int(res.converged)}"


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
        (1e160, 1.0), (1e200, 1.0), (1.0, 1e200), (1.0, 1e-200),
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
        ("--fixed-orders -1 2", "fixed_orders must be at least 1"),
        ("--fixed-orders 0 3", "fixed_orders must be at least 1"),
        ("--lam nan", "lam must be finite and nonnegative"),
        ("--lam inf", "lam must be finite and nonnegative"),
        ("--rel-sigma2-tol nan", "rel_sigma2_tol must be finite and nonnegative"),
        ("--grad-tol nan", "grad_tol must be finite and strictly positive"),
        ("--grad-tol inf", "grad_tol must be finite and strictly positive"),
    ])
    def test_bad_settings_are_a_usage_error(self, tmp_path, saddle_cloud, flags, message):
        result = run_cli("fit", str(saddle_cloud), "-o", str(tmp_path / "s.json"), *flags.split())
        assert result.returncode == 2
        assert f"error: {message}" in result.stderr
        assert "Traceback" not in result.stderr

    def test_rank_deficiency_exit_code(self, tmp_path):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(3, 3))
        path = tmp_path / "tiny.csv"
        write_point_cloud(PointCloud(pts, np.ones(3)), path)
        result = run_cli("fit", str(path), "-o", str(tmp_path / "s.json"), "--lam", "0")
        assert result.returncode == 3

    def test_fixed_orders_flag(self, tmp_path, saddle_cloud):
        out = tmp_path / "s.json"
        result = run_cli("fit", str(saddle_cloud), "-o", str(out),
                         "--fixed-orders", "2", "2")
        assert result.returncode == 0, result.stderr
        assert "orders (2, 2)" in result.stdout

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
        from patchfit import surface_eval, surface_jacobian

        u0, v0 = 0.4, 0.6
        jac = surface_jacobian(u0, v0, model.surface)
        normal = np.cross(jac[0], jac[1])
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
        assert out.read_text().splitlines()[1:] == ["nan,nan,nan,0"] * 2

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

    def test_config_validation_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("[spec]\nsurface = plane\nwrong_field = 3\n")
        result = run_cli("study", str(config), "-o", str(tmp_path / "x"))
        assert result.returncode == 2
        assert "wrong_field" in result.stderr

    def test_missing_config(self, tmp_path):
        result = run_cli("study", str(tmp_path / "none.cfg"), "-o", str(tmp_path / "x"))
        assert result.returncode == 2


class TestHelpDefaults:
    def test_fit_help_lists_module_defaults(self):
        result = run_cli("fit", "--help")
        assert result.returncode == 0
        for token in ("0.001", "10", "1e-10", "0.0001", "0.5", "50"):
            assert token in result.stdout

    def test_select_help_lists_module_defaults(self):
        result = run_cli("select", "--help")
        for token in ("9", "3", "7", "uniform"):
            assert token in result.stdout
