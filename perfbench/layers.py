"""Per-layer spans and metrics, named after the patchfit modules.

``LAYER_TARGETS`` lists every function the traced run wraps, with the hooks
that count work at the same boundary. ``PER_LAYER`` lists every per-layer
metric in report order with its unit; ``per_layer_metrics`` derives them from
a traced run. Times are self times, so layers nest without double counting.
All values are per traced op unless the unit says otherwise.
"""

from __future__ import annotations

import os

import numpy as np
from patchfit.bezier import g_eval
from patchfit.errors import ProjectionError, RankDeficiencyError
from patchfit.pipeline import FitSettings, outer_iterations
from patchfit.projection import ProjectionSettings

from tracer import SpanTable, Target


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_bytes(counts, args, kwargs, result, exc):
    counts["io.read_voxel_grid.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_voxels(counts, args, kwargs, result, exc):
    counts["voxel.convolve3.voxels"] += _arg(args, kwargs, 0, "grid").data.size


def _count_lanes(counts, args, kwargs, result, exc):
    if exc is not None:
        return
    cloud = _arg(args, kwargs, 0, "cloud")
    surface = _arg(args, kwargs, 1, "surface")
    settings = _arg(args, kwargs, 4, "settings") or ProjectionSettings()
    failed = set(result.failed)
    converged = 0
    for k in range(cloud.n_x):
        if k in failed:
            continue
        _, grad, _ = g_eval(cloud.points[k], result.u[k], result.v[k], surface)
        converged += bool(np.hypot(grad[0], grad[1]) <= settings.grad_tol)
    counts["projection.project_all.lanes"] += cloud.n_x
    counts["projection.project_all.failed_lanes"] += len(failed)
    counts["projection.project_all.converged"] += converged


def _count_point(counts, args, kwargs, result, exc):
    if isinstance(exc, ProjectionError):
        counts["projection.project_point.failures"] += 1
    elif exc is None:
        counts["projection.project_point.iterations"] += result.iterations
        counts["projection.project_point.converged"] += result.converged


def _count_rows(counts, args, kwargs, result, exc):
    counts["bezier.basis_rows.rows"] += np.size(_arg(args, kwargs, 0, "values"))


def _count_columns(counts, args, kwargs, result, exc):
    if exc is None:
        counts["bezier.design_matrix.columns"] += result.shape[1]


def _count_rank_deficient(counts, args, kwargs, result, exc):
    if isinstance(exc, RankDeficiencyError):
        counts["selection.rank_deficient"] += 1


def _count_fit(counts, args, kwargs, result, exc):
    if exc is not None:
        return
    model, trace = result
    settings = _arg(args, kwargs, 1, "settings") or FitSettings()
    iters = outer_iterations(trace)
    counts["pipeline.fits"] += 1
    counts["pipeline.outer_iters"] += iters
    counts["pipeline.tol_stops"] += iters < settings.max_outer_iters
    counts["pipeline.final_size"] += model.size


LAYER_TARGETS = [
    Target("patchfit.io", "read_voxel_grid", "io.read_voxel_grid", _count_bytes),
    Target("patchfit.voxel", "boundary_mask", "voxel.boundary_mask"),
    Target("patchfit.voxel", "select_points", "voxel.select_points"),
    Target("patchfit.voxel", "convolve3", "voxel.convolve3", _count_voxels),
    Target("patchfit.voxel", "extract_cloud", "voxel.extract_cloud"),
    Target("patchfit.projection", "project_all", "projection.project_all", _count_lanes),
    Target("patchfit.projection", "project_point", "projection.project_point", _count_point),
    Target("patchfit.bezier", "_basis_rows", "bezier.basis_rows", _count_rows),
    Target("patchfit.bezier", "_basis_rows_derivs", "bezier.basis_rows", _count_rows),
    Target("patchfit.bezier", "design_matrix", "bezier.design_matrix", _count_columns),
    Target("patchfit.control", "solve_control_points", "control.solve_control_points",
           _count_rank_deficient),
    Target("patchfit.control", "weighted_objective", "control.objective"),
    Target("patchfit.selection", "mdl_select", "selection.mdl_select"),
    Target("patchfit.selection", "sigma2_hat", "selection.sigma2_hat"),
    Target("patchfit.pipeline", "fit_surface", "pipeline.fit_surface", _count_fit),
    Target("patchfit.simulate", "make_dataset", "simulate.make_dataset"),
    Target("patchfit.simulate", "eval_fit", "simulate.eval_fit"),
    Target("patchfit.cli", "cmd_select", "cli.select"),
    Target("patchfit.cli", "cmd_fit", "cli.fit"),
    Target("patchfit.cli", "cmd_project", "cli.project"),
]

# Spans whose inclusive time is an end-to-end stage latency. The untraced
# run wraps only these, without hooks: a few spans per op.
STAGE_SPANS = {
    "pipeline.fit_surface": "fit",
    "simulate.eval_fit": "eval",
    "cli.select": "select",
    "cli.project": "project",
}
STAGE_TARGETS = [Target(t.module, t.attr, t.span) for t in LAYER_TARGETS if t.span in STAGE_SPANS]

PER_LAYER = [
    ("io.read_voxel_grid.s", "s/op"),
    ("io.read_voxel_grid.bytes", "bytes/op"),
    ("voxel.boundary_mask.s", "s/op"),
    ("voxel.select_points.s", "s/op"),
    ("voxel.convolve3.calls", "calls/op"),
    ("voxel.convolve3.voxels", "voxels/op"),
    ("voxel.extract_cloud.s", "s/op"),
    ("projection.project_all.s", "s/op"),
    ("projection.project_all.calls", "calls/op"),
    ("projection.project_all.lanes", "lanes/op"),
    ("projection.project_all.failed_lanes", "lanes/op"),
    ("projection.project_all.converged_ratio", "ratio"),
    ("projection.project_point.s", "s/op"),
    ("projection.project_point.calls", "calls/op"),
    ("projection.project_point.iterations_mean", "iters/call"),
    ("projection.project_point.converged_ratio", "ratio"),
    ("projection.project_point.failures", "count/op"),
    ("bezier.basis_rows.rows", "rows/op"),
    ("bezier.basis_rows.s", "s/op"),
    ("bezier.design_matrix.calls", "calls/op"),
    ("bezier.design_matrix.columns", "columns/op"),
    ("bezier.design_matrix.s", "s/op"),
    ("control.solve_control_points.s", "s/op"),
    ("control.solve_control_points.calls", "calls/op"),
    ("control.objective.calls", "calls/op"),
    ("selection.mdl_select.s", "s/op"),
    ("selection.mdl_select.calls", "calls/op"),
    ("selection.sigma2_hat.s", "s/op"),
    ("selection.sigma2_hat.calls", "calls/op"),
    ("selection.rank_deficient", "count/op"),
    ("pipeline.fit_surface.s", "s/op"),
    ("pipeline.outer_iters_mean", "iters/fit"),
    ("pipeline.tol_stop_ratio", "ratio"),
    ("pipeline.final_size_mean", "ctrl_pts/fit"),
    ("simulate.make_dataset.s", "s/op"),
    ("simulate.eval_fit.s", "s/op"),
    ("cli.select.s", "s/op"),
    ("cli.fit.s", "s/op"),
    ("cli.project.s", "s/op"),
    ("trace.overhead_s", "s/op"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.hook.s", "s/op"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(table: SpanTable, counts: dict, n_ops: int) -> dict[str, float]:
    """Every ``PER_LAYER`` metric except the overhead pair, per traced op."""
    c = counts
    out = {}
    for name, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "s":
            out[name] = table.self_seconds(base) / n_ops
        elif kind == "calls":
            out[name] = table.calls(base) / n_ops
    for key in ("io.read_voxel_grid.bytes", "voxel.convolve3.voxels",
                "projection.project_all.lanes", "projection.project_all.failed_lanes",
                "projection.project_point.failures", "bezier.basis_rows.rows",
                "bezier.design_matrix.columns", "selection.rank_deficient"):
        out[key] = c[key] / n_ops
    out["projection.project_all.converged_ratio"] = _ratio(
        c["projection.project_all.converged"], c["projection.project_all.lanes"])
    points = table.calls("projection.project_point") - c["projection.project_point.failures"]
    out["projection.project_point.iterations_mean"] = _ratio(
        c["projection.project_point.iterations"], points)
    out["projection.project_point.converged_ratio"] = _ratio(
        c["projection.project_point.converged"], table.calls("projection.project_point"))
    fits = c["pipeline.fits"]
    out["pipeline.outer_iters_mean"] = _ratio(c["pipeline.outer_iters"], fits)
    out["pipeline.tol_stop_ratio"] = _ratio(c["pipeline.tol_stops"], fits)
    out["pipeline.final_size_mean"] = _ratio(c["pipeline.final_size"], fits)
    return out


def layer_self_within_walls(table: SpanTable, slack: float = 1e-9) -> list[str]:
    """Ops whose summed span self times exceed their wall time."""
    walls = table.op_walls()
    sums = table.self_sums()
    return [f"op {op}: span self times {sums.get(op, 0.0):.6f} s > wall {wall:.6f} s"
            for op, wall in walls.items() if sums.get(op, 0.0) > wall + slack]

