"""Command-line interface.

Subcommands: ``select`` (occupancy grid to point cloud), ``fit`` (point cloud
to surface document), ``project`` (points onto a fitted surface), ``study``
(simulation studies from a config file).

Handlers raise; ``main`` prints each error as one ``error:`` line. Exit codes:
0 success, 2 usage or parse error, 3 numerical failure, 4 empty selection.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from time import perf_counter

import numpy as np

from . import io
from .bezier import design_matrix
from .errors import (
    DegenerateGeometryError,
    EmptySelectionError,
    PatchFitError,
    ProjectionError,
    RankDeficiencyError,
)
from .pipeline import FitSettings, fit_surface, outer_iterations
from .projection import project_nearest
from .projection import project_point  # noqa: F401  kept bound for perfbench's tracer test
from .simulate import run_study
from .voxel import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERS,
    DEFAULT_NEIGHBORHOOD,
    extract_cloud,
    select_points,
)

_FIT_DEFAULTS = FitSettings()

EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_EMPTY = 4
# The failures that exit with EXIT_NUMERICAL; LinAlgError is also a ValueError.
NUMERICAL_ERRORS = (DegenerateGeometryError, RankDeficiencyError, ProjectionError,
                    np.linalg.LinAlgError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchfit",
        description="Local Bezier surface patches from voxel occupancy grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="extract a weighted point cloud from a VOX1 grid")
    # Newer CPython's pattern: also reads "-1e1" and "-.5" as negative numbers, not options.
    p_select._negative_number_matcher = re.compile(r"^-\.?\d")
    p_select.add_argument("grid", help="VOX1 occupancy grid file")
    p_select.add_argument("-o", "--output", required=True, help="output point-cloud file")
    seed_group = p_select.add_mutually_exclusive_group(required=True)
    seed_group.add_argument("--seed-voxel", nargs=3, type=int, metavar=("I", "J", "K"),
                            help="query voxel index")
    seed_group.add_argument("--query", nargs=3, type=float, metavar=("X", "Y", "Z"),
                            help="physical query point (mm), snapped to the nearest voxel")
    p_select.add_argument("--epsilon", type=int, default=DEFAULT_EPSILON,
                          help="minimum exterior neighbors for a boundary voxel (default %(default)s)")
    p_select.add_argument("--l", type=int, default=DEFAULT_NEIGHBORHOOD, dest="l",
                          help="odd growth neighborhood size (default %(default)s)")
    p_select.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS,
                          help="region growth steps (default %(default)s)")
    p_select.add_argument("--weight-mode", choices=("uniform", "inverse-distance", "external-map"),
                          default="uniform", help="point weight mode (default %(default)s)")
    p_select.add_argument("--weight-grid", default=None,
                          help="VOX1-layout real grid for external-map weights")

    p_fit = sub.add_parser("fit", help="fit a surface to a point-cloud file")
    p_fit.add_argument("cloud", help="point-cloud file (x,y,z,w)")
    p_fit.add_argument("-o", "--output", required=True, help="output surface document")
    p_fit.add_argument("--lam", type=float, default=_FIT_DEFAULTS.lam,
                       help="ridge regularization strength (default %(default)s)")
    p_fit.add_argument("--max-outer-iters", type=int, default=_FIT_DEFAULTS.max_outer_iters,
                       help="alternating iteration cap (default %(default)s)")
    p_fit.add_argument("--rel-sigma2-tol", type=float, default=_FIT_DEFAULTS.rel_sigma2_tol,
                       help="relative variance-change stopping tolerance (default %(default)s)")
    p_fit.add_argument("--order-cap-u", type=int, default=_FIT_DEFAULTS.order_cap[0],
                       help="maximum order in u (default %(default)s)")
    p_fit.add_argument("--order-cap-v", type=int, default=_FIT_DEFAULTS.order_cap[1],
                       help="maximum order in v (default %(default)s)")
    p_fit.add_argument("--fixed-orders", nargs=2, type=int, metavar=("N_U", "N_V"), default=None,
                       help="freeze the surface order instead of selecting it")

    p_project = sub.add_parser("project", help="project points onto a fitted surface")
    p_project.add_argument("surface", help="surface document from 'fit'")
    p_project.add_argument("cloud", help="point-cloud file to project")
    p_project.add_argument("-o", "--output", required=True, help="output table (u,v,distance,converged)")

    p_study = sub.add_parser("study", help="run a simulation study from a config")
    p_study.add_argument("config", help="config path, or bundled name (table1_trends, fig4_plane)")
    p_study.add_argument("-o", "--output", default="study",
                         help="output prefix for _table.csv and _long.csv (default %(default)s)")
    p_study.add_argument("--seed", type=int, default=None,
                         help="override the base seed of every spec")
    p_study.add_argument("--trials", type=int, default=None,
                         help="override the trial count of every spec")
    return parser


def cmd_select(args) -> int:
    if args.weight_grid is not None and args.weight_mode != "external-map":
        raise PatchFitError("--weight-grid is read only with --weight-mode external-map")
    if args.weight_grid is None and args.weight_mode == "external-map":
        raise PatchFitError("external-map mode requires a weight grid")
    grid = io.read_voxel_grid(args.grid)
    if args.seed_voxel is not None:
        seed = tuple(args.seed_voxel)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            index = (np.asarray(args.query, dtype=np.float64) - grid.origin) / grid.spacing
        if not np.isfinite(index).all():
            raise PatchFitError(f"--query must give a finite voxel index, got "
                                f"{' '.join(map(repr, args.query))}")
        seed = tuple(int(round(c)) for c in index)
    region = select_points(grid, seed, l=args.l, max_iters=args.max_iters, epsilon=args.epsilon)
    weight_grid = io.read_voxel_grid(args.weight_grid) if args.weight_grid else None
    cloud = extract_cloud(region, args.weight_mode, weight_grid)
    io.write_point_cloud(cloud, args.output)
    print(f"selected {cloud.n_x} points in {args.max_iters} growth iterations -> {args.output}")
    return 0


def cmd_fit(args) -> int:
    cloud = io.read_point_cloud(args.cloud)
    settings = FitSettings(
        max_outer_iters=args.max_outer_iters,
        rel_sigma2_tol=args.rel_sigma2_tol,
        lam=args.lam,
        order_cap=(args.order_cap_u, args.order_cap_v),
        fixed_orders=tuple(args.fixed_orders) if args.fixed_orders else None,
    )
    tic = perf_counter()
    model, trace = fit_surface(cloud, settings)
    elapsed = perf_counter() - tic
    io.write_surface_model(model, cloud, args.output)
    print(
        f"orders ({model.n_u}, {model.n_v})  sigma2 {model.sigma2:.6e}  t {model.t:.6f}  "
        f"iterations {outer_iterations(trace)}  wall {elapsed * 1e3:.1f} ms -> {args.output}"
    )
    return 0


def cmd_project(args) -> int:
    model, _ = io.read_surface_model(args.surface)
    probes, _ = io.read_xyzw(args.cloud)
    if probes.shape[0] == 0:
        raise PatchFitError("cannot project an empty cloud")
    finite_rows = np.flatnonzero(np.isfinite(probes).all(axis=1))
    points = probes[finite_rows]
    if model.u.size > 0:
        ref_u, ref_v = model.u, model.v
    else:  # a document without records: start from the 5 x 5 lattice over [0, 1]^2
        grid = np.linspace(0.0, 1.0, 5)
        ref_u, ref_v = np.array([(u, v) for u in grid for v in grid]).T
    refs = design_matrix(ref_u, ref_v, model.n_u, model.n_v).T @ model.surface.flat
    batch = project_nearest(points, model.surface, refs, ref_u, ref_v)
    u, v, conv = batch.u.tolist(), batch.v.tolist(), batch.converged.tolist()
    distance = np.sqrt(2.0 * batch.g_final).tolist()
    solved = np.delete(np.arange(len(points)), batch.failed).tolist()
    lines = ["nan,nan,nan,0"] * probes.shape[0]
    for k in solved:
        lines[finite_rows[k]] = f"{u[k]!r},{v[k]!r},{distance[k]!r},{int(conv[k])}"
    with open(args.output, "w") as fh:
        fh.write("\n".join(["u,v,distance,converged", *lines]) + "\n")
    print(f"projected {len(solved)}/{probes.shape[0]} points -> {args.output}")
    return 0 if solved else EXIT_NUMERICAL


def cmd_study(args) -> int:
    overrides = {k: getattr(args, k) for k in ("seed", "trials") if getattr(args, k) is not None}
    specs = [replace(spec, **overrides) for spec in io.load_study_config(args.config)]
    rows, records = run_study(specs)
    io.write_study_table(rows, f"{args.output}_table.csv")
    io.write_study_long(records, f"{args.output}_long.csv")
    header = (f"{'name':<28} {'mode':<6} {'n_tr':>5} {'sigma2_y':>9} {'iter.':>6} "
              f"{'size':>6} {'s2_tr':>10} {'s2_te':>10} {'ms':>8} {'fail':>4}")
    print(header)
    for row in rows:
        print(f"{row.name:<28.28} {row.mode:<6} {row.n_tr:>5} {row.sigma2_y:>9.3g} "
              f"{row.mean_iterations:>6.2f} {row.mean_size:>6.2f} {row.mean_sigma2_tr:>10.3e} "
              f"{row.mean_sigma2_te:>10.3e} {row.mean_ms:>8.1f} {row.failures:>4}")
    print(f"wrote {args.output}_table.csv and {args.output}_long.csv")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"select": cmd_select, "fit": cmd_fit, "project": cmd_project, "study": cmd_study}
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, PatchFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, EmptySelectionError):
            return EXIT_EMPTY
        return EXIT_NUMERICAL if isinstance(exc, NUMERICAL_ERRORS) else EXIT_USAGE
