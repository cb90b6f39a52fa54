"""Write every output of a fixed patchfit input set, for byte-identity checks.

A refactor that claims to change no behaviour runs this script against the
code before and after the change and compares the two directories:

    python3 tools/identity_outputs.py OUT_NEW
    python3 tools/identity_outputs.py --src ../before/src OUT_OLD
    diff -r OUT_OLD OUT_NEW

``--src`` names the ``src`` directory of the checkout to run (default: the
one next to this script). The inputs are generated here, independently of
the code under test, so both sides see the same bytes.

Outputs:
- ``cli/``: the files, stdout and stderr of a fixed set of CLI runs:
  ``select`` on a seeded VOX1 grid; ``fit`` on its cloud with default
  settings, with ``--fixed-orders 2 3`` and with ``--lam 0``, and with
  default settings on two weighted clouds of the ``select`` runs below
  (``cloud_l5.csv``, inverse-distance weights, and ``cloud_external.csv``,
  external-map weights), so that a change to how weights enter a fit shows
  up in a surface document; ``fit`` on two seeded clouds of ``PLANE_N`` =
  5 000 points on a rotated noisy plane, one with unit weights
  (``fit_plane_uniform``) and one with weights in [0.5, 2]
  (``fit_plane_varying``), so that the per-point passes also run at the size
  where numpy picks other inner loops than at the grid's few hundred points;
  ``project``
  onto a document with records and onto one with ``"points": []``, each
  with a NaN probe and a ``1e300`` probe, and onto the first document from
  probes lifted 10-30 mm off the surface (``project_far``), where foot-point
  lanes with an indefinite Hessian take the shifted Newton step, and onto the
  first document plus one record at u = 1e300 (``project_badrecord``, the
  NaN probe included), whose reference point is not finite;
  ``study table1_trends --trials 2``.
  One run per failure status that is not a usage error: ``fit_rankdef``
  (a 3-point cloud with ``--lam 0``, exit 3), ``project_allfail`` (probes
  that are all non-finite, exit 3) and ``select_empty`` (a ``--seed-voxel``
  at the top of the grid, beyond the snap radius of any boundary voxel,
  exit 4), so that their stderr bytes are compared too; ``fit_hugeorder``
  (``--fixed-orders 1100 1``, whose binomial coefficients overflow, exit 2),
  ``fit_overflow`` (the ``fit`` cloud times 1e200, whose weighted spread
  overflows, exit 2) and ``fit_coincident`` (10 identical points, exit 3).
  More ``select`` runs: a ``--query`` outside the grid that snaps onto it,
  a seed beside a face (``PerimeterTruncationWarning`` on stderr),
  ``--weight-mode inverse-distance``, the growth box sizes ``--l 5`` (with
  inverse-distance weights, so region values are compared, not just the
  support) and ``--l 1``, ``external-map`` with
  ``--weight-grid``, the grid with anisotropic, non-unit spacing and a
  non-zero origin (``select_aniso`` with uniform weights, and
  ``select_aniso_external``: a ``--query`` above the surface that snaps
  onto it, with ``external-map`` weights), so that the voxel index offset
  of the selection window shows up in the point bytes, the grid with spacing
  2^-540 on every axis and a ``--seed-voxel`` three voxels above the
  surface (``select_tinyspacing``), whose snap ranks distances whose squares
  underflow,
  the grid written with CRLF line breaks, a grid with a
  bad token, and grids on each side of the bytewise 0/1 reading: separated
  only by tabs and form feeds, with one ``1`` written ``1.0``, separated by
  ``\\x1c``, and holding a byte that is not UTF-8.
  One usage error per integer option that a library check rejects (exit 2,
  one ``error:`` line on stderr, no output file): ``select`` with
  ``--epsilon 0``, ``--l 4`` and ``--max-iters 0``; ``fit`` with
  ``--max-outer-iters 0``, ``--order-cap-u 0`` and ``--fixed-orders 0 3``;
  ``study table1_trends`` with ``--trials 0`` and with ``--seed -1``; so that
  a change to the library's messages shows up too.
  The ``--help`` text of each subcommand, at ``COLUMNS=80``, so that a
  change to the CLI's interface shows up too.
  Wall-clock timings in stdout are masked as ``<t>``, and the file:line
  prefix of a warning on stderr as ``<where>``.
- ``trials.json``: the metrics of seeded ``simulate.run_trial`` calls (plane
  and Rosenbrock, automatic and fixed orders, several training sizes and
  noise levels, then ``brute`` mode on both surfaces at ``BRUTE_N`` points,
  sigma2_y 1e-2 and ``brute_cap`` ``BRUTE_CAP``), floats written with
  ``float.hex``. ``ms`` is left out.
- ``traces.json``: the ``FitIteration`` trace of ``fit_surface`` on the
  training cloud of each automatic and fixed-order trial of ``trials.json``,
  and of each fixed-order fit on the ``BRUTE_CAP`` grid of the first brute
  cell's trials, one row per line. Every field but the timings
  (``TRACE_TIMINGS``) is written, floats with ``float.hex``, so a change
  that moves a row's sigma2, t, orders, f_* descent pairs or foot-point
  solver counts shows here even where the final outputs agree. A fit that
  raises is one line holding its error.

Not part of the test suite: a full run takes about 12 s on a 2-core Xeon and
5 s on a 2-core AMD EPYC, of which the traces take about 0.2 s.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

GRID_N = 40
PLANE_N = 5000
TRIAL_SURFACES = ("plane", "rosenbrock")
TRIAL_MODES = ("auto", "fixed")
TRIAL_SIZES = (30, 60, 100)
TRIAL_NOISE = (1e-4, 1e-2, 0.25)
TRIALS_PER_SPEC = 2
BRUTE_N = 40
BRUTE_CAP = (3, 3)
TRACE_TIMINGS = ("seconds", "projection_seconds", "search_seconds")
# Voxel spacing and origin (mm) of the anisotropic copy of the test grid. They
# are not dyadic, so origin + (local + offset) * spacing and
# (origin + offset * spacing) + local * spacing round differently.
ANISO_SPACING = (0.3, 1.1, 0.7)
ANISO_ORIGIN = (-3.7, 12.9, 0.1)


def wavy_height(n: int) -> np.ndarray:
    """Top occupied k of each (i, j) column of the wavy test grid."""
    idx = np.arange(n, dtype=np.float64)
    i, j = np.meshgrid(idx, idx, indexing="ij")
    return np.floor(n / 2 + 3.0 * np.sin(i / 6.0) + 2.0 * np.cos(j / 5.0)).astype(int)


def wavy_grid_text(n: int) -> tuple[str, tuple[int, int, int]]:
    """VOX1 text of an n^3 grid filled below a wavy height, and a seed voxel on it."""
    height = wavy_height(n)
    k = np.arange(n)
    occupied = k[None, None, :] <= height[:, :, None]
    values = occupied.transpose(2, 1, 0).astype(int).ravel()  # i fastest, then j, then k
    header = f"VOX1 {n} {n} {n} 1.0 1.0 1.0 0.0 0.0 0.0"
    c = n // 2
    return header + "\n" + " ".join(map(str, values)) + "\n", (c, c, int(height[c, c]))


def rows_text(text: str, n: int, newline: str, sep: str = " ") -> str:
    """The same VOX1 grid with n values per line, the given line break and separator."""
    header, body = text.split("\n", 1)
    tokens = body.split()
    lines = [header] + [sep.join(tokens[s:s + n]) for s in range(0, len(tokens), n)]
    return newline.join(lines) + newline


def weight_grid_text(n: int) -> str:
    """VOX1 text of a strictly positive real weight grid of the test grid's dims."""
    i, j, k = np.indices((n, n, n), dtype=np.float64)
    weights = 0.5 + 0.25 * np.sin(i / 3.0) * np.cos(j / 4.0) + 0.01 * k
    header = f"VOX1 {n} {n} {n} 1.0 1.0 1.0 0.0 0.0 0.0"
    return header + "\n" + " ".join(repr(float(w)) for w in weights.ravel(order="F")) + "\n"


def with_geometry(text: str, spacing: tuple, origin: tuple) -> str:
    """The same VOX1 grid with the given voxel spacing and origin in its header."""
    header, body = text.split("\n", 1)
    tokens = header.split()[:4] + [repr(float(x)) for x in (*spacing, *origin)]
    return " ".join(tokens) + "\n" + body


def write_plane_cloud(path: Path, varying: bool) -> None:
    """PLANE_N points on a rotated plane with noise of sd 0.01, as x,y,z,w rows."""
    rng = np.random.default_rng(20)
    rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    xy = rng.uniform(-1.0, 1.0, (PLANE_N, 2))
    points = np.column_stack([xy, np.zeros(PLANE_N)]) @ rotation.T
    points += rng.normal(0.0, 0.01, points.shape)
    weights = rng.uniform(0.5, 2.0, PLANE_N) if varying else np.ones(PLANE_N)
    rows = (",".join(map(repr, (*p, w))) for p, w in zip(points.tolist(), weights.tolist()))
    path.write_text("x,y,z,w\n" + "\n".join(rows) + "\n")


def write_probes(cloud_path: Path, path: Path) -> None:
    """Every fifth cloud point, lifted off the surface, then a NaN and a 1e300 probe."""
    rows = cloud_path.read_text().splitlines()[1:]
    rng = np.random.default_rng(3)
    lines = ["x,y,z,w"]
    for row in rows[::5]:
        x, y, z, _ = (float(t) for t in row.split(","))
        dx, dy, dz = rng.normal(0.0, 0.3, 3).tolist()
        lines.append(f"{x + dx!r},{y + dy!r},{z + dz!r},1.0")
    lines.append("nan,nan,nan,1.0")
    lines.append("1e300,0,0,1.0")
    path.write_text("\n".join(lines) + "\n")


def write_far_probes(cloud_path: Path, path: Path) -> None:
    """Every fifth cloud point, lifted 10-30 mm along z with a random sign,
    beyond the wavy surface's radius of curvature (about 12 mm)."""
    rows = cloud_path.read_text().splitlines()[1:]
    rng = np.random.default_rng(5)
    lines = ["x,y,z,w"]
    for row in rows[::5]:
        x, y, z, _ = row.split(",")
        lift = float(rng.choice((-1.0, 1.0)) * rng.uniform(10.0, 30.0))
        lines.append(f"{x},{y},{float(z) + lift!r},1.0")
    path.write_text("\n".join(lines) + "\n")


def mask_warning_sites(stderr: str) -> str:
    return re.sub(r"^\S.*?:\d+: (\w+Warning): ", r"<where>: \1: ", stderr, flags=re.M)


def mask_timings(command: str, stdout: str) -> str:
    if command == "fit":
        return re.sub(r"wall [0-9.]+ ms", "wall <t> ms", stdout)
    if command == "study":
        out = []
        for line in stdout.splitlines():
            tokens = line.split()
            if len(tokens) == 10 and not line.startswith("name"):
                line = re.sub(r"\s+\S+(\s+\S+)$", r" <t>\1", line)
            out.append(line)
        return "\n".join(out) + "\n"
    return stdout


def run_cli(name: str, args: list[str], outdir: Path, env: dict) -> None:
    result = subprocess.run([sys.executable, "-m", "patchfit", *args], cwd=outdir,
                            capture_output=True, text=True, env=env)
    stdout = result.stdout if "--help" in args else mask_timings(args[0], result.stdout)
    (outdir / f"{name}.stdout").write_text(stdout)
    (outdir / f"{name}.stderr").write_text(mask_warning_sites(result.stderr))
    (outdir / f"{name}.exit").write_text(f"{result.returncode}\n")


def cli_outputs(outdir: Path, src: Path) -> None:
    outdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    text, seed = wavy_grid_text(GRID_N)
    (outdir / "grid.vox").write_text(text)
    run_cli("select", ["select", "grid.vox", "-o", "cloud.csv", "--epsilon", "6",
                       "--seed-voxel", *map(str, seed)], outdir, env)
    select_outputs(outdir, env, text, seed)
    run_cli("fit_default", ["fit", "cloud.csv", "-o", "surface.json"], outdir, env)
    run_cli("fit_fixed", ["fit", "cloud.csv", "-o", "surface_fixed.json",
                          "--fixed-orders", "2", "3"], outdir, env)
    run_cli("fit_lam0", ["fit", "cloud.csv", "-o", "surface_lam0.json", "--lam", "0"],
            outdir, env)
    # clouds whose weights are not all 1
    run_cli("fit_l5", ["fit", "cloud_l5.csv", "-o", "surface_l5.json"], outdir, env)
    run_cli("fit_external", ["fit", "cloud_external.csv", "-o", "surface_external.json"],
            outdir, env)
    for name in ("uniform", "varying"):
        write_plane_cloud(outdir / f"plane_{name}.csv", varying=name == "varying")
        run_cli(f"fit_plane_{name}", ["fit", f"plane_{name}.csv", "-o",
                                      f"surface_plane_{name}.json"], outdir, env)
    write_probes(outdir / "cloud.csv", outdir / "probes.csv")
    doc = json.loads((outdir / "surface.json").read_text())
    doc["points"] = []
    (outdir / "surface_norecords.json").write_text(json.dumps(doc))
    run_cli("project_records", ["project", "surface.json", "probes.csv",
                                "-o", "foot_records.csv"], outdir, env)
    run_cli("project_norecords", ["project", "surface_norecords.json", "probes.csv",
                                  "-o", "foot_norecords.csv"], outdir, env)
    write_far_probes(outdir / "cloud.csv", outdir / "probes_far.csv")
    run_cli("project_far", ["project", "surface.json", "probes_far.csv",
                            "-o", "foot_far.csv"], outdir, env)
    doc = json.loads((outdir / "surface.json").read_text())
    doc["points"].append({"u": 1e300, "v": 0.5, "residual": 0.0})
    (outdir / "surface_badrecord.json").write_text(json.dumps(doc))
    run_cli("project_badrecord", ["project", "surface_badrecord.json", "probes.csv",
                                  "-o", "foot_badrecord.csv"], outdir, env)
    (outdir / "probes_nonfinite.csv").write_text(
        "x,y,z,w\nnan,0.0,0.0,1.0\ninf,1.0,1.0,1.0\n0.0,-inf,0.0,1.0\n")
    run_cli("project_allfail", ["project", "surface.json", "probes_nonfinite.csv",
                                "-o", "foot_allfail.csv"], outdir, env)
    (outdir / "cloud_tri.csv").write_text(
        "x,y,z,w\n0.0,0.0,0.0,1.0\n1.0,0.0,0.0,1.0\n0.0,1.0,0.5,1.0\n")
    run_cli("fit_rankdef", ["fit", "cloud_tri.csv", "-o", "surface_tri.json", "--lam", "0"],
            outdir, env)
    run_cli("fit_hugeorder", ["fit", "cloud.csv", "-o", "surface_hugeorder.json",
                              "--fixed-orders", "1100", "1"], outdir, env)
    rows = [row.split(",") for row in (outdir / "cloud.csv").read_text().splitlines()[1:]]
    (outdir / "cloud_overflow.csv").write_text("x,y,z,w\n" + "".join(
        f"{float(x) * 1e200!r},{float(y) * 1e200!r},{float(z) * 1e200!r},{w}\n"
        for x, y, z, w in rows))
    run_cli("fit_overflow", ["fit", "cloud_overflow.csv", "-o", "surface_overflow.json"],
            outdir, env)
    (outdir / "cloud_coincident.csv").write_text("x,y,z,w\n" + "1.0,1.0,1.0,1.0\n" * 10)
    run_cli("fit_coincident", ["fit", "cloud_coincident.csv", "-o", "surface_coincident.json"],
            outdir, env)
    run_cli("study", ["study", "table1_trends", "--trials", "2", "-o", "study"], outdir, env)
    usage_outputs(outdir, env, seed)
    help_env = dict(env, COLUMNS="80")
    for command in ("select", "fit", "project", "study"):
        run_cli(f"help_{command}", [command, "--help"], outdir, help_env)


def select_outputs(outdir: Path, env: dict, text: str, seed: tuple[int, int, int]) -> None:
    height = wavy_height(GRID_N)
    c = GRID_N // 2
    common = ["--epsilon", "6", "--max-iters", "3"]
    query = ["-2.2", repr(c + 0.3), repr(float(height[0, c]) + 0.1)]
    run_cli("select_outside", ["select", "grid.vox", "-o", "cloud_outside.csv", *common,
                               "--query", *query], outdir, env)
    run_cli("select_face", ["select", "grid.vox", "-o", "cloud_face.csv", *common,
                            "--seed-voxel", "1", str(c), str(height[1, c])], outdir, env)
    run_cli("select_empty", ["select", "grid.vox", "-o", "cloud_empty.csv", *common,
                             "--seed-voxel", str(c), str(c), str(GRID_N - 1)], outdir, env)
    run_cli("select_inverse", ["select", "grid.vox", "-o", "cloud_inverse.csv", *common,
                               "--seed-voxel", *map(str, seed),
                               "--weight-mode", "inverse-distance"], outdir, env)
    run_cli("select_l5", ["select", "grid.vox", "-o", "cloud_l5.csv", *common,
                          "--seed-voxel", *map(str, seed), "--l", "5",
                          "--weight-mode", "inverse-distance"], outdir, env)
    run_cli("select_l1", ["select", "grid.vox", "-o", "cloud_l1.csv", *common,
                          "--seed-voxel", *map(str, seed), "--l", "1"], outdir, env)
    (outdir / "weights.vox").write_text(weight_grid_text(GRID_N))
    run_cli("select_external", ["select", "grid.vox", "-o", "cloud_external.csv", *common,
                                "--seed-voxel", *map(str, seed), "--weight-mode",
                                "external-map", "--weight-grid", "weights.vox"], outdir, env)
    (outdir / "grid_aniso.vox").write_text(with_geometry(text, ANISO_SPACING, ANISO_ORIGIN))
    run_cli("select_aniso", ["select", "grid_aniso.vox", "-o", "cloud_aniso.csv", *common,
                             "--seed-voxel", *map(str, seed)], outdir, env)
    (outdir / "weights_aniso.vox").write_text(
        with_geometry(weight_grid_text(GRID_N), ANISO_SPACING, ANISO_ORIGIN))
    above = np.array(ANISO_ORIGIN) + np.array(ANISO_SPACING) * (c + 0.2, c - 0.3, seed[2] + 1.4)
    run_cli("select_aniso_external", ["select", "grid_aniso.vox", "-o",
                                      "cloud_aniso_external.csv", *common, "--query",
                                      *map(repr, above.tolist()), "--weight-mode", "external-map",
                                      "--weight-grid", "weights_aniso.vox"], outdir, env)
    (outdir / "grid_tiny.vox").write_text(with_geometry(text, (2.0**-540,) * 3, (0, 0, 0)))
    run_cli("select_tinyspacing", ["select", "grid_tiny.vox", "-o", "cloud_tiny.csv", *common,
                                   "--seed-voxel", *map(str, seed[:2]), str(seed[2] + 3)],
            outdir, env)
    (outdir / "grid_crlf.vox").write_bytes(rows_text(text, GRID_N, "\r\n").encode())
    run_cli("select_crlf", ["select", "grid_crlf.vox", "-o", "cloud_crlf.csv", *common,
                            "--seed-voxel", *map(str, seed)], outdir, env)
    bad = rows_text(text, GRID_N, "\n").splitlines()
    bad[4] = bad[4].replace(" 1 ", " 0x1 ", 1)
    (outdir / "grid_bad.vox").write_text("\n".join(bad) + "\n")
    run_cli("select_bad", ["select", "grid_bad.vox", "-o", "cloud_bad.csv",
                           "--seed-voxel", *map(str, seed)], outdir, env)
    # Each side of the bytewise 0/1 fast path: tabs and form feeds only; one
    # "1.0" and \x1c separators (both read as text); a byte that is not UTF-8.
    variants = {
        "tabs": rows_text(text, GRID_N, "\f", "\t").encode(),
        "float": text.replace(" 1 ", " 1.0 ", 1).encode(),
        "fs": rows_text(text, GRID_N, "\x1c", "\x1c").encode(),
        "latin1": text.encode().replace(b" 0 ", b" \xff ", 1),
    }
    for name, data in variants.items():
        (outdir / f"grid_{name}.vox").write_bytes(data)
        run_cli(f"select_{name}", ["select", f"grid_{name}.vox", "-o", f"cloud_{name}.csv",
                                   *common, "--seed-voxel", *map(str, seed)], outdir, env)


def usage_outputs(outdir: Path, env: dict, seed: tuple[int, int, int]) -> None:
    """Runs whose integer options the library rejects; each should exit 2."""
    select = ["select", "grid.vox", "-o", "cloud_usage.csv", "--seed-voxel", *map(str, seed)]
    for name, flags in (("epsilon0", ["--epsilon", "0"]), ("l4", ["--l", "4"]),
                        ("maxiters0", ["--max-iters", "0"])):
        run_cli(f"usage_select_{name}", select + flags, outdir, env)
    fit = ["fit", "cloud.csv", "-o", "surface_usage.json"]
    for name, flags in (("maxouter0", ["--max-outer-iters", "0"]),
                        ("ordercapu0", ["--order-cap-u", "0"]),
                        ("fixed03", ["--fixed-orders", "0", "3"])):
        run_cli(f"usage_fit_{name}", fit + flags, outdir, env)
    study = ["study", "table1_trends", "-o", "study_usage"]
    for name, flags in (("trials0", ["--trials", "0"]), ("seedneg", ["--seed", "-1"])):
        run_cli(f"usage_study_{name}", study + flags, outdir, env)


def trial_specs():
    """The seeded study cells of ``trials.json``, in file order."""
    from patchfit import ExperimentSpec

    for surface in TRIAL_SURFACES:
        for mode in TRIAL_MODES:
            for n_tr in TRIAL_SIZES:
                for sigma2_y in TRIAL_NOISE:
                    yield ExperimentSpec(surface=surface, n_tr=n_tr, sigma2_y=sigma2_y,
                                         seed=n_tr, n_te=50, mode=mode, orders=(4, 4))
    for surface in TRIAL_SURFACES:
        yield ExperimentSpec(surface=surface, n_tr=BRUTE_N, sigma2_y=1e-2, seed=BRUTE_N,
                             n_te=50, mode="brute", brute_cap=BRUTE_CAP)


def trial_outputs(path: Path) -> int:
    from patchfit import run_trial

    records = []
    for spec in trial_specs():
        for trial in range(TRIALS_PER_SPEC):
            rec = run_trial(spec, trial)
            records.append({
                "name": rec.name, "trial": rec.trial,
                "iterations": rec.iterations, "n_u": rec.n_u, "n_v": rec.n_v,
                "sigma2_tr": rec.sigma2_tr.hex(), "sigma2_te": rec.sigma2_te.hex(),
                "test_failures": rec.test_failures, "error": rec.error,
            })
    path.write_text(json.dumps(records, indent=1) + "\n")
    return len(records)


def trace_fits():
    """(label, cloud, settings) of each fit of ``traces.json``, in file order."""
    from patchfit import FitSettings, PointCloud, make_dataset

    brute = next(spec for spec in trial_specs() if spec.mode == "brute")
    for spec in trial_specs():
        for trial in range(TRIALS_PER_SPEC):
            dataset = make_dataset(spec, trial)
            cloud = PointCloud(dataset.x_tr, np.ones(spec.n_tr))
            label = {"name": spec.name, "trial": trial}
            if spec.mode != "brute":
                fixed = spec.orders if spec.mode == "fixed" else None
                yield label, cloud, FitSettings(lam=spec.lam, fixed_orders=fixed)
            elif spec == brute:
                for fixed in itertools.product(range(1, BRUTE_CAP[0] + 1),
                                               range(1, BRUTE_CAP[1] + 1)):
                    yield ({**label, "fixed_orders": fixed}, cloud,
                           FitSettings(lam=spec.lam, fixed_orders=fixed))


def trace_outputs(path: Path) -> int:
    from dataclasses import asdict

    from patchfit import PatchFitError, fit_surface

    lines = []
    for label, cloud, settings in trace_fits():
        try:
            _, trace = fit_surface(cloud, settings)
        except (PatchFitError, ValueError) as exc:
            lines.append(json.dumps({**label, "error": str(exc)}))
            continue
        for row in trace:
            fields = {key: value.hex() if isinstance(value, float) else value
                      for key, value in asdict(row).items() if key not in TRACE_TIMINGS}
            lines.append(json.dumps({**label, **fields}))
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="new directory for the outputs")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src directory of the checkout to run (default %(default)s)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    args.outdir.mkdir(parents=True)
    cli_outputs(args.outdir / "cli", src)
    count = trial_outputs(args.outdir / "trials.json")
    rows = trace_outputs(args.outdir / "traces.json")
    print(f"wrote CLI outputs, {count} trial records and {rows} trace rows under {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
