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
  settings, with ``--fixed-orders 2 3`` and with ``--lam 0``; ``project``
  onto a document with records and onto one with ``"points": []``, each
  with a NaN probe and a ``1e300`` probe; ``study table1_trends --trials 2``.
  Wall-clock timings in stdout are masked as ``<t>``.
- ``trials.json``: the metrics of seeded ``simulate.run_trial`` calls (plane
  and Rosenbrock, automatic and fixed orders, several training sizes and
  noise levels), floats written with ``float.hex``. ``ms`` is left out.

Not part of the test suite: a full run takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

GRID_N = 40
TRIAL_SURFACES = ("plane", "rosenbrock")
TRIAL_MODES = ("auto", "fixed")
TRIAL_SIZES = (30, 60, 100)
TRIAL_NOISE = (1e-4, 1e-2, 0.25)
TRIALS_PER_SPEC = 2


def wavy_grid_text(n: int) -> tuple[str, tuple[int, int, int]]:
    """VOX1 text of an n^3 grid filled below a wavy height, and a seed voxel on it."""
    idx = np.arange(n, dtype=np.float64)
    i, j = np.meshgrid(idx, idx, indexing="ij")
    height = np.floor(n / 2 + 3.0 * np.sin(i / 6.0) + 2.0 * np.cos(j / 5.0)).astype(int)
    k = np.arange(n)
    occupied = k[None, None, :] <= height[:, :, None]
    values = occupied.transpose(2, 1, 0).astype(int).ravel()  # i fastest, then j, then k
    header = f"VOX1 {n} {n} {n} 1.0 1.0 1.0 0.0 0.0 0.0"
    c = n // 2
    return header + "\n" + " ".join(map(str, values)) + "\n", (c, c, int(height[c, c]))


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
    (outdir / f"{name}.stdout").write_text(mask_timings(args[0], result.stdout))
    (outdir / f"{name}.stderr").write_text(result.stderr)
    (outdir / f"{name}.exit").write_text(f"{result.returncode}\n")


def cli_outputs(outdir: Path, src: Path) -> None:
    outdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    text, seed = wavy_grid_text(GRID_N)
    (outdir / "grid.vox").write_text(text)
    run_cli("select", ["select", "grid.vox", "-o", "cloud.csv", "--epsilon", "6",
                       "--seed-voxel", *map(str, seed)], outdir, env)
    run_cli("fit_default", ["fit", "cloud.csv", "-o", "surface.json"], outdir, env)
    run_cli("fit_fixed", ["fit", "cloud.csv", "-o", "surface_fixed.json",
                          "--fixed-orders", "2", "3"], outdir, env)
    run_cli("fit_lam0", ["fit", "cloud.csv", "-o", "surface_lam0.json", "--lam", "0"],
            outdir, env)
    write_probes(outdir / "cloud.csv", outdir / "probes.csv")
    doc = json.loads((outdir / "surface.json").read_text())
    doc["points"] = []
    (outdir / "surface_norecords.json").write_text(json.dumps(doc))
    run_cli("project_records", ["project", "surface.json", "probes.csv",
                                "-o", "foot_records.csv"], outdir, env)
    run_cli("project_norecords", ["project", "surface_norecords.json", "probes.csv",
                                  "-o", "foot_norecords.csv"], outdir, env)
    run_cli("study", ["study", "table1_trends", "--trials", "2", "-o", "study"], outdir, env)


def trial_outputs(path: Path) -> int:
    from patchfit import ExperimentSpec, run_trial

    records = []
    for surface in TRIAL_SURFACES:
        for mode in TRIAL_MODES:
            for n_tr in TRIAL_SIZES:
                for sigma2_y in TRIAL_NOISE:
                    spec = ExperimentSpec(surface=surface, n_tr=n_tr, sigma2_y=sigma2_y,
                                          seed=n_tr, n_te=50, mode=mode, orders=(4, 4))
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
    print(f"wrote CLI outputs and {count} trial records under {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
