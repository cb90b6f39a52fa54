"""The benchmark's seeded workloads.

Each workload turns ``--seed`` into inputs, runs one op at a time (a closed
loop with one client) and checks the op's outputs against known truth. The
op is split in three so that only the call into patchfit is timed:

* ``prepare(i)`` makes op i's inputs (untimed),
* ``run(inputs)`` calls patchfit (the timed op),
* ``evaluate(inputs, out)`` counts units, hashes outputs and extracts the
  values the checks need (untimed).

A unit is one trial, fit, CLI command, or test-point or probe projection. It
fails if it raises, records an error, exits non-zero or writes a ``nan`` row.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from patchfit import cli, pipeline, simulate
from patchfit.voxel import PointCloud

@dataclass
class OpResult:
    attempted: int
    failed: int
    digest: str
    values: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class StudyCell:
    """One ``simulate.run_trial`` of the ``table1_trends`` Rosenbrock cell."""

    name = "study-cell"
    sigma2_y = 1e-2

    def __init__(self, seed: int, size: str, workdir: Path):
        # test_sigma2 has a heavy tail (about 1 trial in 40 exceeds sigma2_y at
        # n_tr = 100), so the check applies to the run mean; tiny keeps n_tr.
        self.spec = simulate.ExperimentSpec(
            surface="rosenbrock", n_tr=100, n_te=100 if size == "full" else 10,
            sigma2_y=self.sigma2_y, seed=seed,
            trials=1, mode="auto", name="rb_n100_s1e-2",
        )
        self.order_cap = pipeline.FitSettings().order_cap

    @staticmethod
    def minimal(workdir: Path) -> None:
        spec = simulate.ExperimentSpec(surface="rosenbrock", n_tr=12, n_te=4,
                                       sigma2_y=StudyCell.sigma2_y, seed=0, trials=1)
        simulate.run_trial(spec, 0)

    def prepare(self, i: int):
        return i

    def run(self, trial):
        return simulate.run_trial(self.spec, trial)

    def evaluate(self, trial, record) -> OpResult:
        failed = int(bool(record.error) or not math.isfinite(record.sigma2_te))
        return OpResult(
            attempted=1 + self.spec.n_te,
            failed=failed + record.test_failures,
            digest=_digest(record.iterations, record.size, record.n_u, record.n_v,
                           record.sigma2_tr, record.sigma2_te, record.test_failures,
                           record.error),
            values={"test_sigma2": record.sigma2_te, "orders": (record.n_u, record.n_v),
                    "error": record.error},
        )

    def failed_op(self, trial) -> OpResult:
        return OpResult(1, 1, "raised", {"error": "raised"})

    def check(self, results: list[OpResult]) -> list[str]:
        errors = []
        for i, res in enumerate(results):
            v = res.values
            if v["error"]:
                errors.append(f"trial {i}: {v['error']}")
                continue
            if not math.isfinite(v["test_sigma2"]):
                errors.append(f"trial {i}: test_sigma2 is not finite")
            n_u, n_v = v["orders"]
            if n_u > self.order_cap[0] or n_v > self.order_cap[1]:
                errors.append(f"trial {i}: orders ({n_u}, {n_v}) exceed cap {self.order_cap}")
        sig = [r.values["test_sigma2"] for r in results if not r.values["error"]]
        if sig and not np.mean(sig) < self.sigma2_y:
            errors.append(f"mean test_sigma2 {np.mean(sig):.4g} is not below "
                          f"sigma2_y {self.sigma2_y:g}")
        return errors

    def extras(self, results: list[OpResult]) -> dict:
        sig = [r.values["test_sigma2"] for r in results if not r.values["error"]]
        return {"test_sigma2": (float(np.mean(sig)) if sig else math.nan, "mm2")}


class FitPlaneLarge:
    """One ``pipeline.fit_surface`` on a rotated, noisy plane."""

    name = "fit-plane-large"
    sigma2_y = 1e-4

    def __init__(self, seed: int, size: str, workdir: Path):
        n = 5000 if size == "full" else 300
        self.spec = simulate.ExperimentSpec(surface="plane", n_tr=n, n_te=1,
                                            sigma2_y=self.sigma2_y, seed=seed, trials=1)
        # sigma2_hat estimates sigma2_y / 3: the orthogonal residual keeps one
        # of three noise coordinates. Its relative sampling sd is sqrt(2/n);
        # the check allows five of them.
        self.sigma2_rel_tol = 5.0 * math.sqrt(2.0 / n)
        # The selection statistic overfits a plane by one order now and then
        # (2 fits in 833 chose (1, 2) at n = 5000), so the check is on the
        # share of fits that keep (1, 1).
        self.min_share_11 = 0.95

    @staticmethod
    def minimal(workdir: Path) -> None:
        spec = simulate.ExperimentSpec(surface="plane", n_tr=20, n_te=1,
                                       sigma2_y=FitPlaneLarge.sigma2_y, seed=0, trials=1)
        FitPlaneLarge.run(simulate.make_dataset(spec, 0))

    def prepare(self, i: int):
        return simulate.make_dataset(self.spec, i)

    @staticmethod
    def run(dataset):
        cloud = PointCloud(dataset.x_tr, np.ones(dataset.x_tr.shape[0]))
        return pipeline.fit_surface(cloud)

    def evaluate(self, dataset, out) -> OpResult:
        model, _ = out
        ok = math.isfinite(model.sigma2)
        return OpResult(
            attempted=1, failed=int(not ok),
            digest=_digest(model.surface.control.tobytes(), model.u.tobytes(),
                           model.v.tobytes(), model.sigma2, model.t),
            values={"orders": (model.n_u, model.n_v), "sigma2": model.sigma2},
        )

    def failed_op(self, dataset) -> OpResult:
        return OpResult(1, 1, "raised", {"orders": None, "sigma2": math.nan})

    def check(self, results: list[OpResult]) -> list[str]:
        errors = []
        target = self.sigma2_y / 3.0
        for i, res in enumerate(results):
            sigma2 = res.values["sigma2"]
            if not abs(sigma2 / target - 1.0) <= self.sigma2_rel_tol:
                errors.append(f"fit {i}: sigma2_hat {sigma2:.4g} is not within "
                              f"{self.sigma2_rel_tol:.3f} of sigma2_y/3 = {target:.4g}")
        share = self._share_11(results)
        if share < self.min_share_11:
            errors.append(f"only {share:.3f} of fits selected orders (1, 1); "
                          f"expected at least {self.min_share_11}")
        return errors

    @staticmethod
    def _share_11(results: list[OpResult]) -> float:
        return sum(r.values["orders"] == (1, 1) for r in results) / len(results)

    def extras(self, results: list[OpResult]) -> dict:
        ratio = [r.values["sigma2"] / self.sigma2_y for r in results]
        return {"sigma2_hat_over_sigma2_y": (float(np.mean(ratio)), "ratio"),
                "orders_11_share": (self._share_11(results), "ratio")}


def wavy_volume(n: int, rng: np.random.Generator):
    """Occupancy grid of the solid below a seeded wavy height field.

    Voxel (i, j, k) is occupied when k <= h(i, j); spacing is 1 mm and the
    origin is voxel (0, 0, 0), so indices are millimetres.
    """
    amp = 0.04 * n
    wavelength = 0.5 * n
    phase = rng.uniform(0.0, 2.0 * math.pi, size=2)

    def height(x, y):
        return (0.5 * n + amp * np.sin(2.0 * math.pi * x / wavelength + phase[0])
                * np.cos(2.0 * math.pi * y / wavelength + phase[1]))

    idx = np.arange(n, dtype=np.float64)
    h = height(idx[:, None], idx[None, :])
    occupied = idx[None, None, :] <= h[:, :, None]
    return occupied, height


def vox1_bytes(occupied: np.ndarray) -> bytes:
    """VOX1 text for a 0/1 grid: one line per x-row, x index fastest."""
    n, m, p = occupied.shape
    header = f"VOX1 {n} {m} {p} 1.0 1.0 1.0 0.0 0.0 0.0\n".encode()
    rows = occupied.reshape(n, m * p, order="F").T
    text = np.full((m * p, 2 * n), ord(" "), dtype=np.uint8)
    text[:, 0::2] = np.where(rows, ord("1"), ord("0"))
    text[:, -1] = ord("\n")
    return header + text.tobytes()


def _cli(argv) -> tuple[int, str]:
    """``cli.main`` in-process; returns the exit code and captured output."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main([str(a) for a in argv])
    return code, sink.getvalue()


class VolumeCli:
    """``cli.main`` select, fit and project on a seeded wavy volume."""

    name = "volume-cli"
    # Probes are scattered about the surface with isotropic Gaussian jitter
    # of this sd per coordinate (mm).
    jitter = 1.0
    # A top voxel beside a column one voxel higher has 6 exterior neighbours,
    # so the selection keeps the whole staircase rather than one flat terrace.
    epsilon = 6

    def __init__(self, seed: int, size: str, workdir: Path):
        self.n = 128 if size == "full" else 40
        self.probes = 100 if size == "full" else 40
        self.margin = 24 if size == "full" else 12
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        occupied, self.height = wavy_volume(self.n, np.random.default_rng([seed, 0]))
        self.volume = self.workdir / "volume.vox"
        self.volume.write_bytes(vox1_bytes(occupied))

    @staticmethod
    def minimal(workdir: Path) -> None:
        tiny, height = wavy_volume(12, np.random.default_rng(0))
        path = Path(workdir) / "tiny.vox"
        path.write_bytes(vox1_bytes(tiny))
        k = int(math.floor(height(6.0, 6.0)))
        _cli(["select", path, "-o", Path(workdir) / "tiny.csv", "--seed-voxel", 6, 6, k,
              "--epsilon", VolumeCli.epsilon])

    def prepare(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, 2, i])
        ci, cj = rng.integers(self.margin, self.n - self.margin, size=2)
        ck = int(math.floor(self.height(float(ci), float(cj))))
        xy = np.column_stack([ci, cj]) + rng.uniform(-5.0, 5.0, size=(self.probes, 2))
        z = self.height(xy[:, 0], xy[:, 1]) - 0.5
        pts = np.column_stack([xy, z]) + rng.normal(0.0, self.jitter, size=(self.probes, 3))
        probes = self.workdir / "probes.csv"
        lines = ["x,y,z,w"] + [f"{x!r},{y!r},{z!r},1.0" for x, y, z in pts.tolist()]
        probes.write_text("\n".join(lines) + "\n")
        return {"seed_voxel": (int(ci), int(cj), ck), "probes": probes,
                "cloud": self.workdir / "cloud.csv", "surface": self.workdir / "surface.json",
                "foot": self.workdir / "footpoints.csv"}

    def run(self, inp: dict) -> list[tuple[int, str]]:
        codes = [_cli(["select", self.volume, "-o", inp["cloud"],
                       "--seed-voxel", *inp["seed_voxel"], "--epsilon", self.epsilon])]
        if codes[-1][0] == 0:
            codes.append(_cli(["fit", inp["cloud"], "-o", inp["surface"]]))
        if codes[-1][0] == 0:
            codes.append(_cli(["project", inp["surface"], inp["probes"], "-o", inp["foot"]]))
        return codes

    @staticmethod
    def _probe_count(inp: dict) -> int:
        return inp["probes"].read_text().count("\n") - 1

    def evaluate(self, inp: dict, codes) -> OpResult:
        probes = self._probe_count(inp)
        failed_cmds = 3 - sum(1 for code, _ in codes if code == 0)
        outputs = [inp[key].read_bytes() if len(codes) > k and codes[k][0] == 0 else b""
                   for k, key in enumerate(("cloud", "surface", "foot"))]
        selected = max(outputs[0].count(b"\n") - 1, 0)
        rows = outputs[2].decode().splitlines()[1:]
        dist = np.array([float(r.split(",")[2]) for r in rows]) if rows else np.array([])
        ok = np.isfinite(dist)
        return OpResult(
            attempted=3 + probes,
            failed=failed_cmds + probes - int(ok.sum()),
            digest=_digest(*outputs),
            values={"codes": [code for code, _ in codes],
                    "messages": [msg.strip() for code, msg in codes if code != 0],
                    "selected": selected, "dist": dist[ok]},
        )

    def failed_op(self, inp: dict) -> OpResult:
        probes = self._probe_count(inp)
        return OpResult(3 + probes, 3 + probes, "raised",
                        {"codes": [None], "messages": ["raised"], "selected": 0,
                         "dist": np.array([])})

    @staticmethod
    def _distances(results: list[OpResult]) -> np.ndarray:
        return np.concatenate([r.values["dist"] for r in results])

    def rms_band(self, probes: int) -> tuple[float, float]:
        """Accepted range of the RMS probe distance over ``probes`` probes.

        Selected voxel centres lie up to one voxel below the height field,
        so the fitted surface sits 0 to 1 mm below it, and probes are centred
        half a voxel below. The expected RMS distance is then between the
        jitter and sqrt(jitter^2 + 0.5^2) < 1.25 jitter. The band adds four
        sampling sds, 1/sqrt(2 * probes) each, on both sides.
        """
        slack = 4.0 / math.sqrt(2.0 * max(probes, 1))
        return self.jitter * (1.0 - slack), self.jitter * (1.25 + slack)

    def check(self, results: list[OpResult]) -> list[str]:
        errors = []
        for i, res in enumerate(results):
            v = res.values
            if v["codes"] != [0, 0, 0]:
                errors.append(f"op {i}: exit codes {v['codes']} {v['messages']}")
            elif v["selected"] < 1:
                errors.append(f"op {i}: empty selection")
        dist = self._distances(results)
        lo, hi = self.rms_band(dist.size)
        rms = float(np.sqrt(np.mean(dist**2))) if dist.size else math.nan
        if not lo <= rms <= hi:
            errors.append(f"probe RMS {rms:.4f} mm outside [{lo:.3f}, {hi:.3f}] mm")
        return errors

    def extras(self, results: list[OpResult]) -> dict:
        dist = self._distances(results)
        rms = float(np.sqrt(np.mean(dist**2))) if dist.size else math.nan
        selected = [r.values["selected"] for r in results]
        return {"probe_rms_mm": (rms, "mm"),
                "selected_p50": (float(np.median(selected)), "points")}


WORKLOADS = {cls.name: cls for cls in (StudyCell, FitPlaneLarge, VolumeCli)}
