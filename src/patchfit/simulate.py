"""Synthetic datasets and noise/size studies.

Latent test surfaces (a plane and a scaled Rosenbrock sheet) are sampled
uniformly over their parameter domain, rigidly rotated, split into disjoint
train/test sets, and corrupted with isotropic Gaussian noise on the training
copy only. Studies repeat fits over seeded trials and aggregate the metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from .bezier import design_matrix
from .errors import PatchFitError
from .pipeline import FitSettings, FitTrace, fit_surface, outer_iterations
from .projection import project_nearest
from .projection import project_point  # noqa: F401  kept bound for perfbench's tracer test
from .selection import FitModel, _rank_key
from .voxel import PointCloud

ROSENBROCK_DOMAIN = ((-1.0, 1.0), (-0.5, 1.5))
PLANE_DOMAIN = ((-1.0, 1.0), (-1.0, 1.0))


@dataclass
class LatentSurface:
    """Reference surface: height field over a rectangle, then rigidly rotated."""

    kind: str
    alpha: float = 0.01
    a: float = 1.0
    b: float = 100.0
    domain: tuple[tuple[float, float], tuple[float, float]] = PLANE_DOMAIN
    rotation: np.ndarray | None = None

    @classmethod
    def plane(cls, rotation=None) -> "LatentSurface":
        return cls(kind="plane", domain=PLANE_DOMAIN, rotation=rotation)

    @classmethod
    def rosenbrock(cls, rotation=None) -> "LatentSurface":
        return cls(kind="rosenbrock", domain=ROSENBROCK_DOMAIN, rotation=rotation)

    @classmethod
    def for_kind(cls, kind: str, rotation=None) -> "LatentSurface":
        if kind == "plane":
            return cls.plane(rotation)
        if kind == "rosenbrock":
            return cls.rosenbrock(rotation)
        raise ValueError(f"unknown latent surface kind: {kind!r}")


def latent_height(surface: LatentSurface, x, y):
    """Height field before rotation; zero for the plane."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if surface.kind == "plane":
        return np.zeros(np.broadcast(x, y).shape)
    if surface.kind == "rosenbrock":
        return surface.alpha * ((surface.a - x) ** 2 + surface.b * (y - x**2) ** 2)
    raise ValueError(f"unknown latent surface kind: {surface.kind!r}")


def latent_eval(surface: LatentSurface, xy: np.ndarray) -> np.ndarray:
    """Latent points for (n, 2) parameter samples, rotation applied."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    z = latent_height(surface, xy[:, 0], xy[:, 1])
    pts = np.column_stack([xy[:, 0], xy[:, 1], z])
    if surface.rotation is not None:
        pts = pts @ np.asarray(surface.rotation).T
    return pts


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Proper rotation from a QR-orthonormalized Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1.0
    return q


@dataclass
class ExperimentSpec:
    """One study cell: latent surface, sampling sizes, noise, and fit mode."""

    surface: str
    n_tr: int
    sigma2_y: float
    seed: int
    name: str = ""
    n_te: int = 100
    trials: int = 20
    mode: str = "auto"
    orders: tuple[int, int] = (1, 1)
    brute_cap: tuple[int, int] = (4, 4)
    lam: float = 1e-3

    def __post_init__(self):
        if self.mode not in ("auto", "fixed", "brute"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.n_tr < 3 or self.n_te < 1 or self.trials < 1:
            raise ValueError("n_tr must be >= 3 and n_te, trials >= 1")
        if self.sigma2_y < 0:
            raise ValueError("noise variance must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.name:
            self.name = f"{self.surface}_n{self.n_tr}_s{self.sigma2_y:g}_{self.mode}"


@dataclass
class Dataset:
    x_tr: np.ndarray
    s_tr: np.ndarray
    s_te: np.ndarray
    rotation: np.ndarray


def make_dataset(spec: ExperimentSpec, trial: int = 0) -> Dataset:
    """Sample one train/test split, reproducible from (seed, trial).

    Train and test latent points come from disjoint draws; only the training
    copy receives additive Gaussian noise of variance sigma2_y per coordinate.
    """
    rng = np.random.default_rng([spec.seed, trial])
    rotation = random_rotation(rng)
    surface = LatentSurface.for_kind(spec.surface, rotation)
    (x_lo, x_hi), (y_lo, y_hi) = surface.domain
    total = spec.n_tr + spec.n_te
    xy = np.column_stack([
        rng.uniform(x_lo, x_hi, total),
        rng.uniform(y_lo, y_hi, total),
    ])
    latent = latent_eval(surface, xy)
    s_tr = latent[: spec.n_tr]
    s_te = latent[spec.n_tr:]
    noise = rng.normal(0.0, math.sqrt(spec.sigma2_y), size=(spec.n_tr, 3))
    return Dataset(s_tr + noise, s_tr, s_te, rotation)


@dataclass
class EvalMetrics:
    sigma2_tr: float
    sigma2_te: float
    test_failures: int


def eval_fit(model: FitModel, x_tr: np.ndarray, s_te: np.ndarray) -> EvalMetrics:
    """Unweighted train residual variance and projected test distance variance.

    The train metric reuses the model's own location parameters. Test points
    go through ``project_nearest`` from the training points with default
    settings; failed projections are dropped from the mean and counted. Test
    points must be finite: a non-finite one raises ValueError.
    """
    x_tr = np.asarray(x_tr, dtype=np.float64).reshape(-1, 3)
    b = design_matrix(model.u, model.v, model.n_u, model.n_v)
    fitted = b.T @ model.surface.flat
    sigma2_tr = float(np.sum((fitted - x_tr) ** 2)) / (3.0 * x_tr.shape[0])

    batch = project_nearest(s_te, model.surface, x_tr, model.u, model.v)
    # Python's sum adds in index order; np.sum adds pairwise and can change
    # the last bits of the reported metric.
    dist2 = (2.0 * np.delete(batch.g_final, batch.failed)).tolist()
    sigma2_te = (sum(dist2) / (3.0 * len(dist2))) if dist2 else math.nan
    return EvalMetrics(sigma2_tr, sigma2_te, len(batch.failed))


@dataclass
class TrialRecord:
    """Metrics for one (spec, trial) fit; ``error`` marks a failed trial."""

    name: str
    trial: int
    surface: str
    mode: str
    n_tr: int
    sigma2_y: float
    iterations: int
    size: int
    n_u: int
    n_v: int
    sigma2_tr: float
    sigma2_te: float
    ms: float
    test_failures: int
    error: str = ""


@dataclass
class StudyRow:
    """Per-spec aggregate over successful trials."""

    name: str
    surface: str
    mode: str
    n_tr: int
    sigma2_y: float
    trials: int
    failures: int
    mean_iterations: float
    mean_size: float
    mean_sigma2_tr: float
    mean_sigma2_te: float
    mean_ms: float
    test_failures: int


def _fit_brute(cloud: PointCloud, settings: FitSettings, cap: tuple[int, int]):
    """Fit every order on the grid independently, keep the best statistic."""
    best = None
    best_key = None
    best_trace: FitTrace = []
    for n_u in range(1, cap[0] + 1):
        for n_v in range(1, cap[1] + 1):
            model, trace = fit_surface(cloud, replace(settings, fixed_orders=(n_u, n_v)))
            key = _rank_key(model.t, model.d, n_u, n_v)
            if best_key is None or key < best_key:
                best_key = key
                best = model
                best_trace = trace
    return best, best_trace


def run_trial(spec: ExperimentSpec, trial: int) -> TrialRecord:
    dataset = make_dataset(spec, trial)
    cloud = PointCloud(dataset.x_tr, np.ones(spec.n_tr))
    settings = FitSettings(
        lam=spec.lam,
        fixed_orders=spec.orders if spec.mode == "fixed" else None,
    )
    tic = perf_counter()
    try:
        if spec.mode == "brute":
            model, trace = _fit_brute(cloud, settings, spec.brute_cap)
        else:
            model, trace = fit_surface(cloud, settings)
        metrics = eval_fit(model, dataset.x_tr, dataset.s_te)
    except (PatchFitError, np.linalg.LinAlgError) as exc:
        return TrialRecord(spec.name, trial, spec.surface, spec.mode, spec.n_tr,
                           spec.sigma2_y, 0, 0, 0, 0, math.nan, math.nan,
                           (perf_counter() - tic) * 1e3, 0, error=str(exc))
    ms = (perf_counter() - tic) * 1e3
    return TrialRecord(
        spec.name, trial, spec.surface, spec.mode, spec.n_tr, spec.sigma2_y,
        outer_iterations(trace), model.size, model.n_u, model.n_v,
        metrics.sigma2_tr, metrics.sigma2_te, ms, metrics.test_failures,
    )


def run_study(specs: list[ExperimentSpec]) -> tuple[list[StudyRow], list[TrialRecord]]:
    """Run every spec for its trial count; aggregate means over successes."""
    rows = []
    records = []
    for spec in specs:
        spec_records = [run_trial(spec, trial) for trial in range(spec.trials)]
        records.extend(spec_records)
        good = [r for r in spec_records if not r.error]
        failures = len(spec_records) - len(good)

        def mean(attr):
            if not good:
                return math.nan
            return sum(getattr(r, attr) for r in good) / len(good)

        rows.append(StudyRow(
            name=spec.name,
            surface=spec.surface,
            mode=spec.mode,
            n_tr=spec.n_tr,
            sigma2_y=spec.sigma2_y,
            trials=spec.trials,
            failures=failures,
            mean_iterations=mean("iterations"),
            mean_size=mean("size"),
            mean_sigma2_tr=mean("sigma2_tr"),
            mean_sigma2_te=mean("sigma2_te"),
            mean_ms=mean("ms"),
            test_failures=sum(r.test_failures for r in good),
        ))
    return rows, records
