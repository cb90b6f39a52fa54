"""One rule for integer arguments, and for real-valued settings, at every entry point."""

import re
import warnings

import numpy as np
import pytest

from patchfit import (
    BezierSurface,
    ExperimentSpec,
    FitSettings,
    PerimeterTruncationWarning,
    PointCloud,
    VoxelGrid,
    basis_vector,
    bernstein,
    bic_statistic,
    boundary_mask,
    convolve3,
    design_matrix,
    make_dataset,
    mdl_select,
    param_count,
    run_trial,
    select_points,
    solve_control_points,
)
from patchfit.errors import _integer, _integers

RNG = np.random.default_rng(4)
U, V = RNG.uniform(0.0, 1.0, (2, 40))
CLOUD = PointCloud(np.column_stack([U, V, 0.1 * U * V + RNG.normal(0.0, 0.01, 40)]),
                   np.ones(40))
SLAB = np.zeros((12, 12, 12), dtype=np.int64)
SLAB[:, :, :6] = 1
GRID = VoxelGrid(SLAB, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


def spec(**fields):
    return ExperimentSpec(**{"surface": "plane", "n_tr": 10, "n_te": 5, "sigma2_y": 1e-2,
                             "seed": 1, **fields})


def select(**args):
    return select_points(GRID, **{"seed": (6, 6, 5), "max_iters": 2, **args})


# (entry point, name in the message, call with the value, an integer it accepts)
INTEGER_ARGUMENTS = [
    ("bernstein", "basis index", lambda x: bernstein(0.5, x, 3), 1),
    ("bernstein", "order", lambda x: bernstein(0.5, 1, x), 3),
    ("basis_vector", "order", lambda x: basis_vector(0.5, x), 2),
    ("basis_vector", "derivative level", lambda x: basis_vector(0.5, 2, x), 1),
    ("design_matrix", "n_u", lambda x: design_matrix(U, V, x, 1), 2),
    ("design_matrix", "n_v", lambda x: design_matrix(U, V, 1, x), 2),
    ("from_flat", "n_u", lambda x: BezierSurface.from_flat(np.zeros((6, 3)), x, 1), 2),
    ("from_flat", "n_v", lambda x: BezierSurface.from_flat(np.zeros((6, 3)), 2, x), 1),
    ("solve_control_points", "n_u",
     lambda x: solve_control_points(CLOUD.points, CLOUD.weights, U, V, x, 1), 2),
    ("solve_control_points", "n_v",
     lambda x: solve_control_points(CLOUD.points, CLOUD.weights, U, V, 1, x), 2),
    ("param_count", "n_x", lambda x: param_count(x, 1, 1), 5),
    ("param_count", "n_u", lambda x: param_count(5, x, 1), 2),
    ("param_count", "n_v", lambda x: param_count(5, 1, x), 2),
    ("bic_statistic", "d", lambda x: bic_statistic(1.0, x, 5), 15),
    ("bic_statistic", "n_x", lambda x: bic_statistic(1.0, 15, x), 5),
    ("mdl_select", "n_u", lambda x: mdl_select(CLOUD, U, V, x, 1, 1e-3), 1),
    ("mdl_select", "n_v", lambda x: mdl_select(CLOUD, U, V, 1, x, 1e-3), 1),
    ("mdl_select", "order_cap[0]", lambda x: mdl_select(CLOUD, U, V, 1, 1, 1e-3, (x, 2)), 2),
    ("mdl_select", "order_cap[1]", lambda x: mdl_select(CLOUD, U, V, 1, 1, 1e-3, (2, x)), 2),
    ("FitSettings", "max_outer_iters", lambda x: FitSettings(max_outer_iters=x), 3),
    ("FitSettings", "order_cap[0]", lambda x: FitSettings(order_cap=(x, 6)), 4),
    ("FitSettings", "order_cap[1]", lambda x: FitSettings(order_cap=(6, x)), 4),
    ("FitSettings", "fixed_orders[0]", lambda x: FitSettings(fixed_orders=(x, 2)), 2),
    ("FitSettings", "fixed_orders[1]", lambda x: FitSettings(fixed_orders=(2, x)), 2),
    ("ExperimentSpec", "n_tr", lambda x: spec(n_tr=x), 10),
    ("ExperimentSpec", "n_te", lambda x: spec(n_te=x), 5),
    ("ExperimentSpec", "trials", lambda x: spec(trials=x), 2),
    ("ExperimentSpec", "seed", lambda x: spec(seed=x), 1),
    ("ExperimentSpec", "orders[0]", lambda x: spec(orders=(x, 1)), 2),
    ("ExperimentSpec", "orders[1]", lambda x: spec(orders=(1, x)), 2),
    ("ExperimentSpec", "brute_cap[0]", lambda x: spec(brute_cap=(x, 2)), 2),
    ("ExperimentSpec", "brute_cap[1]", lambda x: spec(brute_cap=(2, x)), 2),
    ("make_dataset", "trial", lambda x: make_dataset(spec(), x), 1),
    ("run_trial", "trial", lambda x: run_trial(spec(), x), 1),
    ("convolve3", "neighborhood size", lambda x: convolve3(GRID, x), 3),
    ("boundary_mask", "epsilon", lambda x: boundary_mask(GRID, x), 9),
    ("select_points", "neighborhood size", lambda x: select(l=x), 3),
    ("select_points", "max_iters", lambda x: select(max_iters=x), 2),
    ("select_points", "epsilon", lambda x: select(epsilon=x), 6),
    ("select_points", "seed[0]", lambda x: select(seed=(x, 6, 5)), 6),
    ("select_points", "seed[1]", lambda x: select(seed=(6, x, 5)), 6),
    ("select_points", "seed[2]", lambda x: select(seed=(6, 6, x)), 5),
]
ROW_IDS = [f"{entry}-{name}" for entry, name, _, _ in INTEGER_ARGUMENTS]


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "3"], ids=repr)
@pytest.mark.parametrize("entry, name, call, good", INTEGER_ARGUMENTS, ids=ROW_IDS)
def test_value_that_is_not_an_integer_is_rejected(entry, name, call, good, bad):
    # int() would truncate 2.5 and read True as 1; numpy would raise its own TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer, got {bad!r}')}$"):
        call(bad)


@pytest.mark.parametrize("entry, name, call, good", INTEGER_ARGUMENTS, ids=ROW_IDS)
def test_numpy_integer_is_accepted(entry, name, call, good):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerimeterTruncationWarning)
        call(np.int64(good))


@pytest.mark.parametrize("args, message", [
    (("n", 2.0, 1), "n must be an integer, got 2.0"),
    (("n", np.float64(2), 1), "n must be an integer, got np.float64(2.0)"),
    (("n", np.bool_(True), 1), "n must be an integer, got np.True_"),
    (("n", None, 1), "n must be an integer, got None"),
    (("n", 0, 1), "n must be at least 1, got 0"),
    (("n", np.int64(-4), 0), "n must be at least 0, got -4"),
    (("n", 27, 1, 26), "n must lie in 1..26, got 27"),
    (("n", np.uint8(0), 1, 26), "n must lie in 1..26, got 0"),
])
def test_integer_raises_one_of_three_forms(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _integer(*args)


@pytest.mark.parametrize("value", [np.int64(7), np.int8(7), np.uint64(7), 7])
def test_integer_returns_a_python_int(value):
    checked = _integer("n", value, 1, 7)
    assert type(checked) is int and checked == 7


def test_integer_without_low_takes_any_integer():
    assert _integer("n", -10**30, None) == -10**30


@pytest.mark.parametrize("values, message", [
    ((1, 2, 3), "pair must be 2 integers, got (1, 2, 3)"),
    (np.array([1, 2]), "pair must be 2 integers, got array([1, 2])"),
    ([1, 2.0], "pair[1] must be an integer, got 2.0"),
    ((0, 1), "pair[0] must be at least 1, got 0"),
])
def test_integers_checks_length_then_each_value(values, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _integers("pair", values, 2, 1)


REAL_SETTINGS = [
    ("FitSettings.lam", lambda x: FitSettings(lam=x), "lam"),
    ("FitSettings.rel_sigma2_tol", lambda x: FitSettings(rel_sigma2_tol=x), "rel_sigma2_tol"),
    ("ExperimentSpec.sigma2_y", lambda x: spec(sigma2_y=x), "noise variance"),
    ("ExperimentSpec.lam", lambda x: spec(lam=x), "lam"),
]


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "0.1", None, 1j], ids=repr)
@pytest.mark.parametrize("field, make, name", REAL_SETTINGS, ids=[r[0] for r in REAL_SETTINGS])
def test_real_setting_that_is_not_a_number_is_rejected(field, make, name, bad):
    # True was read as 1.0; "0.1" and None escaped as a TypeError from math.isfinite
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative$"):
        make(bad)


@pytest.mark.parametrize("good", [0, np.int64(0), 0.5, np.float64(0.5), np.float32(0.5)], ids=repr)
@pytest.mark.parametrize("field, make, name", REAL_SETTINGS, ids=[r[0] for r in REAL_SETTINGS])
def test_real_setting_accepts_real_numbers(field, make, name, good):
    make(good)
