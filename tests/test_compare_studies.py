"""The paired study verdict of ``tools/compare_studies.py`` on synthetic tables."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_studies.py"
spec = importlib.util.spec_from_file_location("compare_studies", TOOL)
compare_studies = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_studies)

COLUMNS = ("name,trial,surface,mode,n_tr,sigma2_y,iterations,size,n_u,n_v,sigma2_tr,sigma2_te,"
           "test_failures,error")


def write_long(path, cells):
    """A long table; ``cells`` maps a name to (surface, rows), each row
    (sigma2_te, n_u, n_v, iterations, error)."""
    lines = [COLUMNS]
    for name, (surface, rows) in cells.items():
        for trial, (s2, n_u, n_v, iters, error) in enumerate(rows):
            size = (n_u + 1) * (n_v + 1)
            lines.append(f"{name},{trial},{surface},auto,100,0.01,{iters},{size},{n_u},{n_v},"
                         f"0.01,{float(s2)!r},0,{error}")
    path.write_text("\n".join(lines) + "\n")
    return path


def rows(values, n_u=2, n_v=4, iters=10):
    return [(float(x), n_u, n_v, iters, "") for x in values]


@pytest.fixture
def base_values():
    return np.random.default_rng(0).uniform(1e-3, 2e-3, 20)


def run(tmp_path, capsys, old_cells, new_cells):
    old = write_long(tmp_path / "old_long.csv", old_cells)
    new = write_long(tmp_path / "new_long.csv", new_cells)
    status = compare_studies.main([str(old), str(new)])
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def cell_fields(out, name):
    """The columns of the cell's line, which are two or more spaces apart."""
    line = next(line for line in out.splitlines() if line.startswith(name + " "))
    return re.split(r"\s{2,}", line)


def test_identical_tables_are_neither(tmp_path, capsys, base_values):
    cells = {"rb": ("rosenbrock", rows(base_values))}
    status, out, _ = run(tmp_path, capsys, cells, cells)
    assert status == 0
    assert cell_fields(out, "rb")[3:7] == ["1.000", "[1.000, 1.000]", "neither", "0/0"]
    assert out.splitlines()[-1] == "1 cells: 0 worse, 0 better, 1 neither"


@pytest.mark.parametrize("factor, verdict, status", [(1.1, "worse", 1), (0.9, "better", 0)])
def test_a_shift_in_every_trial_is_resolved(tmp_path, capsys, base_values, factor, verdict,
                                            status):
    noise = np.random.default_rng(1).uniform(0.98, 1.02, 20)
    old = {"rb": ("rosenbrock", rows(base_values))}
    new = {"rb": ("rosenbrock", rows(base_values * factor * noise))}
    got, out, _ = run(tmp_path, capsys, old, new)
    fields = cell_fields(out, "rb")
    assert got == status
    assert fields[5] == verdict
    lo, hi = compare_studies.bootstrap_interval(base_values, base_values * factor * noise)
    assert fields[4] == f"[{lo:.3f}, {hi:.3f}]"
    assert (lo > 1.0) if verdict == "worse" else (hi < 1.0)
    assert lo <= float(fields[3]) <= hi  # the ratio of the means lies inside


def test_one_outlier_leaves_the_interval_across_one(tmp_path, capsys, base_values):
    new = base_values.copy()
    new[3] *= 3.0
    new[[0, 1, 2]] *= 0.9
    status, out, _ = run(tmp_path, capsys, {"rb": ("rosenbrock", rows(base_values))},
                      {"rb": ("rosenbrock", rows(new))})
    fields = cell_fields(out, "rb")
    assert status == 0
    assert fields[5:7] == ["neither", "1/3"]  # the old side is better in 1 trial, the new in 3


def test_output_is_the_same_bytes_on_every_run(tmp_path, capsys, base_values):
    old = {"rb": ("rosenbrock", rows(base_values)), "pl": ("plane", rows(base_values, 1, 1))}
    new = {"rb": ("rosenbrock", rows(base_values[::-1])), "pl": ("plane", rows(base_values))}
    first = run(tmp_path, capsys, old, new)
    assert run(tmp_path, capsys, old, new) == first


def test_sizes_iterations_and_latent_shares(tmp_path, capsys, base_values):
    # Sorted orders decide: (4, 2) is the Rosenbrock sheet's latent (2, 4).
    old_rows = [(x, 4, 2, 10, "") if k % 2 else (x, 3, 3, 10, "")
                for k, x in enumerate(base_values)]
    new_rows = [(x, 1, 1, 5, "") for x in base_values]
    status, out, _ = run(tmp_path, capsys, {"rb": ("rosenbrock", old_rows), "pl": ("plane", new_rows)},
                      {"rb": ("rosenbrock", new_rows), "pl": ("plane", old_rows)})
    assert cell_fields(out, "rb")[7:10] == ["15.5/4.0", "10.00/5.00", "0.50/0.00"]
    assert cell_fields(out, "pl")[7:10] == ["4.0/15.5", "5.00/10.00", "1.00/0.00"]


def test_trials_that_fail_on_a_side_are_left_out(tmp_path, capsys, base_values):
    old = rows(base_values)
    new = rows(base_values)
    new[5] = (float("nan"), 0, 0, 0, "fit failed")
    status, out, _ = run(tmp_path, capsys, {"rb": ("rosenbrock", old)},
                      {"rb": ("rosenbrock", new)})
    fields = cell_fields(out, "rb")
    assert status == 0
    assert (fields[1], fields[-1]) == ("19", "(1 trials failed on a side)")


def test_tables_of_different_trials_do_not_pair(tmp_path, capsys, base_values):
    status, out, err = run(tmp_path, capsys, {"rb": ("rosenbrock", rows(base_values))},
                           {"rb": ("rosenbrock", rows(base_values[:10]))})
    assert (status, out) == (2, "")
    assert err.startswith("the two tables do not hold the same cells and trials")


def test_moved_trials_and_the_largest_relative_difference(tmp_path, capsys, base_values):
    # Trial 0 grows an order, trial 1 takes one more iteration and trial 2
    # keeps both but moves its test sigma2 by 1e-13 of itself.
    old = rows(base_values)
    new = rows(base_values)
    new[0] = (base_values[0], 3, 4, 10, "")
    new[1] = (base_values[1], 2, 4, 11, "")
    new[2] = (base_values[2] * (1 + 1e-13), 2, 4, 10, "")
    status, out, _ = run(tmp_path, capsys, {"rb": ("rosenbrock", old), "pl": ("plane", old)},
                         {"rb": ("rosenbrock", new), "pl": ("plane", old)})
    rel = abs(new[2][0] - old[2][0]) / old[2][0]
    assert 5e-14 < rel < 2e-13
    assert cell_fields(out, "rb")[10:] == ["2", f"{rel:.1e}"]
    assert cell_fields(out, "pl")[10:] == ["0", "0.0e+00"]
    assert status == 0


def test_total_row_sums_the_cells(tmp_path, capsys, base_values):
    old = rows(base_values)
    moved = rows(base_values * 1.5)
    moved[4] = (base_values[4] * 1.5, 1, 1, 10, "")
    failed = rows(base_values)
    failed[7] = (float("nan"), 0, 0, 0, "fit failed")
    status, out, _ = run(
        tmp_path, capsys,
        {"a": ("rosenbrock", old), "b": ("rosenbrock", old), "c": ("rosenbrock", old)},
        {"a": ("rosenbrock", moved), "b": ("rosenbrock", failed), "c": ("rosenbrock", old)})
    assert cell_fields(out, "total") == ["total", "59", "1", "5.0e-01"]
    assert out.splitlines()[-2].startswith("total ")
    assert out.splitlines()[-1] == "3 cells: 1 worse, 0 better, 2 neither"
    assert status == 1
