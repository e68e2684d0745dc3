import csv
import math
from pathlib import Path

from dwr_diffusion.cli import main

PARAMETER_FILE = Path(__file__).resolve().parents[1] / "input" / "rotating_cone_2d.prm"
SHIPPED = PARAMETER_FILE.read_text().splitlines()


def write_variant(tmp_path, replace):
    """The shipped parameter file with whole lines replaced: ``{old line: new line}``."""
    lines = [replace.get(line.strip(), line) for line in SHIPPED]
    path = tmp_path / "variant.prm"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_goal_met_at_loop_one_exits_zero(tmp_path, capsys):
    prm = write_variant(
        tmp_path,
        {"set tol_mode = relative": "set tol_mode = absolute", "set tol = 1e-2": "set tol = 1.0"},
    )
    out = tmp_path / "out"
    assert main([str(prm), "--out", str(out), "-q"]) == 0
    assert "goal reached after loop 1" in capsys.readouterr().out
    with open(out / "convergence.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == ["loop", "n_slabs", "max_cells", "goal_error", "eta", "i_eff"]
    assert (row["loop"], row["n_slabs"], row["max_cells"]) == ("1", "5", "3")
    assert 0.0 < float(row["goal_error"]) < 1.0
    assert row["eta"] == "nan" and row["i_eff"] == "nan"
    assert math.isnan(float(row["eta"]))


def test_loop_budget_exhausted_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    assert main([str(PARAMETER_FILE), "--max-loops", "1", "--out", str(out), "-q"]) == 2
    assert "loop budget exhausted after loop 1" in capsys.readouterr().out
    with open(out / "convergence.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert float(row["eta"]) > 0.0 and float(row["i_eff"]) > 0.0


def test_unknown_key_exits_one_naming_file_and_line(tmp_path, capsys):
    prm = write_variant(tmp_path, {"set rho = 0.8": "set rhoo = 0.8"})
    line = 1 + next(k for k, text in enumerate(SHIPPED) if text.strip() == "set rho = 0.8")
    assert main([str(prm), "--out", str(tmp_path / "out"), "-q"]) == 1
    err = capsys.readouterr().err
    assert f"{prm}:{line}:" in err
    assert "unknown key 'rhoo'" in err
    assert not (tmp_path / "out").exists()


def test_zero_first_goal_error_exits_one_naming_loop_and_window(tmp_path, capsys):
    """No time-quadrature point of any slab lies in (0.251, 0.26): the relative target is 0."""
    prm = write_variant(
        tmp_path,
        {"set t_start = 0.25": "set t_start = 0.251", "set t_end = 1.0": "set t_end = 0.26"},
    )
    assert main([str(prm), "--out", str(tmp_path / "out"), "-q"]) == 1
    err = capsys.readouterr().err
    assert "loop 1: goal error 0 over the control-volume time window (0.251, 0.26)" in err


def test_a_loop_that_marks_nothing_exits_one_naming_the_loop(tmp_path, capsys):
    prm = write_variant(tmp_path, {
        "set theta_tau = 0.5": "set theta_tau = 0", "set theta_h1 = 0.3": "set theta_h1 = 0",
        "set theta_h2 = 0.15": "set theta_h2 = 0",
    })
    assert main([str(prm), "--out", str(tmp_path / "out"), "--max-loops", "2", "-q"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: loop 1: no slab and no cell is marked (theta_tau = 0, ")


def test_a_solver_failure_exits_one_naming_the_loop_and_the_bound(tmp_path, capsys):
    prm = write_variant(tmp_path, {"set max_iterations = 5000": "set max_iterations = 30"})
    assert main([str(prm), "--out", str(tmp_path / "out"), "-q"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: loop 4: dual solve failed on slab 16: CG did not converge in 30 iterations (")
    assert captured.err.endswith(" (solver.max_iterations = 30)\n")
