import dataclasses
import logging
import math
import re
from pathlib import Path

import pytest

from dwr_diffusion import QuadMesh, dwr_loop, parse_parameter_file

PARAMETER_FILE = Path(__file__).resolve().parents[1] / "input" / "rotating_cone_2d.prm"

# (loop, n_slabs, max_cells, goal_error, eta, i_eff) of the first three loops
# of the shipped parameter file, frozen from the per-face estimator
GOLDEN_TABLE = [
    (1, 5, 3, 0.061643293643496154, 0.020509616585319457, 0.332714483167195),
    (2, 8, 6, 0.03541557859203166, 0.015475061887917968, 0.4369563481139846),
    (3, 12, 15, 0.018657745988944638, 0.008758273548796673, 0.46941755740410734),
]


def test_rotating_cone_three_loops_golden_table():
    _check_three_loops_golden_table()


@pytest.mark.parametrize("method", ["locate_point", "_cell_views", "boundary_color"])
def test_golden_table_without_point_location(monkeypatch, method):
    """A solve never locates points nor builds the per-cell and per-face dict views."""

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"QuadMesh.{method} called during a solve")

    original = QuadMesh.__dict__[method]
    monkeypatch.setattr(
        QuadMesh, method, property(refuse) if isinstance(original, property) else refuse
    )
    _check_three_loops_golden_table()


def _check_three_loops_golden_table():
    config = parse_parameter_file(PARAMETER_FILE)
    config = dataclasses.replace(
        config, adapt=dataclasses.replace(config.adapt, max_loops=3)
    )
    result = dwr_loop(config)
    assert not result.converged
    assert len(result.records) == len(GOLDEN_TABLE)
    for record, (loop, n_slabs, max_cells, goal_error, eta, i_eff) in zip(
        result.records, GOLDEN_TABLE
    ):
        assert (record.loop, record.n_slabs, record.max_cells) == (loop, n_slabs, max_cells)
        assert record.goal_error == pytest.approx(goal_error, rel=1e-10, abs=0.0)
        assert record.eta == pytest.approx(eta, rel=1e-10, abs=0.0)
        assert record.i_eff == pytest.approx(i_eff, rel=1e-10, abs=0.0)


def test_each_march_logs_its_cg_iterations_per_loop(caplog):
    config = parse_parameter_file(PARAMETER_FILE)
    config = dataclasses.replace(config, adapt=dataclasses.replace(config.adapt, max_loops=2))
    with caplog.at_level(logging.DEBUG, logger="dwr_diffusion.driver"):
        result = dwr_loop(config)
    found = [re.fullmatch(r"loop (\d): (primal|dual) CG iterations (\d+), "
                          r"largest final residual (\S+)", r.getMessage())
             for r in caplog.records]
    counts = [(int(m[1]), m[2], int(m[3]), m[4]) for m in found if m]
    assert [c[:2] for c in counts] == [(1, "primal"), (1, "dual"), (2, "primal"), (2, "dual")]
    assert all(c[2] > 0 for c in counts)
    # the log lines print the loop records' solver fields
    for loop, march, iterations, residual in counts:
        record = result.records[loop - 1]
        assert getattr(record, f"{march}_cg_iterations") == iterations
        max_residual = getattr(record, f"{march}_max_residual")
        assert f"{max_residual:.3e}" == residual and 0.0 <= max_residual < math.inf


def test_a_met_goal_leaves_the_dual_solver_fields_empty():
    config = parse_parameter_file(PARAMETER_FILE)
    config = dataclasses.replace(config, adapt=dataclasses.replace(
        config.adapt, max_loops=2, tol_mode="absolute", tol=1.0))
    (record,) = dwr_loop(config).records
    assert record.goal_met and record.primal_cg_iterations > 0
    assert record.dual_cg_iterations == 0 and math.isnan(record.dual_max_residual)


@pytest.mark.parametrize("goal_met", [False, True])
def test_loop_records_count_the_space_time_dofs(caplog, goal_met):
    """Two slabs on the coarse L-shape: three cells with 8 vertices, 10 edges and 3 centres.

    Q1 has a dof per vertex, 8 per slab; Q2 one per vertex, edge and cell,
    21 per slab.  A goal met at loop 1 runs no dual and counts no dual dofs.
    """
    config = parse_parameter_file(PARAMETER_FILE)
    adapt = dataclasses.replace(config.adapt, max_loops=1)
    if goal_met:
        adapt = dataclasses.replace(adapt, tol_mode="absolute", tol=1.0)
    disc = dataclasses.replace(config.discretization, n_slabs=2, primal_degree=1, dual_degree=2)
    config = dataclasses.replace(config, adapt=adapt, discretization=disc)
    with caplog.at_level(logging.DEBUG, logger="dwr_diffusion.driver"):
        (record,) = dwr_loop(config).records
    assert record.goal_met == goal_met
    assert (record.primal_dofs, record.dual_dofs) == (2 * 8, 0 if goal_met else 2 * 21)
    logged = [r.getMessage() for r in caplog.records if "space-time dofs" in r.getMessage()]
    assert logged == ["loop 1: primal space-time dofs 16"] + (
        [] if goal_met else ["loop 1: dual space-time dofs 42"])
