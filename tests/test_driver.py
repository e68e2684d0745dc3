import dataclasses
import logging
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse._compressed import _cs_matrix

from dwr_diffusion import FeSpace, LoopRecord, QuadMesh, driver, dwr_loop, fem, parse_parameter_file
from dwr_diffusion.output import OutputWriter
from dwr_diffusion.sparse_la import SolverError

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


def shipped(max_loops, **adapt):
    """The shipped configuration with the loop budget and adaptivity overrides given."""
    config = parse_parameter_file(PARAMETER_FILE)
    return dataclasses.replace(
        config, adapt=dataclasses.replace(config.adapt, max_loops=max_loops, **adapt))


PHASES = ("primal_s", "dual_s", "estimate_s", "adapt_s", "on_loop_s")


MET_AT_LOOP_2 = dict(tol_mode="absolute", tol=0.05)  # goal errors 0.0616, then 0.0354


@pytest.mark.parametrize("max_loops, adapt, calls, converged", [
    (2, MET_AT_LOOP_2, [(1, False, False), (2, True, True)], True),
    (3, MET_AT_LOOP_2, [(1, False, False), (2, True, True)], True),
    (1, dict(tol_mode="absolute", tol=1.0), [(1, True, True)], True),
    (2, {}, [(1, False, False), (2, False, True)], False),
])
def test_each_loop_leaves_by_one_exit(max_loops, adapt, calls, converged):
    """(loop, estimate is None, final) per ``on_loop`` call; a met goal or a spent budget ends it."""
    seen = []
    result = dwr_loop(shipped(max_loops, **adapt),
                      on_loop=lambda loop, _, estimate, __, final:
                      seen.append((loop, estimate is None, final)))
    assert seen == calls and result.converged is converged
    # the goal is met exactly where no estimate is made, and only a final loop adapts nothing
    assert [r.goal_met for r in result.records] == [call[1] for call in calls]
    assert [r.adapt_s > 0.0 for r in result.records] == [not call[2] for call in calls]


def test_a_record_reads_no_goal_error_until_it_is_measured():
    record = LoopRecord(1, 5, 3)
    assert math.isnan(record.goal_error) and not record.goal_met


@pytest.mark.parametrize("goal_met", [False, True])
def test_loop_records_time_their_phases_within_the_call(caplog, goal_met):
    config = shipped(2, **(dict(tol_mode="absolute", tol=1.0) if goal_met else {}))
    seen = []
    with caplog.at_level(logging.DEBUG, logger="dwr_diffusion.driver"):
        start = time.perf_counter()
        records = dwr_loop(config, on_loop=lambda *args: seen.append(args[3].on_loop_s)).records
        wall = time.perf_counter() - start
    assert len(records) == (1 if goal_met else 2) and seen == [0.0] * len(records)
    assert sum(getattr(r, phase) for r in records for phase in PHASES) <= wall
    for r in records:
        assert all(getattr(r, phase) >= 0.0 for phase in PHASES)
        assert r.primal_s > 0.0 and r.peak_rss_mb > 0.0
    assert [r.peak_rss_mb for r in records] == sorted(r.peak_rss_mb for r in records)
    if goal_met:
        (record,) = records
        assert record.dual_s == record.estimate_s == record.adapt_s == 0.0
    else:
        assert all(r.dual_s > 0.0 and r.estimate_s > 0.0 for r in records)
        # the last loop of the budget marks nothing and adapts nothing
        assert records[0].adapt_s > 0.0 and records[1].adapt_s == 0.0
    logged = [re.fullmatch(r"loop (\d): phases primal (\S+) s, dual (\S+) s, estimate (\S+) s, "
                           r"adapt (\S+) s, on_loop (\S+) s; peak RSS (\S+) MB", r.getMessage())
              for r in caplog.records]
    logged = [m.groups() for m in logged if m]
    assert logged == [(str(r.loop), *(f"{getattr(r, phase):.3f}" for phase in PHASES),
                       f"{r.peak_rss_mb:.1f}") for r in records]


def test_space_builds_are_timed_within_the_adapt_and_dual_phases(caplog):
    with caplog.at_level(logging.DEBUG, logger="dwr_diffusion.driver"):
        adapted, budget_end = dwr_loop(shipped(2)).records
    # loop 1 builds the coarse dual space and the refined primal ones, loop 2 its dual spaces
    assert 0.0 < adapted.spaces_s <= adapted.adapt_s + adapted.dual_s
    assert budget_end.adapt_s == 0.0 and 0.0 < budget_end.spaces_s <= budget_end.dual_s
    assert 0.0 < adapted.refine_s <= adapted.adapt_s and budget_end.refine_s == 0.0
    logged = [r.getMessage() for r in caplog.records if "space builds" in r.getMessage()]
    assert logged == [f"loop {r.loop}: space builds {r.spaces_s:.3f} s of the adapt and dual "
                      f"phases, refinement {r.refine_s:.3f} s of the adapt phase"
                      for r in (adapted, budget_end)]
    met = dwr_loop(shipped(2, **MET_AT_LOOP_2)).records[-1]
    assert met.goal_met and met.spaces_s == 0.0


def test_records_carry_the_error_vs_dofs_rate_from_the_loop_before():
    records = dwr_loop(shipped(3)).records
    assert math.isnan(records[0].rate)
    for before, record in zip(records, records[1:]):
        assert record.rate == math.log(record.goal_error / before.goal_error) / math.log(
            record.primal_dofs / before.primal_dofs)
        assert record.rate < 0.0


@pytest.mark.parametrize("goal_error, primal_dofs", [(0.5, 16), (0.0, 32), (math.nan, 32)])
def test_an_undefined_rate_reads_nan(goal_error, primal_dofs):
    before = LoopRecord(1, 2, 3, goal_error=0.5, primal_dofs=16)
    record = LoopRecord(2, 2, 3, goal_error=goal_error, primal_dofs=primal_dofs)
    assert math.isnan(driver._rate(before, record))


def test_signed_estimate_sums_the_signed_indicators_in_table_order():
    estimates, cells = [], []

    def on_loop(loop, slabs, estimate, *_):
        estimates.append(estimate)
        cells.append([slab.mesh.n_active_cells for slab in slabs])

    result = dwr_loop(shipped(2), on_loop=on_loop)
    assert len(estimates) == len(result.records) == 2
    for record, estimate, n_cells in zip(result.records, estimates, cells):
        # one float64 array per slab, one row per active cell
        assert [eta.shape for eta in estimate.cell_indicators] == [(n,) for n in n_cells]
        assert all(eta.dtype == np.float64 for eta in estimate.cell_indicators)
        expected = 0.0
        for indicators in estimate.cell_indicators:
            slab_sum = 0.0
            for value in indicators.tolist():
                slab_sum += value
            expected += slab_sum
        assert record.eta_signed == estimate.eta_signed == expected
        # the indicators carry both signs, so the signed sum is strictly inside the absolute one
        assert abs(record.eta_signed) < record.eta
    (met,) = dwr_loop(shipped(2, tol_mode="absolute", tol=1.0)).records
    assert met.goal_met and math.isnan(met.eta_signed)


@pytest.mark.parametrize("skip_zero", [True, False])
def test_a_loop_that_marks_nothing_fails_naming_the_loop_and_the_fractions(skip_zero):
    zero = dict(theta_tau=0.0, theta_h1=0.0, theta_h2=0.0, skip_zero_indicators=skip_zero)
    # the last loop of the budget marks nothing and returns normally
    (record,) = dwr_loop(shipped(1, **zero)).records
    assert (record.n_slabs, record.max_cells) == (5, 3) and record.eta > 0.0
    with pytest.raises(ValueError) as exc:
        dwr_loop(shipped(2, **zero))
    assert str(exc.value).startswith(
        "loop 1: no slab and no cell is marked (theta_tau = 0, theta_h1 = 0, theta_h2 = 0, "
        f"skip_zero_indicators = {str(skip_zero).lower()})")


def test_a_solver_failure_names_its_loop_and_the_iteration_bound():
    config = shipped(5)
    config = dataclasses.replace(config, solver=dataclasses.replace(config.solver,
                                                                    max_iterations=30))
    with pytest.raises(SolverError) as exc:
        dwr_loop(config)
    err, cause = exc.value, exc.value.__cause__
    assert re.fullmatch(r"loop 4: dual solve failed on slab 16: CG did not converge in 30 "
                        r"iterations \(residual \S+, target \S+\) \(solver.max_iterations = 30\)",
                        str(err))
    assert str(err) == f"loop 4: {cause} (solver.max_iterations = 30)"
    assert isinstance(cause, SolverError) and str(cause).startswith("dual solve failed on slab 16")
    assert err.iterations == cause.iterations == 30 and err.residual == cause.residual > 0.0
    assert isinstance(cause.__cause__, SolverError)  # the CG failure itself


def test_a_solve_builds_no_scipy_sparse_matrix(monkeypatch):
    """The step systems are raw CSR arrays from assembly to the reported residual."""
    built = []
    init = _cs_matrix.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_cs_matrix, "__init__", counted)
    result = dwr_loop(shipped(2))
    assert len(result.records) == 2 and any(len(s.primal.constraints) for s in result.slabs)
    assert built == []
    fem.assemble_mass(result.slabs[0].primal)  # the public assembly wraps into scipy
    assert built == ["csr_matrix"]


def test_the_loop_that_meets_the_goal_builds_no_dual_space(monkeypatch, tmp_path):
    """Dual spaces are built on first use, by the dual march, so the goal-met loop builds none."""
    degrees = []
    init, build = FeSpace.__init__, fem.build_spaces

    def counted(self, mesh, degree):
        degrees.append(degree)
        init(self, mesh, degree)

    def counted_batch(meshes, degree):
        spaces = build(meshes, degree)
        degrees.extend([degree] * len({id(space) for space in spaces}))
        return spaces

    # every space is built one at a time or in a one-pass batch
    monkeypatch.setattr(FeSpace, "__init__", counted)
    monkeypatch.setattr(fem, "build_spaces", counted_batch)
    writer, dual_builds = OutputWriter(tmp_path), []

    def on_loop(*args):
        writer.on_loop(*args)  # the final loop writes every slab's VTK file
        dual_builds.append(degrees.count(2))

    result = dwr_loop(shipped(10, tol=0.15), on_loop=on_loop)
    assert result.converged and len(result.records) >= 3
    # one coarse dual space shared by the initial slabs, more after each adaptation
    assert dual_builds[0] == 1 and dual_builds[-2] > dual_builds[-3]
    assert dual_builds[-1] == dual_builds[-2] == degrees.count(2)


SOLVE_SCRIPT = """
import dataclasses, sys
import dwr_diffusion, dwr_diffusion.output
config = dwr_diffusion.parse_parameter_file(sys.argv[1])
config = dataclasses.replace(config, adapt=dataclasses.replace(config.adapt, max_loops=2))
writer = dwr_diffusion.output.OutputWriter(sys.argv[2])
before = set(sys.modules)
result = dwr_diffusion.dwr_loop(config, on_loop=writer.on_loop)
writer.finish(result.records)
print(len(result.records), sorted(set(sys.modules) - before))
"""


def test_a_solve_imports_no_module(tmp_path):
    """Whatever a solve uses is loaded with the package, not inside the solve."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SOLVE_SCRIPT, str(PARAMETER_FILE), str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=300, check=True)
    assert out.stdout.splitlines()[-1] == "2 []"
    assert (tmp_path / "convergence.csv").exists()
