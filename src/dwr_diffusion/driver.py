"""The outer adaptation loop: solve, estimate, mark, refine, repeat.

Each loop marches the primal problem forward and accumulates the
control-volume error norm; if the goal tolerance is met the loop stops
without a dual solve or adaptation.  Otherwise the dual problem is solved
backward, cell indicators are computed and accumulated, slabs and cells
are marked by the two-fraction strategy and the space-time meshes are
refined.  The relative tolerance baseline is the first loop's error norm,
captured once and frozen; a baseline of 0, whose target no loop can meet,
is rejected.  When the loop budget is exhausted the last record is flagged
as not converged (the dual and the estimate are still computed on that
final loop for reporting).  A loop that marks no slab and no cell would
repeat itself, so it raises :class:`ValueError` naming the loop and the
marking parameters.
"""

from __future__ import annotations

import logging
import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass

from . import estimator as est_mod
from . import marking
from .dual import GoalContext, march_backward
from .mesh import make_lshape
from .primal import goal_norm, march_forward
from .problem import ProblemData
from .slabs import init_slabs

log = logging.getLogger(__name__)


@dataclass
class LoopRecord:
    """One convergence-table row: loop index, sizes, error, estimate, effectivity.

    The fields after the table's sum each march's space-time dofs (n_dofs
    over the slabs) and CG iterations and take the largest final residual
    of its slabs; the dual ones stay 0, 0 and NaN on a loop whose goal is
    met before the dual runs.  ``eta_signed`` is the signed sum of the
    indicators, NaN on such a loop.

    The ``*_s`` fields are the wall seconds of the loop's phases: primal
    march, dual march, estimate, marking and adaptation, and the
    ``on_loop`` callback; a phase that does not run reads 0.  The callback
    sees ``on_loop_s``, ``adapt_s`` and ``peak_rss_mb`` still 0.
    ``peak_rss_mb`` is the process's peak resident set size at the loop's
    end (``ru_maxrss``, kilobytes on Linux, / 1024).
    """

    loop: int
    n_slabs: int
    max_cells: int
    goal_error: float
    eta: float = math.nan
    i_eff: float = math.nan
    goal_met: bool = False
    primal_dofs: int = 0
    dual_dofs: int = 0
    primal_cg_iterations: int = 0
    primal_max_residual: float = math.nan
    dual_cg_iterations: int = 0
    dual_max_residual: float = math.nan
    eta_signed: float = math.nan
    primal_s: float = 0.0
    dual_s: float = 0.0
    estimate_s: float = 0.0
    adapt_s: float = 0.0
    on_loop_s: float = 0.0
    peak_rss_mb: float = 0.0


@dataclass
class DwrResult:
    records: list
    converged: bool
    tol_absolute: float
    slabs: object


def dwr_loop(config, on_loop=None, mesh_factory=make_lshape):
    """Run the adaptation loop for a full run configuration.

    ``on_loop(loop, slabs, estimate, record, final)`` is invoked once per
    loop, before any adaptation, so callbacks observe the meshes and
    solutions the record describes.  Returns a :class:`DwrResult`.
    """
    disc = config.discretization
    slabs = init_slabs(
        mesh_factory(),
        disc.t0,
        disc.T,
        disc.n_slabs,
        disc.primal_degree,
        disc.dual_degree,
    )
    adapt = config.adapt
    records = []
    tol_abs = adapt.tol if adapt.tol_mode == "absolute" else math.nan
    converged = False
    data = ProblemData(solution=config.solution, coefficients=config.coefficients, t0=disc.t0)

    for loop in range(1, adapt.max_loops + 1):
        start = time.perf_counter()
        reports = march_forward(
            slabs,
            config.coefficients,
            data,
            ctrl=config.solver,
            cv=config.control_volume,
            time_rule=disc.load_quadrature,
        )
        primal_s = time.perf_counter() - start
        err = goal_norm(reports)
        if loop == 1 and adapt.tol_mode == "relative":
            if err == 0.0:
                cv = config.control_volume
                raise ValueError(
                    f"loop 1: goal error 0 over the control-volume time window ({cv.t_start:g}, "
                    f"{cv.t_end:g}) sets a relative target of 0 that no loop can meet"
                )
            tol_abs = adapt.tol * err
        record = LoopRecord(
            loop=loop,
            n_slabs=len(slabs),
            max_cells=max(s.mesh.n_active_cells for s in slabs),
            goal_error=err,
            goal_met=err < tol_abs,
            primal_dofs=sum(s.primal.n_dofs for s in slabs),
            primal_s=primal_s,
        )
        record.primal_cg_iterations, record.primal_max_residual = _solver_totals(reports)
        log.debug("loop %d: primal CG iterations %d, largest final residual %.3e",
                  loop, record.primal_cg_iterations, record.primal_max_residual)
        log.debug("loop %d: primal space-time dofs %d", loop, record.primal_dofs)
        records.append(record)
        log.info(
            "loop %d: %d slabs, %d cells max, goal error %.6e (target %.6e)",
            loop, record.n_slabs, record.max_cells, err, tol_abs,
        )

        if record.goal_met:
            converged = True
            if on_loop:
                with _timed(record, "on_loop_s"):
                    on_loop(loop, slabs, None, record, True)
            _log_costs(record)
            break

        ctx = GoalContext(norm=err, cv=config.control_volume, solution=config.solution)
        with _timed(record, "dual_s"):
            dual_steps = march_backward(slabs, config.coefficients, ctx, ctrl=config.solver)
        record.dual_cg_iterations, record.dual_max_residual = _solver_totals(dual_steps)
        record.dual_dofs = sum(s.dual.n_dofs for s in slabs)
        log.debug("loop %d: dual CG iterations %d, largest final residual %.3e",
                  loop, record.dual_cg_iterations, record.dual_max_residual)
        log.debug("loop %d: dual space-time dofs %d", loop, record.dual_dofs)
        with _timed(record, "estimate_s"):
            estimate = est_mod.accumulate(est_mod.slab_indicators(
                slabs, config.coefficients, data, config.estimator.time_restriction))
            estimate.i_eff = est_mod.effectivity(estimate, err)
        record.eta = estimate.eta_total
        record.eta_signed = estimate.eta_signed
        record.i_eff = estimate.i_eff

        final = loop == adapt.max_loops
        if on_loop:
            with _timed(record, "on_loop_s"):
                on_loop(loop, slabs, estimate, record, final)
        if final:
            _log_costs(record)
            break

        with _timed(record, "adapt_s"):
            skip = adapt.skip_zero_indicators
            time_marks = marking.mark_time_slabs(estimate, adapt.theta_tau, skip_zero=skip)
            space_marks = {
                k: marking.mark_space_cells(
                    slab,
                    estimate.cell_indicators[k],
                    k in time_marks,
                    adapt.theta_h1,
                    adapt.theta_h2,
                    skip_zero=skip,
                )
                for k, slab in slabs.iterate_forward()
            }
            if not any(map(len, [time_marks, *space_marks.values()])):
                raise ValueError(
                    f"loop {loop}: no slab and no cell is marked "
                    f"(theta_tau = {adapt.theta_tau:g}, theta_h1 = {adapt.theta_h1:g}, "
                    f"theta_h2 = {adapt.theta_h2:g}, skip_zero_indicators = "
                    f"{str(skip).lower()}), so every later loop would repeat this one")
            marking.execute_adaptation(slabs, time_marks, space_marks)
        _log_costs(record)

    return DwrResult(records, converged, tol_abs, slabs)


@contextmanager
def _timed(record, field):
    """Set ``record.<field>`` to the wall seconds the block takes."""
    start = time.perf_counter()
    yield
    setattr(record, field, time.perf_counter() - start)


def _log_costs(record):
    """Record the peak RSS so far and log it with the loop's phase times."""
    record.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log.debug("loop %d: phases primal %.3f s, dual %.3f s, estimate %.3f s, adapt %.3f s, "
              "on_loop %.3f s; peak RSS %.1f MB", record.loop, record.primal_s, record.dual_s,
              record.estimate_s, record.adapt_s, record.on_loop_s, record.peak_rss_mb)


def _solver_totals(reports):
    """Summed CG iterations and largest final residual of one march's step reports."""
    return sum(r.cg_iterations for r in reports), max(r.residual for r in reports)
