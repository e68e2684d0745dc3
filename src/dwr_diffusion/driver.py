"""The outer adaptation loop: solve, estimate, mark, refine, repeat.

Each loop marches the primal problem forward and measures the
control-volume error norm of the stored solutions in one goal pass
(:func:`primal.goal_pass`).  Unless that meets the goal tolerance, the
dual problem is solved backward on the goal densities of the same pass and
the cell indicators are accumulated.  Every loop then calls ``on_loop``
and, unless it is final (goal met or loop budget spent),
:func:`marking.adapt_slabs` marks and refines.  The relative tolerance
baseline is the first loop's error norm, captured once and frozen; a
baseline of 0, whose target no loop can meet, is rejected.
``DwrResult.converged`` is whether the last loop met the goal: False when
the budget runs out first, in which case that loop's dual and estimate are
still computed for reporting.  A march's :class:`SolverError` is raised
again naming the loop and ``solver.max_iterations``.
"""

from __future__ import annotations

import logging
import math
import resource
from contextlib import contextmanager
from dataclasses import dataclass

from . import estimator as est_mod
from . import marking
from .dual import GoalContext, march_backward
from .mesh import make_lshape
from .primal import goal_pass, march_forward
from .problem import ProblemData
from .slabs import init_slabs, timed
from .sparse_la import SolverError

log = logging.getLogger(__name__)


@dataclass
class LoopRecord:
    """One convergence-table row: loop index, sizes, error, estimate, effectivity.

    The fields after the table's sum each march's space-time dofs (n_dofs
    over the slabs) and CG iterations and take the largest final residual
    of its slabs; the dual ones stay 0, 0 and NaN on a loop whose goal is
    met before the dual runs.  ``eta_signed`` is the signed sum of the
    indicators, NaN on such a loop.  ``goal_error`` is NaN until measured.

    The ``*_s`` fields are the wall seconds of the loop's phases: primal
    march and goal norm, dual march, estimate, marking and adaptation, and
    the ``on_loop`` callback; a phase that does not run reads 0.
    ``spaces_s`` is a sub-phase of ``adapt_s`` + ``dual_s``: the one-pass
    space builds, of the new primal spaces in the adaptation and of the
    missing dual spaces at the start of the dual march
    (``SlabList.spaces_s``).  ``refine_s`` is a sub-phase of ``adapt_s``:
    the one-pass refinement of the marked slab meshes (``SlabList.refine_s``).
    The callback sees ``on_loop_s``, ``adapt_s``, ``spaces_s``,
    ``refine_s`` and ``peak_rss_mb`` still 0.
    ``peak_rss_mb`` is the process's peak resident set size at the loop's
    end (``ru_maxrss``, kilobytes on Linux, / 1024).
    ``rate`` is the error-vs-dofs exponent from the loop before,
    log(e_k / e_{k-1}) / log(N_k / N_{k-1}) with e the goal error and N the
    primal space-time dofs; NaN on loop 1 and wherever it is undefined.
    """

    loop: int
    n_slabs: int
    max_cells: int
    goal_error: float = math.nan
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
    spaces_s: float = 0.0
    refine_s: float = 0.0
    peak_rss_mb: float = 0.0
    rate: float = math.nan


@dataclass
class DwrResult:
    records: list
    converged: bool
    tol_absolute: float
    slabs: object


def dwr_loop(config, on_loop=None, mesh_factory=make_lshape):
    """Run the adaptation loop for a full run configuration.

    ``on_loop(loop, slabs, estimate, record, final)`` runs once per loop before
    any adaptation, on the meshes and solutions the record describes;
    ``estimate`` is None when the goal is met.  Returns a :class:`DwrResult`.
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
    data = ProblemData(solution=config.solution, coefficients=config.coefficients, t0=disc.t0)

    for loop in range(1, adapt.max_loops + 1):
        record = LoopRecord(loop, len(slabs), max(s.mesh.n_active_cells for s in slabs))
        records.append(record)
        spaces_before, refine_before = slabs.spaces_s, slabs.refine_s
        with timed(record, "primal_s"), _naming(loop, config.solver):
            reports = march_forward(slabs, config.coefficients, data, ctrl=config.solver,
                                    time_rule=disc.load_quadrature)
            err, densities = goal_pass(slabs, config.solution, config.control_volume)
            record.goal_error = err
        if loop == 1 and adapt.tol_mode == "relative":
            if err == 0.0:
                cv = config.control_volume
                raise ValueError(
                    f"loop 1: goal error 0 over the control-volume time window ({cv.t_start:g}, "
                    f"{cv.t_end:g}) sets a relative target of 0 that no loop can meet"
                )
            tol_abs = adapt.tol * err
        record.goal_met = err < tol_abs
        _record_march(record, "primal", reports, slabs)
        if loop > 1:
            record.rate = _rate(records[-2], record)
        log.info("loop %d: %d slabs, %d cells max, goal error %.6e (target %.6e)",
                 loop, record.n_slabs, record.max_cells, err, tol_abs)

        estimate = None
        if not record.goal_met:
            ctx = GoalContext(norm=err, cv=config.control_volume, solution=config.solution,
                              densities=densities)
            with timed(record, "dual_s"), _naming(loop, config.solver):
                dual_steps = march_backward(slabs, config.coefficients, ctx, ctrl=config.solver)
            del ctx, densities  # no later phase or loop reads them
            _record_march(record, "dual", dual_steps, slabs)
            with timed(record, "estimate_s"):
                estimate = est_mod.accumulate(est_mod.slab_indicators(
                    slabs, config.coefficients, data, config.estimator.time_restriction))
            record.eta, record.eta_signed = estimate.eta_total, estimate.eta_signed
            record.i_eff = est_mod.effectivity(estimate, err)

        final = record.goal_met or loop == adapt.max_loops
        if on_loop:
            with timed(record, "on_loop_s"):
                on_loop(loop, slabs, estimate, record, final)
        if not final:
            with timed(record, "adapt_s"):
                marking.adapt_slabs(slabs, estimate, adapt, loop)
        record.spaces_s = slabs.spaces_s - spaces_before
        record.refine_s = slabs.refine_s - refine_before
        _log_costs(record)
        if final:
            break

    return DwrResult(records, records[-1].goal_met, tol_abs, slabs)


@contextmanager
def _naming(loop, ctrl):
    """Raise the block's :class:`SolverError` again, naming the loop and the iteration bound."""
    try:
        yield
    except SolverError as err:
        raise SolverError(f"loop {loop}: {err} (solver.max_iterations = {ctrl.max_iterations})",
                          err.iterations, err.residual) from err


def _log_costs(record):
    """Record the peak RSS so far and log it with the loop's phase times."""
    record.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log.debug("loop %d: phases primal %.3f s, dual %.3f s, estimate %.3f s, adapt %.3f s, "
              "on_loop %.3f s; peak RSS %.1f MB", record.loop, record.primal_s, record.dual_s,
              record.estimate_s, record.adapt_s, record.on_loop_s, record.peak_rss_mb)
    log.debug("loop %d: space builds %.3f s of the adapt and dual phases, refinement %.3f s "
              "of the adapt phase", record.loop, record.spaces_s, record.refine_s)


def _rate(before, record):
    """log(e_k / e_{k-1}) / log(N_k / N_{k-1}) of goal errors e and primal space-time dofs N of
    two loop records, NaN where a logarithm or the quotient is undefined."""
    try:
        return math.log(record.goal_error / before.goal_error) / math.log(
            record.primal_dofs / before.primal_dofs)
    except (ValueError, ZeroDivisionError):
        return math.nan


def _record_march(record, march, reports, slabs):
    """Set and log ``record.<march>_dofs``, ``_cg_iterations`` and ``_max_residual``.

    ``march`` names the record fields and the slab space (``primal`` or
    ``dual``); the reports give the summed iterations and largest residual.
    """
    dofs = sum(getattr(slab, march).n_dofs for slab in slabs)
    iterations = sum(r.cg_iterations for r in reports)
    residual = max(r.residual for r in reports)
    setattr(record, f"{march}_dofs", dofs)
    setattr(record, f"{march}_cg_iterations", iterations)
    setattr(record, f"{march}_max_residual", residual)
    log.debug("loop %d: %s CG iterations %d, largest final residual %.3e",
              record.loop, march, iterations, residual)
    log.debug("loop %d: %s space-time dofs %d", record.loop, march, dofs)
