"""Backward time marching of the piecewise-linear-in-time dual problem.

Each slab solves

    (2 M + tau A) z = tau J + 2 M z_next

from the last slab to the first, where z_next is the successor slab's
value at the shared time (zero on the last slab), J is the normalized goal
density assembled in the dual space, and homogeneous Dirichlet values are
eliminated strongly on the Dirichlet-colored boundary regardless of the
primal boundary data.  Each slab stores the value at its left endpoint and
the transferred right-endpoint trace for later use by the estimator.  The
step is solved by :class:`primal.ImplicitStep` with mass factor 2.  The
march first builds every dual space the slabs lack in one pass
(:meth:`slabs.SlabList.build_dual_spaces`), so a loop whose goal is met,
and which runs no dual march, builds none; then its transfers read
:func:`fem.transfer_plans` of the dual spaces.

The goal density comes from the goal norm's pass: the
:class:`GoalContext` carries the :class:`primal.GoalDensity` of each slab,
the time integral of u - u_h on the cells the control volume reaches, and
:func:`assemble_goal_rhs` reads it wherever the dual load's cell rule is
the goal's (dual degree + 1 = primal degree + 2 points per direction, as
for degrees 1 and 2).  Elsewhere it evaluates its slab's residual itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import FeFunction
from .primal import GoalDensity, ImplicitStep, StepReport, goal_residuals
from .slabs import stored
from .sparse_la import SolverControl


@dataclass
class GoalContext:
    """Everything the dual right-hand side needs.

    ``norm`` is the control-volume error norm of the current primal
    solution; the goal density is (u - u_h) / norm.  A zero norm means the
    goal is met and no dual solve should be attempted.  ``densities`` maps
    slabs to the :class:`primal.GoalDensity` of their stored ``u``, as
    :func:`primal.goal_pass` gives it; a slab it misses evaluates its own.
    """

    norm: float
    cv: object
    solution: object
    densities: dict | None = None


def assemble_goal_rhs(slab, ctx):
    """Normalized, unconstrained goal load on the dual space for one slab.

    Computes 1/(tau * norm) * int_{I_n} int_{O_c(t)} phi_i (u - u_h),
    with (dual degree + 1)^2 spatial Gauss points and a 3-point rule in
    time, masked by the moving control volume.  Slabs whose interval does
    not meet the control window get an exact zero vector.
    """
    if ctx.norm <= 0.0:
        raise ValueError("goal rhs needs a positive error norm")
    space = slab.dual
    u = slab.fetch_storage("u")
    if u is None:
        raise ValueError("primal solution missing on slab; run march_forward first")
    rule = fem.cell_rule(space, space.degree + 1)
    goal = (ctx.densities or {}).get(slab)
    if goal is None or goal.rule is not rule:
        (residual,) = goal_residuals([(slab.interval, rule, slab.primal, u)], ctx.solution, ctx.cv)
        goal = GoalDensity.of(residual)
    density = np.zeros(rule.phys.shape[:2])
    density[goal.cells] = goal.values
    return rule.load(space, density) / (slab.tau * ctx.norm)


def march_backward(slabs, coeff, ctx, ctrl=SolverControl()):
    """Solve the dual problem from the last slab to the first.

    Builds every dual space not built yet in one pass
    (:meth:`SlabList.build_dual_spaces`), then stores ``z_tm`` (the unknown
    at the slab's left endpoint) and ``z_tn`` (the successor trace used on
    the right endpoint) on every slab, and returns one :class:`StepReport`
    per slab, in slab order.  ValueError names the first slab that holds no
    ``u`` before any slab is solved or any space built.
    """
    stored(slabs, "u")
    slabs.build_dual_spaces()
    step = ImplicitStep(coeff, 2.0, "dual")
    plans = fem.transfer_plans((slabs[n + 1].dual, slabs[n].dual)
                               for n in range(len(slabs) - 2, -1, -1))
    reports = []
    for n, slab in slabs.iterate_backward():
        space = slab.dual
        if n == len(slabs) - 1:
            z_tn = np.zeros(space.n_dofs)
        else:
            succ = slabs[n + 1]
            z_tn = fem.transfer(
                FeFunction(succ.dual, succ.fetch_storage("z_tm")), space, next(plans)
            ).coefficients
        slab.attach_storage("z_tn", z_tn)
        load = assemble_goal_rhs(slab, ctx)
        x, iters, residual = step.solve(n, space, slab.tau, load, z_tn, 0.0, ctrl)
        slab.attach_storage("z_tm", x)
        reports.append(StepReport(n, iters, residual))
    return reports[::-1]
