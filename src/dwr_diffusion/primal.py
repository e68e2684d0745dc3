"""Forward time marching of the piecewise-constant-in-time primal problem.

Each slab solves one implicit step

    (M + tau A) u = tau (f_bar + h_bar) + M u_prev

where M and A carry the density and permeability coefficients, f_bar and
h_bar are the volume and Neumann loads averaged over the slab interval (by
a 2-point Gauss rule in time, or sampled at the right endpoint), u_prev is
the previous slab's solution interpolated onto the current primal space
(the initial value on the first slab), and Dirichlet values at the right
endpoint are eliminated strongly.  The scheme is algebraically a backward
Euler step with averaged loads.

:class:`ImplicitStep` solves the step of both marches (the dual one with
2 M): condensed M and A, slave diagonals pinned, Dirichlet rows
eliminated, CG, constraints distributed.  Consecutive slabs with one
space object and a bit-equal tau reuse its matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, sparse_la
from .fem import FeFunction
from .mesh import DIRICHLET
from .sparse_la import SolverControl

GOAL_SPACE_QUAD_EXTRA = 2  # (degree + 2)^2 points for goal / error integrals
GOAL_TIME_QUAD = 3
LOAD_TIME_QUAD = 2


@dataclass
class PrimalStepReport:
    """Per-slab solve diagnostics and the slab's share of the goal norm."""

    slab_index: int
    cg_iterations: int
    residual: float
    goal_norm_sq_contrib: float = 0.0


def _averaged_load(slab, data, time_rule):
    """Interval average of the volume + Neumann loads on the primal space."""
    space = slab.primal
    if time_rule == "right":
        t = slab.interval.t_n
        b = fem.assemble_load_volume(space, lambda x: data.rhs_f(x, t))
        b += fem.assemble_load_neumann(space, lambda x: data.neumann_h(x, t))
        return b
    if time_rule != "gauss":
        raise ValueError(f"unknown load time rule {time_rule!r}")
    ts, ws = slab.interval.gauss_points(LOAD_TIME_QUAD)
    b = np.zeros(space.n_dofs)
    for t, w in zip(ts, ws):
        b += (w / slab.tau) * fem.assemble_load_volume(space, lambda x: data.rhs_f(x, t))
        b += (w / slab.tau) * fem.assemble_load_neumann(
            space, lambda x: data.neumann_h(x, t)
        )
    return b


class ImplicitStep:
    """Solver of (c M + tau A) x = tau load + c M x_prev, one slab at a time.

    ``c`` is the mass factor; M and A carry the coefficients ``coeff`` and
    are condensed; Dirichlet values are eliminated strongly.  ``march``
    names the march in solver errors.
    """

    def __init__(self, coeff, mass_factor, march):
        self.coeff = coeff
        self.mass_factor = mass_factor
        self.march = march
        self._space = self._tau = self._matrices = None

    def matrices(self, space, tau):
        """M, the pinned c M + tau A, its Dirichlet-eliminated form and the Dirichlet dofs.

        Only the last set is held; it is reused while the space object is
        the same and tau is bit-equal.
        """
        if space is not self._space or tau != self._tau:
            M = fem.assemble_mass(space, self.coeff.rho)
            A = fem.assemble_stiffness(space, self.coeff.epsilon)
            pinned = space.constraints.pin(self.mass_factor * M + tau * A)
            dofs = space.boundary_dofs(DIRICHLET)
            self._space, self._tau = space, tau
            self._matrices = M, pinned, sparse_la.eliminate_dirichlet(pinned, dofs), dofs
        return self._matrices

    def solve(self, n, space, tau, load, x_prev, dirichlet_values, ctrl):
        """Solution on slab ``n`` with its CG iterations and the residual before distribution.

        ``dirichlet_values`` belong to ``space.boundary_dofs(DIRICHLET)``.
        """
        M, pinned, system, dofs = self.matrices(space, tau)
        rhs = tau * load + self.mass_factor * (M @ x_prev)
        rhs = sparse_la.lift_dirichlet(pinned, rhs, dofs, dirichlet_values)
        x0 = np.zeros(space.n_dofs)
        x0[dofs] = dirichlet_values
        try:
            x, iters = sparse_la.cg_solve(system, rhs, ctrl, x0=x0)
        except sparse_la.SolverError as err:
            raise sparse_la.SolverError(
                f"{self.march} solve failed on slab {n}: {err}", err.iterations, err.residual
            ) from err
        residual = float(np.linalg.norm(rhs - system @ x))
        return space.constraints.distribute(x), iters, residual


def slab_goal_norm_sq(slab, u_fn, solution, cv):
    """Contribution int_{I_n} int_{O_c(t)} (u - u_h)^2 of one slab.

    Spatial quadrature uses (degree + 2)^2 Gauss points, time a 3-point
    Gauss rule; points outside the moving control volume are masked out.
    """
    space = u_fn.space
    rule = fem.cell_rule(space, space.degree + GOAL_SPACE_QUAD_EXTRA)
    uh = rule.values(space, u_fn.coefficients)
    ts, ws = slab.interval.gauss_points(GOAL_TIME_QUAD)
    total = 0.0
    for t, wt in zip(ts, ws):
        mask = cv.contains(rule.phys, t)
        if not mask.any():
            continue
        diff = solution.u(rule.phys, t) - uh
        total += wt * float(np.sum(rule.JxW * np.where(mask, diff * diff, 0.0)))
    return total


def march_forward(slabs, coeff, data, ctrl=SolverControl(), cv=None, time_rule="gauss"):
    """Solve the primal problem slab by slab, storing u and the incoming trace.

    The first slab starts from the nodal interpolation of the initial
    value; later slabs interpolate their predecessor's solution.  When a
    control volume is given, each report carries the slab's goal-norm
    contribution.  Solver failures abort with the slab index attached.
    """
    step = ImplicitStep(coeff, 1.0, "primal")
    reports = []
    for n, slab in slabs.iterate_forward():
        space = slab.primal
        if n == 0:
            u_prev = fem.interpolate(space, data.initial).coefficients
        else:
            prev = slabs[n - 1]
            prev_u = prev.fetch_storage("u")
            u_prev = fem.transfer(
                FeFunction(prev.primal, prev_u), space
            ).coefficients
        slab.attach_storage("u_prev", u_prev)
        load = _averaged_load(slab, data, time_rule)
        points = space.support_points[space.boundary_dofs(DIRICHLET)]
        g = data.dirichlet_g(points, slab.interval.t_n)
        x, iters, residual = step.solve(n, space, slab.tau, load, u_prev, g, ctrl)
        slab.attach_storage("u", x)
        contrib = 0.0
        if cv is not None:
            contrib = slab_goal_norm_sq(slab, FeFunction(space, x), data.solution, cv)
        reports.append(PrimalStepReport(n, iters, residual, contrib))
    return reports


def goal_norm(reports):
    """Accumulated control-volume error norm from the per-slab contributions."""
    return float(np.sqrt(sum(r.goal_norm_sq_contrib for r in reports)))
