"""Forward time marching of the piecewise-constant-in-time primal problem.

Each slab solves one implicit step

    (M + tau A) u = tau (f_bar + h_bar) + M u_prev

where M and A carry the density and permeability coefficients, f_bar and
h_bar are the volume and Neumann loads averaged over the slab interval (by
a 2-point Gauss rule in time, or sampled at the right endpoint), u_prev is
the previous slab's solution interpolated onto the current primal space
(the initial value on the first slab), and Dirichlet values at the right
endpoint are eliminated strongly.  The scheme is algebraically a backward
Euler step with averaged loads.  The march only solves; :func:`goal_norm`
is a pass of its own over the stored solutions.

:class:`ImplicitStep` solves the step of both marches (the dual one with
2 M) from unconstrained loads: c M + tau A condensed in one scatter, slave
and Dirichlet rows eliminated on its pattern, c M applied cell by cell and
the right-hand side condensed once, CG, constraints distributed.  Both
matrices are raw :class:`sparse_la.Csr` arrays, and every product on them
(the Dirichlet lift, CG, the reported residual) is scipy's compiled CSR
kernel called directly, so no scipy matrix object is built on the way.
Consecutive slabs with one space object and a bit-equal tau reuse the
matrices.
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
class StepReport:
    """Per-slab solve diagnostics of either march: CG iterations and final residual."""

    slab_index: int
    cg_iterations: int
    residual: float


def _averaged_load(slab, data, time_rule):
    """Interval average of the volume + Neumann loads on the primal space, unconstrained."""
    space = slab.primal
    if time_rule == "right":
        ts, ws = [slab.interval.t_n], [slab.tau]
    elif time_rule == "gauss":
        ts, ws = slab.interval.gauss_points(LOAD_TIME_QUAD)
    else:
        raise ValueError(f"unknown load time rule {time_rule!r}")
    b = np.zeros(space.n_dofs)
    for t, w in zip(ts, ws):
        b += (w / slab.tau) * fem.assemble_load_volume(
            space, lambda x: data.rhs_f(x, t), condense=False)
        b += (w / slab.tau) * fem.assemble_load_neumann(
            space, lambda x: data.neumann_h(x, t), condense=False)
    return b


class ImplicitStep:
    """Solver of (c M + tau A) x = tau load + c M x_prev, one slab at a time.

    ``c`` is the mass factor and M and A carry the coefficients ``coeff``.
    Only the step applies the hanging constraints, to its system and its
    unconstrained load; Dirichlet values are eliminated strongly.  ``march``
    names the march in solver errors.
    """

    def __init__(self, coeff, mass_factor, march):
        self.coeff = coeff
        self.mass_factor = mass_factor
        self.march = march
        self._space = self._tau = self._matrices = None

    def matrices(self, space, tau):
        """The condensed K = P^T (c M + tau A) P, the system and the Dirichlet dofs.

        K and the system are :class:`sparse_la.Csr` values; the system is K
        on K's index arrays with unit Dirichlet and slave rows.
        Only the last set is held; it is reused while the space object is
        the same and tau is bit-equal.
        """
        if space is not self._space or tau != self._tau:
            K = fem.assemble_csr(space, self.mass_factor * self.coeff.rho,
                                 tau * self.coeff.epsilon)
            dofs = space.boundary_dofs(DIRICHLET)
            fixed = np.union1d(dofs, space.constraints.slaves)
            self._space, self._tau = space, tau
            self._matrices = K, sparse_la.eliminate_on_pattern(K, fixed), dofs
        return self._matrices

    def solve(self, n, space, tau, load, x_prev, dirichlet_values, ctrl):
        """Solution on slab ``n`` with its CG iterations and the residual before distribution.

        ``load`` is unconstrained; ``dirichlet_values`` belong to the Dirichlet dofs.
        """
        K, system, dofs = self.matrices(space, tau)
        cs = space.constraints
        mass = fem.mass_product(space, self.mass_factor * self.coeff.rho, cs.distribute(x_prev))
        rhs = cs.condense_vector(tau * load + mass)
        rhs = sparse_la.lift_dirichlet(K, rhs, dofs, dirichlet_values)
        x0 = np.zeros(space.n_dofs)
        x0[dofs] = dirichlet_values
        try:
            x, iters = sparse_la.cg_solve(system, rhs, ctrl, x0=x0)
        except sparse_la.SolverError as err:
            raise sparse_la.SolverError(
                f"{self.march} solve failed on slab {n}: {err}", err.iterations, err.residual
            ) from err
        residual = float(np.linalg.norm(rhs - sparse_la.spmv(system, x)))
        return cs.distribute(x), iters, residual


def goal_residuals(interval, rule, uh, solution, cv):
    """Yield (time weight, u - u_h) at the goal's 3 Gauss times in ``interval``.

    ``uh`` holds u_h at the points of the cell rule ``rule``.  The residual
    is u - u_h at the points inside the control volume ``cv`` and zero at
    the others; ``solution.u`` is evaluated only inside.  Times at which
    the control volume holds no point are skipped.
    """
    ts, ws = interval.gauss_points(GOAL_TIME_QUAD)
    for t, wt in zip(ts, ws):
        inside = np.flatnonzero(cv.contains(rule.phys, t))
        if len(inside):
            residual = np.zeros_like(uh)
            residual.ravel()[inside] = (
                solution.u(rule.phys.reshape(-1, 2)[inside], t) - uh.ravel()[inside])
            yield wt, residual


def slab_goal_norm_sq(slab, u_fn, solution, cv):
    """Contribution int_{I_n} int_{O_c(t)} (u - u_h)^2 of one slab.

    Spatial quadrature uses (degree + 2)^2 Gauss points, time a 3-point
    Gauss rule; points outside the moving control volume are masked out.
    """
    space = u_fn.space
    rule = fem.cell_rule(space, space.degree + GOAL_SPACE_QUAD_EXTRA)
    uh = rule.values(space, u_fn.coefficients)
    JxW = rule.JxW
    total = 0.0
    for wt, residual in goal_residuals(slab.interval, rule, uh, solution, cv):
        total += wt * float(np.sum(JxW * (residual * residual)))
    return total


def march_forward(slabs, coeff, data, ctrl=SolverControl(), time_rule="gauss"):
    """Solve the primal problem slab by slab, storing u and the incoming trace.

    The first slab starts from the nodal interpolation of the initial
    value; later slabs interpolate their predecessor's solution.  Returns
    the :class:`StepReport` of each slab.  Solver failures abort with the
    slab index attached.
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
        reports.append(StepReport(n, iters, residual))
    return reports


def goal_norm(slabs, solution, cv):
    """Control-volume error norm of the stored ``u``, from :func:`slab_goal_norm_sq` in slab order.

    A control volume that holds every point gives the global L2(L2) error.
    """
    return float(np.sqrt(sum(
        slab_goal_norm_sq(slab, FeFunction(slab.primal, slab.fetch_storage("u")), solution, cv)
        for slab in slabs)))
