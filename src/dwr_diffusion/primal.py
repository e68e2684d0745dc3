"""Forward time marching of the piecewise-constant-in-time primal problem.

Each slab solves one implicit step

    (M + tau A) u = tau (f_bar + h_bar) + M u_prev

where M and A carry the density and permeability coefficients, f_bar and
h_bar are the volume and Neumann loads averaged over the slab interval (by
a 2-point Gauss rule in time, or sampled at the right endpoint), u_prev is
the previous slab's solution interpolated onto the current primal space
(the initial value on the first slab, the others by :func:`fem.transfer`
on the march's :func:`fem.transfer_plans`), and Dirichlet values at the right
endpoint are eliminated strongly.  The scheme is algebraically a backward
Euler step with averaged loads.  The march only solves; :func:`goal_pass`
is a pass of its own over the stored solutions.

The problem data run in block passes (:func:`problem.blocks`), one data
call per block of slabs: the march evaluates f on the load cell rules and
h on the Neumann faces of the slabs ahead of it at their load times, and
:func:`goal_pass` evaluates the control volume and u at the goal times of
all slabs.  Assembly stays per slab, in :func:`_averaged_load` (through
:func:`fem.assemble_load_volume` and :func:`fem.assemble_load_neumann`)
and :func:`slab_goal_norm_sq`, each of which evaluates a block of its own
slab when called without the pass's values.  Of the goal residuals the
pass keeps only each slab's time integral on the cells the control volume
reaches (:class:`GoalDensity`), which the dual goal load reads where it
integrates on the same cell rule (:func:`dual.assemble_goal_rhs`).

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
from typing import NamedTuple

import numpy as np

from . import fem, problem, sparse_la
from .fem import FeFunction
from .mesh import DIRICHLET
from .slabs import stored
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


def _load_times(slab, time_rule):
    """Times and weights of the load average on ``slab`` under ``time_rule``."""
    if time_rule == "right":
        return [slab.interval.t_n], [slab.tau]
    if time_rule == "gauss":
        return slab.interval.gauss_points(LOAD_TIME_QUAD)
    raise ValueError(f"unknown load time rule {time_rule!r}")


def _load_data(slabs, data, time_rule):
    """Per slab, f at the load cell rule's points and h at the Neumann faces' points.

    Yields one ``(f values, h values)`` pair per slab, a list over the load
    times each (:func:`problem.forcing_in_blocks`).
    """
    return problem.forcing_in_blocks(data, (
        (fem.cell_rule(slab.primal, slab.primal.degree + 1).phys,
         fem.face_rule(slab.primal).neumann_points(slab.primal.degree + 1),
         _load_times(slab, time_rule)[0])
        for slab in slabs))


def _averaged_load(slab, data, time_rule, values=None):
    """Interval average of the volume + Neumann loads on the primal space, unconstrained.

    ``values`` is the slab's pair from :func:`_load_data`; without it the
    slab's data are evaluated here.
    """
    space = slab.primal
    ws = _load_times(slab, time_rule)[1]
    f_values, h_values = values or next(_load_data([slab], data, time_rule))
    b = np.zeros(space.n_dofs)
    for w, f, h in zip(ws, f_values, h_values):
        b += (w / slab.tau) * fem.assemble_load_volume(space, f, condense=False)
        b += (w / slab.tau) * fem.assemble_load_neumann(space, h, condense=False)
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


class GoalResidual(NamedTuple):
    """u - u_h of one slab at the points of a cell rule inside the control volume.

    ``terms`` holds ``(time weight, flat point indices, u - u_h there)`` for
    each goal Gauss time at which the control volume holds a point of
    ``rule``; the indices address the rule's (cells, q) points.
    """

    rule: fem.CellRule
    terms: list


class GoalDensity(NamedTuple):
    """The time integral sum_t w_t (u - u_h)(t) of a :class:`GoalResidual`, on its cells only.

    ``values`` (n, q) are its rows of the rule's (cells, q) points at the
    ``cells`` that the control volume reaches at some goal time; it is zero
    on the other cells.  The terms add in time order into zeros, so the
    entries are those of the dense sum.
    """

    rule: fem.CellRule
    cells: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, residual):
        n_cells, q = residual.rule.phys.shape[:2]
        if not residual.terms:
            return cls(residual.rule, np.zeros(0, dtype=int), np.zeros((0, q)))
        density, reached = np.zeros(n_cells * q), np.zeros(n_cells, dtype=bool)
        for wt, points, values in residual.terms:
            density[points] += wt * values
            reached[points // q] = True
        cells = np.flatnonzero(reached)
        return cls(residual.rule, cells, density.reshape(n_cells, q)[cells])


def goal_residuals(parts, solution, cv):
    """Yield the :class:`GoalResidual` of each ``(interval, rule, space, u)`` part, in order.

    u_h is the coefficient vector ``u`` over ``space`` at the points of the
    cell rule ``rule``; the times are the goal's 3 Gauss times in
    ``interval``.  One block pass: ``cv.contains`` once per block, and
    ``solution.u`` once per block at the points inside, if any.  u_h is
    evaluated only on parts with a point inside, and each part is yielded
    once the block holding its last time is done.
    """
    parts = list(parts)
    times = [interval.gauss_points(GOAL_TIME_QUAD) for interval, _, _, _ in parts]
    terms = [[] for _ in parts]
    owners = [(k, wt) for k, (_, ws) in enumerate(times) for wt in ws]
    units = ((rule.phys, t) for (_, rule, _, _), (ts, _) in zip(parts, times) for t in ts)
    done, yielded, uh_of = 0, 0, (None, None)
    for block in problem.blocks(units):
        block_owners = owners[done:done + len(block.spans)]
        done += len(block.spans)
        inside = block.evaluate(cv.contains)
        points = np.flatnonzero(inside)  # ascending, so their rows are too
        if len(points):
            u = solution.u(*block.at(points))
            q = inside.shape[1]
            bounds = np.searchsorted(points, q * np.array(block.spans))
            for (a, _), (lo, hi), (k, wt) in zip(block.spans, bounds, block_owners):
                if hi > lo:
                    if uh_of[0] != k:
                        _, rule, space, coefficients = parts[k]
                        uh_of = k, rule.values(space, coefficients).ravel()
                    at = points[lo:hi] - q * a
                    terms[k].append((wt, at, u[lo:hi] - uh_of[1][at]))
        for k in range(yielded, done // GOAL_TIME_QUAD):
            yield GoalResidual(parts[k][1], terms[k])
            terms[k] = None
        yielded = done // GOAL_TIME_QUAD


def _goal_rule(space):
    return fem.cell_rule(space, space.degree + GOAL_SPACE_QUAD_EXTRA)


def slab_goal_norm_sq(slab, u_fn, solution, cv, residual=None):
    """Contribution int_{I_n} int_{O_c(t)} (u - u_h)^2 of one slab.

    Spatial quadrature uses (degree + 2)^2 Gauss points, time a 3-point
    Gauss rule; points outside the moving control volume are masked out.
    ``residual`` is the slab's :class:`GoalResidual` on that rule, evaluated
    here if not given.
    """
    space = u_fn.space
    rule = _goal_rule(space)
    if residual is None:
        (residual,) = goal_residuals([(slab.interval, rule, space, u_fn.coefficients)],
                                     solution, cv)
    if not residual.terms:
        return 0.0
    JxW = rule.JxW
    total = 0.0
    for wt, points, values in residual.terms:
        r = np.zeros(rule.phys.shape[:2])
        r.ravel()[points] = values
        total += wt * float(np.sum(JxW * (r * r)))
    return total


def goal_pass(slabs, solution, cv):
    """The control-volume error norm of the stored ``u`` and the :class:`GoalDensity` of each slab.

    One :func:`goal_residuals` pass over the slabs' goal cell rules; the
    norm sums :func:`slab_goal_norm_sq` of each slab in slab order, and
    ``{slab: GoalDensity}`` keeps what the dual goal load needs.  A
    control volume that holds every point gives the global L2(L2) error.
    ValueError names the first slab that holds no ``u``.
    """
    slabs = list(slabs)
    us = stored(slabs, "u")
    parts = [(slab.interval, _goal_rule(slab.primal), slab.primal, u)
             for slab, u in zip(slabs, us)]
    total, densities = 0, {}
    for slab, u, residual in zip(slabs, us, goal_residuals(parts, solution, cv)):
        total += slab_goal_norm_sq(slab, FeFunction(slab.primal, u), solution, cv, residual)
        densities[slab] = GoalDensity.of(residual)
    return float(np.sqrt(total)), densities


def march_forward(slabs, coeff, data, ctrl=SolverControl(), time_rule="gauss"):
    """Solve the primal problem slab by slab, storing u and the incoming trace.

    The first slab starts from the nodal interpolation of the initial
    value; later slabs interpolate their predecessor's solution.  Returns
    the :class:`StepReport` of each slab.  Solver failures abort with the
    slab index attached.
    """
    step = ImplicitStep(coeff, 1.0, "primal")
    loads = _load_data(slabs, data, time_rule)
    plans = fem.transfer_plans((slabs[n - 1].primal, slabs[n].primal)
                               for n in range(1, len(slabs)))
    reports = []
    for n, slab in slabs.iterate_forward():
        space = slab.primal
        if n == 0:
            u_prev = fem.interpolate(space, data.initial).coefficients
        else:
            prev = slabs[n - 1]
            u_prev = fem.transfer(
                FeFunction(prev.primal, prev.fetch_storage("u")), space, next(plans)
            ).coefficients
        slab.attach_storage("u_prev", u_prev)
        load = _averaged_load(slab, data, time_rule, next(loads))
        points = space.support_points[space.boundary_dofs(DIRICHLET)]
        g = data.dirichlet_g(points, slab.interval.t_n)
        x, iters, residual = step.solve(n, space, slab.tau, load, u_prev, g, ctrl)
        slab.attach_storage("u", x)
        reports.append(StepReport(n, iters, residual))
    return reports


def goal_norm(slabs, solution, cv):
    """Control-volume error norm of the stored ``u``: the norm of :func:`goal_pass`."""
    return goal_pass(slabs, solution, cv)[0]
