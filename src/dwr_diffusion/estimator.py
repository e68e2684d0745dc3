"""Localized dual-weighted residual indicators and their accumulation.

The per-cell indicator weights the classical strong residual of the
one-step primal scheme with the dual-solution defect w = z - i_h z, where
i_h restricts the dual solution to the primal space nodally in space and
to a slabwise constant in time (mean of the endpoint values by default):

    eta_K = int_In int_K (f + eps lap u_h) w
          - 1/2 int_In int_{dK \\ boundary} [eps dn u_h] w
          + int_In int_{dK on Neumann} (h - eps dn u_h) w
          - int_K rho (u_h - u_prev) w(t_m+)

Interior face jumps are split evenly between the two adjacent cells; on
1-irregular faces the integration runs over the fine-side face pieces.
Temporal integrals use a 2-point Gauss rule, cell integrals
(dual degree + 1)^2 points, face integrals dual degree + 1 points.

Each slab's signed indicators are one float64 array aligned with
``slab.mesh.active_ids()``; absolute values enter only the per-slab and
global sums.

Both terms are batched.  The volume term reads the mesh state's cached
:func:`fem.cell_rule`, whose one inverse Jacobian per parallelogram cell
gives the exact Laplacian.  The face term runs over the non-Dirichlet rows
of the mesh's face table (:meth:`QuadMesh.face_topology`), one per face
piece, in table order: cells in ``dual.active_ids`` order, faces 0..3,
pieces ascending along the face.  :func:`fem.face_quadrature` gives each
piece's Gauss points on both sides, where grad u_h is evaluated on both
sides and w on the owner; :func:`slab_indicators` builds it once per run of
slabs on one dual space and never keeps it (the ``fem`` module says why).
``np.add.at`` scatters the pieces in table order, the summation order of a
per-face loop: marking sorts |eta| with an index tie-break, so a reordered
sum that flips the last bit of two near-equal indicators could change which
cells are refined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import FeFunction
from .mesh import DIRICHLET, NEUMANN

_TIME_QUAD = 2


def dual_weights(slab, z_tm, z_tn, time_restriction="mean"):
    """Weight coefficient vectors w(t_m), w(t_n) on the dual space.

    The restriction i_h maps the dual solution to the primal space by
    nodal interpolation in space; in time it collapses the linear run to
    its endpoint mean ("mean") or its right endpoint value ("right").
    """
    if time_restriction == "mean":
        zbar = 0.5 * (np.asarray(z_tm) + np.asarray(z_tn))
    elif time_restriction == "right":
        zbar = np.asarray(z_tn, dtype=float)
    else:
        raise ValueError(f"unknown time restriction {time_restriction!r}")
    restricted = fem.interpolate_same_mesh(FeFunction(slab.dual, zbar), slab.primal)
    back = fem.interpolate_same_mesh(restricted, slab.dual)
    return np.asarray(z_tm) - back.coefficients, np.asarray(z_tn) - back.coefficients


def _shared_pieces(slab):
    """What every slab on this dual space shares in :func:`indicator_terms`, in its order."""
    rule = fem.cell_rule(slab.dual, slab.dual.degree + 1)
    table = slab.mesh.face_topology()
    rows = ~table.on_boundary(DIRICHLET)
    quad = fem.face_quadrature(slab.dual, slab.dual.degree + 1, rows)
    return (rule.invJ @ rule.invJ.transpose(0, 2, 1), quad, table.on_boundary(NEUMANN)[rows],
            np.repeat(quad.cells.ravel(), quad.JxW.shape[1]), quad.gradients(slab.primal.degree))


def indicator_terms(slab, u, u_prev, w_tm, w_tn, coeff, data, shared=None):
    """Signed indicators (float64, in ``active_ids()`` order) for given weight vectors.

    ``shared`` is :func:`_shared_pieces` of the slab, built here if not given.
    """
    primal, dual = slab.primal, slab.dual
    lap, quad, neumann, at, grad = shared or _shared_pieces(slab)
    eps = coeff.epsilon
    u = np.asarray(u, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    w_tm = np.asarray(w_tm, dtype=float)
    w_tn = np.asarray(w_tn, dtype=float)

    ts, wts = slab.interval.gauss_points(_TIME_QUAD)
    theta = np.array([slab.interval.unit_coord(t) for t in ts])
    w_at = np.stack([(1 - th) * w_tm + th * w_tn for th in theta])  # (time, dof)

    # volume terms, batched over all cells
    rule = fem.cell_rule(dual, dual.degree + 1)
    # physical Laplacian: the reference Hessian traced against the cell's invJ invJ^T
    ref_hess = np.einsum("qief,ci->cqef", rule.basis(primal.degree).hess, u[primal.cell_dofs])
    lap_u = np.einsum("cqef,cef->cq", ref_hess, lap)
    du_jump = rule.values(primal, u - u_prev)

    eta = np.zeros(len(dual.active_ids))
    for (t, wt, w) in zip(ts, wts, w_at):
        resid = data.rhs_f(rule.phys, t) + eps * lap_u
        eta += wt * np.einsum("cq,cq->c", rule.JxW, resid * rule.values(dual, w))
    eta -= coeff.rho * np.einsum("cq,cq->c", rule.JxW, du_jump * rule.values(dual, w_tm))

    # face terms, batched over the non-Dirichlet face pieces
    own, (n_pc, n_q) = quad.cells[0], quad.JxW.shape
    grads = fem.physical_gradients(primal, u, at, grad).reshape(2, n_pc, n_q, 2)
    w_face = np.einsum("pqi,tpi->tpq", quad.N, w_at[:, dual.cell_dofs[own]])

    # interior pieces: eps [dn u_h]; Neumann pieces: h - eps dn u_h
    resid = np.empty((len(ts), n_pc, n_q))
    resid[:] = eps * np.einsum("pqd,pd->pq", grads[0] - grads[1], quad.normal)
    if neumann.any():
        flux = eps * np.einsum("pqd,pd->pq", grads[0, neumann], quad.normal[neumann])
        for k, t in enumerate(ts):
            resid[k, neumann] = data.neumann_h(quad.phys[neumann], t) - flux
    inner = np.sum(quad.JxW * resid * w_face, axis=-1)  # (time, piece)
    acc = sum(wt * row for wt, row in zip(wts, inner))
    # np.add.at adds in piece order, the summation order of a per-cell face loop
    np.add.at(eta, own, np.where(neumann, acc, -0.5 * acc))

    return eta


def compute_cell_indicators(slab, u, z_tm, z_tn, u_prev, coeff, data,
                            time_restriction="mean", shared=None):
    """Signed per-cell indicators from the primal and dual solutions of one slab."""
    w_tm, w_tn = dual_weights(slab, z_tm, z_tn, time_restriction)
    return indicator_terms(slab, u, u_prev, w_tm, w_tn, coeff, data, shared)


def slab_indicators(slabs, coeff, data, time_restriction="mean"):
    """:func:`compute_cell_indicators` of each slab from its stored u, z_tm, z_tn and u_prev.

    Each run of consecutive slabs on one dual space builds its
    :func:`_shared_pieces` once; nothing is kept after the run.
    """
    out = []
    for _, run in itertools.groupby(slabs, key=lambda slab: slab.dual):
        run = list(run)
        shared = _shared_pieces(run[0])
        out += [compute_cell_indicators(
            slab, *(slab.fetch_storage(tag) for tag in ("u", "z_tm", "z_tn", "u_prev")),
            coeff, data, time_restriction, shared) for slab in run]
    return out


@dataclass
class ErrorEstimate:
    """Per-slab indicator arrays plus their absolute-value sums and the signed total.

    ``cell_indicators[k]`` is slab k's array in ``active_ids()`` order.  Sums
    run left to right (ascending slab, ascending cell id), never pairwise, so
    the totals are reproducible exactly; ``eta_signed`` sums the signed
    indicators in the order ``eta_total`` sums their absolute values.
    """

    cell_indicators: list
    eta_slabs: list
    eta_total: float
    eta_signed: float = math.nan
    i_eff: float = math.nan


def _sequential_sum(values):
    """0.0 + v_0 + v_1 + ..., added left to right as a Python loop would."""
    return float(np.cumsum(np.concatenate([[0.0], values]))[-1])


def accumulate(per_slab_indicators):
    """Fold per-slab indicator arrays into slab sums and the global estimate."""
    etas = [np.asarray(eta, dtype=float) for eta in per_slab_indicators]
    eta_slabs = [_sequential_sum(np.abs(eta)) for eta in etas]
    eta_signed = _sequential_sum([_sequential_sum(eta) for eta in etas])
    return ErrorEstimate(etas, eta_slabs, _sequential_sum(eta_slabs), eta_signed)


def effectivity(estimate, goal_error):
    """|eta_total / goal_error|; a vanishing error means the goal is met."""
    if goal_error == 0.0:
        raise ValueError("goal met: goal error is zero, effectivity undefined")
    return abs(estimate.eta_total / goal_error)
