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

Both terms are batched, and each field they read is one matrix product of
the slab's per-cell coefficients with a per-process reference table.  The
volume term reads the mesh state's cached :func:`fem.cell_rule`:
:meth:`fem.CellRule.laplacians` traces the reference Hessians against the
one inverse Jacobian per parallelogram cell, which gives the exact
Laplacian.  The face term reads the mesh state's cached
:func:`fem.face_rule`, one row per non-Dirichlet face piece in face-table
order: cells in ``dual.active_ids`` order, faces 0..3, pieces ascending
along the face.  :func:`fem.face_gradients` gives grad u_h and
:func:`fem.face_values` gives w at the Gauss points of every face and slot
of every cell; each piece takes its rows by the rule's ``flat`` index,
grad u_h on both sides and w on the owner.  The products sum in BLAS
order, so the indicators agree with a per-point evaluation to rounding
(about 1e-16 of the largest), not bit for bit.
The data f and h at the 2 Gauss times come from one block pass over all
slabs (:func:`problem.blocks`), f at the cell rule's points and h at the
face rule's :meth:`~fem.FaceRule.neumann_points`; :func:`indicator_terms`
called alone evaluates its own slab's.
``np.add.at`` scatters the pieces in table order, the summation order of a
per-face loop: marking sorts |eta| with an index tie-break, so a reordered
sum that flips the last bit of two near-equal indicators could change which
cells are refined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fem, problem
from .fem import FeFunction
from .slabs import stored

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


def _indicator_data(slabs, data):
    """Per slab, f at the cell rule's points and h at the Neumann faces' points.

    Yields one ``(f values, h values)`` pair per slab, a list over the
    estimator's Gauss times each (:func:`problem.forcing_in_blocks`).
    """
    return problem.forcing_in_blocks(data, (
        (fem.cell_rule(slab.dual, slab.dual.degree + 1).phys,
         fem.face_rule(slab.dual).neumann_points(slab.dual.degree + 1),
         slab.interval.gauss_points(_TIME_QUAD)[0])
        for slab in slabs))


def _vector(vector, space, name):
    """``vector`` as float64; ValueError naming it unless its shape is ``(space.n_dofs,)``."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (space.n_dofs,):
        raise ValueError(f"{name} has shape {vector.shape}, not ({space.n_dofs},) "
                         f"for the degree-{space.degree} space")
    return vector


def indicator_terms(slab, u, u_prev, w_tm, w_tn, coeff, data, values=None):
    """Signed indicators (float64, in ``active_ids()`` order) for given weight vectors.

    ``values`` is the slab's pair from :func:`_indicator_data`, evaluated
    here if not given.
    """
    primal, dual = slab.primal, slab.dual
    u, u_prev = (_vector(v, primal, name) for v, name in ((u, "u"), (u_prev, "u_prev")))
    w_tm, w_tn = (_vector(v, dual, name) for v, name in ((w_tm, "w_tm"), (w_tn, "w_tn")))
    f_values, h_values = values or next(_indicator_data([slab], data))
    eps = coeff.epsilon

    ts, wts = slab.interval.gauss_points(_TIME_QUAD)
    theta = np.array([slab.interval.unit_coord(t) for t in ts])
    w_at = np.stack([(1 - th) * w_tm + th * w_tn for th in theta])  # (time, dof)

    # volume terms, batched over all cells
    rule = fem.cell_rule(dual, dual.degree + 1)
    lap_u = rule.laplacians(primal, u)
    du_jump = rule.values(primal, u - u_prev)

    eta = np.zeros(len(dual.active_ids))
    for (f, wt, w) in zip(f_values, wts, w_at):
        resid = f + eps * lap_u
        eta += wt * np.einsum("cq,cq->c", rule.JxW, resid * rule.values(dual, w))
    eta -= coeff.rho * np.einsum("cq,cq->c", rule.JxW, du_jump * rule.values(dual, w_tm))

    # face terms, batched over the non-Dirichlet face pieces: every cell's face
    # points in one product, then each piece's rows on both sides
    pieces, n_q = fem.face_rule(dual), dual.degree + 1
    flat, neumann, normal = pieces.flat, pieces.neumann, pieces.normal
    own = flat[0] // 12
    grads = np.take(fem.face_gradients(primal, u, n_q).reshape(-1, n_q, 2), flat, axis=0)
    w_face = np.take(fem.face_values(dual, w_at, n_q).reshape(len(ts), -1, n_q), flat[0], axis=1)

    # interior pieces: eps [dn u_h]; Neumann pieces: h - eps dn u_h
    resid = np.empty((len(ts), len(own), n_q))
    resid[:] = eps * np.einsum("pqd,pd->pq", grads[0] - grads[1], normal)
    if len(neumann):
        flux = eps * np.einsum("pqd,pd->pq", grads[0, neumann], normal[neumann])
        for k, h in enumerate(h_values):
            resid[k, neumann] = h - flux
    inner = np.sum(pieces.JxW(n_q) * resid * w_face, axis=-1)  # (time, piece)
    acc = sum(wt * row for wt, row in zip(wts, inner))
    # interior pieces count half on each side, Neumann pieces whole; np.add.at
    # adds in piece order, the summation order of a per-cell face loop
    share = np.full(len(own), -0.5)
    share[neumann] = 1.0
    np.add.at(eta, own, share * acc)

    return eta


def slab_indicators(slabs, coeff, data, time_restriction="mean"):
    """:func:`indicator_terms` of each slab's stored u and u_prev, weighted by the
    :func:`dual_weights` of its stored z_tm and z_tn.

    The data come from one :func:`_indicator_data` pass over the slabs.
    ValueError names the first slab that misses one of the four vectors.
    """
    slabs = list(slabs)
    vectors = zip(*(stored(slabs, tag) for tag in ("u", "u_prev", "z_tm", "z_tn")))
    out = []
    for slab, (u, u_prev, z_tm, z_tn), values in zip(slabs, vectors,
                                                     _indicator_data(slabs, data)):
        w_tm, w_tn = dual_weights(slab, z_tm, z_tn, time_restriction)
        out.append(indicator_terms(slab, u, u_prev, w_tm, w_tn, coeff, data, values))
    return out


@dataclass
class ErrorEstimate:
    """Per-slab indicator arrays plus their absolute-value sums and the signed total.

    ``cell_indicators[k]`` is slab k's array in ``active_ids()`` order.  Sums
    run left to right (ascending slab, ascending cell id), never pairwise, so
    the totals are reproducible exactly; ``eta_signed`` sums the signed
    indicators in the order ``eta_total`` sums their absolute values.  The
    effectivity is :func:`effectivity`, kept in the driver's loop record.
    """

    cell_indicators: list
    eta_slabs: list
    eta_total: float
    eta_signed: float = math.nan


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
