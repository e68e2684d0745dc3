"""Frozen one-mesh space builders: the oracle of :func:`fem.build_spaces`.

These are the per-mesh builders that the one-pass builder replaced, kept
as they were: the dof numbering and support points of ``FeSpace._build``,
``FeSpace.hanging_constraints``, ``FeSpace.boundary_dofs`` and the checked
affine geometry of ``fem._cell_geometry``.  They read the process-wide
reference tables of :mod:`fem` and nothing cached on the mesh, so they
give the arrays a mesh state had before the one-pass builder existed.
"""

import numpy as np

from dwr_diffusion.fem import _face_lattice, _lattice_basis, _trace_weights
from dwr_diffusion.mesh import COARSER, OPPOSITE_FACE
from dwr_diffusion.sparse_la import ConstraintSet


def cell_geometry(mesh):
    """det J (c,) and J^-1 (c, 2, 2) of the active cells, checked for parallelograms."""
    cells = mesh.active_ids()
    ll, lr, ul, ur = np.moveaxis(mesh.cell_corner_coords(cells), 1, 0)
    ex, ey = lr - ll, ul - ll  # the columns of J
    detJ = ex[:, 0] * ey[:, 1] - ey[:, 0] * ex[:, 1]
    defect = np.hypot(*(ll + ur - lr - ul).T)
    diagonal = np.maximum(np.hypot(*(ur - ll).T), np.hypot(*(ul - lr).T))
    rounding = 16 * np.finfo(float).eps * np.abs([ll, lr, ul, ur]).max(axis=(0, 2))
    bad = np.flatnonzero((defect > 1e-12 * diagonal + rounding) | ~(detJ > 0.0))
    if len(bad):
        k = bad[0]
        raise ValueError(
            f"active cell {cells[k]} is not a parallelogram listed counter-clockwise: "
            f"|x_LL + x_UR - x_LR - x_UL| = {defect[k]:.3e}, diagonal {diagonal[k]:.3e}, "
            f"det J = {detJ[k]:.3e}")
    invJ = np.stack([ey[:, 1], -ey[:, 0], -ex[:, 1], ex[:, 0]], axis=-1).reshape(-1, 2, 2)
    return detJ, invJ / detJ[:, None, None]


def number(mesh, degree):
    """``(active_ids, cell_dofs, n_dofs, support_points)``: dofs numbered by first
    appearance of their entity keys in active-cell order."""
    cell_geometry(mesh)  # refuses cells that are not parallelograms
    cells = mesh.active_ids()
    verts = mesh.forest().vertices[cells]
    shape = _lattice_basis(1, degree)
    nv = np.int64(mesh.n_vertices)
    keys = np.empty((len(cells), len(shape)), dtype=np.int64)
    for loc, corners in enumerate(shape != 0.0):
        ids = verts[:, corners]
        if ids.shape[1] == 1:
            keys[:, loc] = ids[:, 0]
        elif ids.shape[1] == 2:
            keys[:, loc] = nv + ids.min(axis=1) * nv + ids.max(axis=1)
        else:
            keys[:, loc] = nv + nv * nv + cells
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    cell_dofs = rank[inverse.reshape(keys.shape)]
    cell, loc = np.divmod(first[order], keys.shape[1])
    support = np.einsum("nv,nvd->nd", shape[loc], mesh.cell_corner_coords(cells[cell]))
    return cells, cell_dofs, len(order), support


def _dofs_on_faces(cell_dofs, degree, cells, faces):
    return cell_dofs[cells[:, None], _face_lattice(degree)[faces]]


def hanging_constraints(mesh, degree, cell_dofs, n_dofs):
    """The :class:`ConstraintSet` tying fine-side dofs on 1-irregular faces to the coarse trace."""
    table = mesh.face_topology()
    hanging = table.kind == COARSER
    fine, face, coarse = table.owner[hanging], table.face[hanging], table.neighbor[hanging]
    slaves = _dofs_on_faces(cell_dofs, degree, fine, face)
    masters = _dofs_on_faces(cell_dofs, degree, coarse, OPPOSITE_FACE[face])
    weights = _trace_weights(degree)[table.half[hanging]].reshape(-1, degree + 1)
    free = ~(slaves[:, :, None] == masters[:, None, :]).any(axis=-1).ravel()
    candidates = np.flatnonzero(free)
    _, first = np.unique(slaves.ravel()[candidates], return_index=True)
    picked = candidates[np.sort(first)]
    ms, ws = masters[picked // slaves.shape[1]], weights[picked]
    nonzero = ws != 0.0
    owner = np.broadcast_to(slaves.ravel()[picked, None], ms.shape)
    return ConstraintSet(n_dofs, owner[nonzero], ms[nonzero], ws[nonzero])


def boundary_dofs(mesh, degree, cell_dofs, color):
    """Sorted dofs on boundary faces of the given color."""
    table = mesh.face_topology()
    on = table.on_boundary(color)
    return np.unique(_dofs_on_faces(cell_dofs, degree, table.owner[on], table.face[on]))
