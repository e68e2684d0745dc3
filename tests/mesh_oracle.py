"""Frozen one-mesh refinement and face/cell-rule builders: the oracle of :func:`mesh.refine_meshes`.

These are the per-mesh builders that the batched refinement replaced,
kept as they were: ``QuadMesh.refine`` with its closure, ``_split``,
``_neighbors``, ``_face_table``, the body of ``fem.face_rule`` and the body
of ``fem.cell_rule``.  They work on a mesh state's forest and vertex
coordinates and read nothing cached on a mesh, so they give the arrays a
mesh state had before the batched refinement existed.
"""

import numpy as np

from dwr_diffusion.fem import _NORMAL_SIGN, FaceRule, _basis_tables
from dwr_diffusion.mesh import (
    _CHILD_VERTS, _MID_CORNER, _MID_FACE, _MIRROR_CHILD, _SIBLING_ACROSS, BOUNDARY, COARSER,
    DIRICHLET, FACE_CHILDREN, FACE_VERTS, FINER, OPPOSITE_FACE, SAME, FaceTable, Forest, cell_ids,
)


def refine(forest, points, marked_cells):
    """``(forest, points)`` after refining the marked active cells and their closure."""
    f = forest
    queue = np.unique(cell_ids(marked_cells))
    unknown = (queue < 0) | (queue >= len(f.level))
    bad = unknown | (f.children[np.where(unknown, 0, queue), 0] >= 0)
    if bad.any():
        i = bad.argmax()
        why = "unknown" if unknown[i] else "inactive"
        raise ValueError(f"marked cell {queue[i]} is {why}; marks must be active cell ids")
    listed = np.zeros(len(f.level), dtype=bool)
    listed[queue] = True
    rounds = [queue]
    while queue.size:
        nb = f.neighbor[queue]
        nb = nb[(nb >= 0) & (f.level[nb] < f.level[queue, None])]
        queue = np.unique(nb[~listed[nb]])
        listed[queue] = True
        rounds.append(queue)
    order = np.concatenate(rounds)
    if order.size:
        return _split(f, points, order)
    return f, points


def _split(f, points, cells):
    k, n = len(cells), len(f.level)
    p0, p1, p2, p3 = np.moveaxis(points[f.vertices[cells]], 1, 0)
    mids = np.stack(
        [(p0 + p1) / 2.0, (p2 + p3) / 2.0, (p0 + p2) / 2.0, (p1 + p3) / 2.0,
         (p0 + p1 + p2 + p3) / 4.0], axis=1,
    )
    at = np.full(n, k)
    at[cells] = np.arange(k)
    nb = f.neighbor[cells][:, _MID_FACE]
    same = (nb >= 0) & (f.level[nb] == f.level[cells, None])
    refined = same & (f.children[nb, 0] >= 0)
    earlier = same & (at[nb] < np.arange(k)[:, None])
    fresh = np.column_stack([~(refined | earlier), np.ones(k, dtype=bool)])
    ids = np.empty((k, 5), dtype=np.intp)
    ids[fresh] = len(points) + np.arange(np.count_nonzero(fresh))
    i, slot = np.nonzero(refined)
    child, corner = _MID_CORNER[:, slot ^ 1]
    ids[i, slot] = f.vertices[f.children[nb[i, slot], child], corner]
    i, slot = np.nonzero(earlier)
    ids[i, slot] = ids[at[nb[i, slot]], slot ^ 1]
    points = np.concatenate([points, mids[fresh]])
    parent = np.repeat(cells, 4)
    position = np.tile(np.arange(4), k)
    scale = 0.5 * f.scale[parent]
    quarter = np.column_stack([position & 1, position >> 1])
    corners_and_mids = np.concatenate([f.vertices[cells], ids], axis=1)
    inherit = _SIBLING_ACROSS[:, position].T < 0
    rows = Forest(
        children=np.full((4 * k, 4), -1, dtype=np.intp),
        origin=f.origin[parent] + scale[:, None] * quarter,
        scale=scale,
        root=f.root[parent],
        level=f.level[parent] + 1,
        parent=parent,
        position=position,
        vertices=corners_and_mids[:, _CHILD_VERTS].reshape(-1, 4),
        neighbor=np.full((4 * k, 4), -1, dtype=np.intp),
        color=np.where(inherit, f.color[parent], -1),
    )
    grown = Forest(*map(np.concatenate, zip(f, rows)))
    grown.children[cells] = n + np.arange(4 * k).reshape(k, 4)
    return grown._replace(neighbor=_neighbors(grown, int(f.level[cells].min()) + 1)), points


def _neighbors(forest, first_level=1):
    nb = forest.neighbor.copy()
    children, parent, pos, level = forest.children, forest.parent, forest.position, forest.level
    for lev in range(first_level, int(level.max()) + 1):
        cells = np.flatnonzero(level == lev)
        p = parent[cells, None]
        sib = _SIBLING_ACROSS[:, pos[cells]].T
        up = nb[p[:, 0]]
        across = np.where(children[up, 0] < 0, up, children[up, _MIRROR_CHILD[:, pos[cells]].T])
        across[up < 0] = -1
        nb[cells] = np.where(sib >= 0, children[p, sib], across)
    return nb


def active(forest):
    """``(active_ids, active_position)``."""
    flags = forest.children[:, 0] < 0
    return np.flatnonzero(flags), np.where(flags, np.cumsum(flags) - 1, -1)


def face_table(forest):
    f = forest
    cells, position = active(f)
    nb = f.neighbor[cells]
    finer = (nb >= 0) & (f.children[nb, 0] >= 0)
    kind = np.where(nb < 0, BOUNDARY, np.where(
        finer, FINER, np.where(f.level[nb] < f.level[cells, None], COARSER, SAME)
    ))
    touch = f.children[nb[..., None], FACE_CHILDREN[OPPOSITE_FACE]]
    piece = np.where(finer[..., None], touch, nb[..., None])
    rows = np.ones(piece.shape, dtype=bool)
    rows[..., 1] = finer
    owner, face, index = np.nonzero(rows)
    neighbor = np.where(piece[rows] >= 0, position[piece[rows]], -1)
    kind = kind[owner, face]
    along = (f.position[cells[owner]] >> (face < 2)) & 1
    code = np.int8
    return FaceTable(
        cells=cells,
        owner=owner.astype(np.int32),
        face=face.astype(code),
        neighbor=neighbor.astype(np.int32),
        kind=kind.astype(code),
        color=f.color[cells[owner], face].astype(code),
        half=np.where(kind == FINER, index, np.where(kind == COARSER, along, -1)).astype(code),
    )


def face_rule(forest, points):
    table = face_table(forest)
    rows = ~table.on_boundary(DIRICHLET)
    owner, face, kind, half, neighbor = (
        a[rows] for a in (table.owner, table.face, table.kind, table.half, table.neighbor))
    bnd, finer = kind == BOUNDARY, kind == FINER
    cells = np.stack([owner, np.where(bnd, owner, neighbor)])
    faces = np.stack([face, np.where(bnd, face, OPPOSITE_FACE[face])])
    slots = np.where(np.stack([finer, kind == COARSER]), 1 + half, 0)
    ids = table.cells[np.stack([owner, np.where(finer, neighbor, owner)])]
    edges = np.take(FACE_VERTS, np.stack([face, np.where(finer, faces[1], face)]), axis=0)
    vertices = np.take(forest.vertices.ravel(), 4 * ids[..., None] + edges)
    own, ends = np.take(points, vertices, axis=0)
    tx, ty = (own[:, 1] - own[:, 0]).T
    sign, norm = _NORMAL_SIGN[face], np.hypot(tx, ty)
    return FaceRule(
        ((cells * 4 + faces) * 3 + slots).astype(np.int32),
        np.hypot(*(ends[:, 1] - ends[:, 0]).T),
        np.column_stack([sign * -ty / norm, sign * tx / norm]),
        np.flatnonzero(bnd).astype(np.int32),
        ends[bnd])


def cell_rule_points(forest, points, n):
    """The physical points (c, n^2, 2) of the n-point cell rule on the active cells."""
    coords = points[forest.vertices[active(forest)[0]]]
    return np.einsum("qv,cvd->cqd", _basis_tables(1, n).N, coords)
