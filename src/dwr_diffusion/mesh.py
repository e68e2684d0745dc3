"""Hierarchical 2D quadrilateral meshes with hanging-node refinement.

The mesh state is a forest of cells held as per-cell arrays
(:class:`Forest`): refinement replaces an active cell by four children
(isotropic bisection) and keeps the parent.  Meshes stay 1-irregular
(adjacent active cells differ by at most one level): refinement first lists
the closure, the coarser neighbors that the marks force round by round, on
the current forest, and then splits every listed cell in one pass.  Boundary
faces carry a color (Dirichlet or Neumann) which children inherit.

Adjacency is one array, ``Forest.neighbor``: the equal-or-coarser cell
across each face of every cell (-1 on the boundary), built level by level
from the parents' entries.  Refinement reads its closure and the face
midpoints it shares from that array, never from coordinates; every consumer
of adjacency reads the mesh state's :class:`FaceTable`, built from it with
one row per face piece of every active cell.

One refinement, :func:`refine_meshes`, serves a list of meshes at once,
in passes of up to :data:`BLOCK_CELLS` active cells, the way p4est
refines a whole forest of trees: a pass stacks the meshes' forests, cell
ids running on from one mesh to the next, runs the closure rounds, one
split and one neighbor update over the stack, and builds every new state's
face table there.  Each new state is a new mesh whose arrays are bitwise
those of refining that mesh alone; the inputs are not changed.  It takes
marks that :func:`checked_marks` has checked, once and before any mesh is
refined.  :meth:`QuadMesh.refine` is its one-mesh case, in place.

Vertex order within a cell is lower-left, lower-right, upper-left,
upper-right; faces are numbered left, right, bottom, top.  Root cells must
be laid out in this consistent orientation (no rotated gluing), which all
constructors here guarantee.
"""

from __future__ import annotations

import copy
import hashlib
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
BOUNDARY_COLORS = (DIRICHLET, NEUMANN)  # a face's color code indexes this tuple

# face kinds of a face-table row, seen from the owning cell
BOUNDARY, SAME, COARSER, FINER = range(4)
BLOCK_CELLS = 2 ** 12  # active cells per pass of the batched builders, bounding their temporaries


def cell_ids(marks):
    """Cell-id marks as an integer array, in the given order.

    ValueError names the first mark that is not an integer value: bools,
    strings and fractional or non-finite numbers are refused; integer-valued
    floats and numpy integers are kept.
    """
    if isinstance(marks, np.ndarray):
        if marks.dtype.kind in "iu":
            return marks.astype(np.intp).ravel()
        marks = marks.ravel().tolist()
    ids = []
    for mark in marks:
        if (isinstance(mark, (bool, np.bool_)) or not isinstance(mark, numbers.Real)
                or not float(mark).is_integer()):
            raise ValueError(f"marked cell {mark!r} is not an integer cell id")
        ids.append(int(mark))
    return np.array(ids, dtype=np.intp)


def check_integers(obj, *names):
    """Refuse the fields ``names`` of ``obj`` that are not integers.

    Python and numpy integers pass; bools, floats (integer-valued ones too)
    and everything else raise ValueError naming ``Class.field`` and the value.
    """
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{type(obj).__name__}.{name} must be an integer, got {value!r}")


def read_only(arrays):
    """``arrays`` (any iterable of arrays, e.g. a :class:`Forest`), each made read-only."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def parts(array, bounds, last=False):
    """Read-only pieces ``bounds[k]:bounds[k + 1]`` of ``array`` along its first (or ``last``)
    axis, each owning its data: the array itself if it is the one piece."""
    if len(bounds) == 2:
        return read_only([array])
    return read_only([(array[..., a:b] if last else array[a:b]).copy()
                      for a, b in zip(bounds, bounds[1:])])


# face -> canonical (ascending-parameter) endpoint slots in the cell
FACE_VERTS = np.array([[0, 2], [1, 3], [0, 1], [2, 3]])
OPPOSITE_FACE = np.array([1, 0, 3, 2])
# child position within parent: 0 lower-left, 1 lower-right, 2 upper-left, 3 upper-right
# [face, position]: sibling across the face, -1 where the face lies on the parent's face
_SIBLING_ACROSS = np.array([[-1, 0, -1, 2], [1, -1, 3, -1], [-1, -1, 0, 1], [2, 3, -1, -1]])
# [face, position]: child of the neighbor touching that position across the face
_MIRROR_CHILD = _SIBLING_ACROSS[OPPOSITE_FACE]
# children of a cell adjacent to one of its own faces, ascending along the face
FACE_CHILDREN = np.array([[0, 2], [1, 3], [0, 1], [2, 3]])
# vertices of the four children as slots of (corners 0-3, bottom, top, left, right, centre)
_CHILD_VERTS = np.array([[0, 4, 6, 8], [4, 1, 8, 7], [6, 8, 2, 5], [8, 7, 5, 3]])
# face of each edge-midpoint slot (bottom, top, left, right); slot ^ 1 is the opposite slot
_MID_FACE = np.array([2, 3, 0, 1])
# (child, corner) of a split cell that holds each edge-midpoint slot
_MID_CORNER = np.array([[0, 2, 0, 1], [1, 3, 2, 3]])
read_only((FACE_VERTS, OPPOSITE_FACE, _SIBLING_ACROSS, _MIRROR_CHILD, FACE_CHILDREN,
           _CHILD_VERTS, _MID_FACE, _MID_CORNER))


class OutsideDomainError(ValueError):
    """Queried point lies outside the meshed domain."""


@dataclass(frozen=True)
class Cell:
    """Read-only view of one cell of the forest."""

    vertices: tuple  # 4 vertex ids (LL, LR, UL, UR)
    level: int
    parent: int | None = None
    children: tuple | None = None
    child_pos: int | None = None

    @property
    def active(self):
        return self.children is None


class Forest(NamedTuple):
    """Per-cell arrays of the refinement forest, indexed by cell id.

    A cell covers the box ``origin + scale * [0, 1]^2`` of its root's
    reference square; child ``pos`` of a cell takes the quarter at
    ``x = pos & 1``, ``y = pos >> 1``.  Boxes are dyadic, so they are exact
    in floating point.  Arrays are never written after construction:
    refinement builds a new forest.
    """

    children: np.ndarray  # (n, 4) child ids, -1 on active cells
    origin: np.ndarray  # (n, 2) lower-left corner of the box
    scale: np.ndarray  # (n,) edge length of the box
    root: np.ndarray  # (n,) root cell id
    level: np.ndarray  # (n,)
    parent: np.ndarray  # (n,) parent id, -1 on roots
    position: np.ndarray  # (n,) child position within the parent, -1 on roots
    vertices: np.ndarray  # (n, 4) vertex ids
    neighbor: np.ndarray  # (n, 4) equal-or-coarser cell across each face, -1 on the boundary
    color: np.ndarray  # (n, 4) boundary color code per face, -1 off the boundary


class FaceTable(NamedTuple):
    """One row per face piece of every active cell, cached per refinement state.

    Rows are ordered by (owner position, face 0..3, piece ascending along
    the face); a face with two finer neighbors has two pieces, every other
    face one.  Cells are given as positions in ``cells`` (the mesh state's
    :meth:`QuadMesh.active_ids`, which every space on the mesh shares).  All
    arrays are read-only.

    On COARSER and FINER rows, ``half`` is the half of the coarser side's
    face that the piece covers (0 lower, 1 upper), from the piece index or
    the owner's child position; -1 elsewhere.  Every live mesh state keeps its
    table, so its columns own their data: int32 positions, int8 codes.
    """

    cells: np.ndarray  # (m,) active cell ids
    owner: np.ndarray  # position of the cell owning the face
    face: np.ndarray  # the owner's face
    neighbor: np.ndarray  # position of the active cell across the piece, -1 on the boundary
    kind: np.ndarray  # BOUNDARY, SAME, COARSER or FINER, seen from the owner
    color: np.ndarray  # boundary color code (index into BOUNDARY_COLORS), -1 inside
    half: np.ndarray  # half of the coarser side's face covered by the piece, -1 if none

    def on_boundary(self, color):
        """Rows on boundary faces of the given color."""
        return self.color == BOUNDARY_COLORS.index(color)


def _neighbors(forest, first_level=1):
    """Equal-or-coarser neighbor array, recomputed level by level from ``first_level`` on.

    Rows of lower levels are taken from ``forest.neighbor``.
    """
    nb = forest.neighbor.copy()
    children, parent, pos, level = forest.children, forest.parent, forest.position, forest.level
    for lev in range(first_level, int(level.max()) + 1):
        cells = np.flatnonzero(level == lev)
        p = parent[cells, None]
        sib = _SIBLING_ACROSS[:, pos[cells]].T  # (m, 4)
        up = nb[p[:, 0]]
        across = np.where(children[up, 0] < 0, up, children[up, _MIRROR_CHILD[:, pos[cells]].T])
        across[up < 0] = -1
        nb[cells] = np.where(sib >= 0, children[p, sib], across)
    return nb


class QuadMesh:
    """Forest of quadrilateral cells over a fixed set of root cells."""

    def __init__(self, points, cell_vertices, colorizer=None):
        """Create a conforming root mesh.

        Parameters
        ----------
        points : (n, 2) array of vertex coordinates.
        cell_vertices : sequence of 4-tuples in (LL, LR, UL, UR) order.
        colorizer : callable mapping two face endpoint coordinates to a
            boundary color in ``BOUNDARY_COLORS``; defaults to all-Dirichlet.
        """
        points = np.array(points, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(points)):
            raise ValueError("vertex coordinates must be finite")
        if len(np.unique(points, axis=0)) != len(points):
            raise ValueError("duplicate vertices in root mesh")
        self._points = points
        self._points.setflags(write=False)
        vertices = np.array(cell_vertices, dtype=np.intp).reshape(-1, 4)
        n = len(vertices)
        neighbor = self._match_root_faces(vertices)
        colorizer = colorizer or (lambda a, b: DIRICHLET)
        color = np.full((n, 4), -1, dtype=np.intp)
        for cid, f in zip(*np.nonzero(neighbor < 0)):
            a, b = points[vertices[cid, FACE_VERTS[f]]]
            c = colorizer(a, b)
            if c not in BOUNDARY_COLORS:
                raise ValueError(f"boundary color must be one of {BOUNDARY_COLORS}, got {c!r}")
            color[cid, f] = BOUNDARY_COLORS.index(c)
        self._forest = read_only(Forest(
            children=np.full((n, 4), -1, dtype=np.intp),
            origin=np.zeros((n, 2)),
            scale=np.ones(n),
            root=np.arange(n),
            level=np.zeros(n, dtype=np.intp),
            parent=np.full(n, -1, dtype=np.intp),
            position=np.full(n, -1, dtype=np.intp),
            vertices=vertices,
            neighbor=neighbor,
            color=color,
        ))
        self._version = 0
        self._cache = {}

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _match_root_faces(vertices):
        """Root neighbor array from the faces' vertex pairs; row 4 * cell + face per face."""
        pairs = np.sort(vertices[:, FACE_VERTS], axis=-1).reshape(-1, 2)
        _, edge, count = np.unique(pairs, axis=0, return_inverse=True, return_counts=True)
        if count.max() > 2:
            raise ValueError("face shared by more than two root cells")
        shared = np.flatnonzero(count[edge] == 2)
        a, b = shared[np.argsort(edge[shared], kind="stable")].reshape(-1, 2).T
        if np.any(b % 4 != OPPOSITE_FACE[a % 4]):
            raise ValueError("root cells are not consistently oriented")
        neighbors = np.full(len(pairs), -1, dtype=np.intp)
        neighbors[a], neighbors[b] = b // 4, a // 4
        return neighbors.reshape(-1, 4)

    # -- basic queries -------------------------------------------------------

    def cached(self, name, build):
        """``build()``, computed once per refinement state: refinement empties the cache."""
        value = self._cache.get(name)
        if value is None:
            value = self._cache[name] = build()
        return value

    def is_cached(self, name):
        """Whether :meth:`cached` holds ``name`` for the current refinement state."""
        return name in self._cache

    @property
    def points(self):
        """Vertex coordinates, (n_vertices, 2), read-only."""
        return self._points

    @property
    def n_vertices(self):
        return len(self._points)

    def forest(self):
        """The refinement-forest arrays (:class:`Forest`) of the current state."""
        return self._forest

    @property
    def cells(self):
        """All cells ever created, as read-only :class:`Cell` views indexed by id."""
        return self.cached("cells", self._cell_views)

    def _cell_views(self):
        f = self._forest
        return [
            Cell(tuple(v), lev, None if p < 0 else p, None if ch[0] < 0 else tuple(ch),
                 None if p < 0 else pos)
            for v, lev, p, ch, pos in zip(
                f.vertices.tolist(), f.level.tolist(), f.parent.tolist(),
                f.children.tolist(), f.position.tolist(),
            )
        ]

    @property
    def boundary_color(self):
        """(cell id, face) -> color of every boundary face of every cell."""
        return self.cached("colors", lambda: {
            (cid, f): BOUNDARY_COLORS[self._forest.color[cid, f]]
            for cid, f in zip(*(a.tolist() for a in np.nonzero(self._forest.color >= 0)))
        })

    def active_ids(self):
        """Active cell ids in creation order: one read-only array per refinement state."""
        return self.cached("active", self._active)[0]

    def active_position(self):
        """Position of every cell id in :meth:`active_ids`, -1 off the active set (read-only)."""
        return self.cached("active", self._active)[1]

    def _active(self):
        active = self._forest.children[:, 0] < 0
        return read_only((np.flatnonzero(active), np.where(active, np.cumsum(active) - 1, -1)))

    def active_cells(self):
        """Active cell ids in creation order (deterministic across runs), as a list."""
        return self.active_ids().tolist()

    @property
    def n_active_cells(self):
        return len(self.active_ids())

    def cell_corner_coords(self, cids=None):
        """Corner coordinates, shape (n_cells, 4, 2)."""
        if cids is None:
            cids = self.active_ids()
        return self._points[self._forest.vertices[np.asarray(cids, dtype=np.intp)]]

    def cell_area(self, cid):
        # shoelace over the polygon LL -> LR -> UR -> UL
        x, y = self.cell_corner_coords([cid])[0, [0, 1, 3, 2]].T
        return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    def total_area(self):
        return sum(self.cell_area(c) for c in self.active_cells())

    def coarse_corners(self):
        """The corner coordinates of the root cells, built once per refinement state; roots are
        the first cells of every mesh, so equal arrays mean equal root ids too."""
        return self.cached("coarse", lambda: read_only([self.cell_corner_coords(
            np.flatnonzero(self._forest.parent < 0))])[0])

    def fingerprint(self):
        """Content hash; equal for structurally identical meshes (e.g. deep copies)."""
        return self.cached("fp", self._fingerprint)

    def _fingerprint(self):
        h = hashlib.sha1(self._points.tobytes())
        f = self._forest
        for arr in (f.vertices, f.level, f.parent, f.children, f.color):
            h.update(arr.tobytes())
        return h.hexdigest()

    def copy(self, cache=True):
        """An independent mesh in the same state, sharing the immutable forest arrays and, in a
        dict of its own unless ``cache`` is False, the read-only values cached for the state."""
        new = copy.copy(self)
        new._cache = dict(self._cache) if cache else {}
        return new

    # -- adjacency -------------------------------------------------------------

    def face_topology(self):
        """The :class:`FaceTable` of the active cells, cached per refinement state."""
        return self.cached("faces", self._face_table)

    def _face_table(self):
        cells = self.active_ids()
        return _face_tables(self._forest, cells, [0, len(cells)], [cells])[0]

    def active_across(self, cid, face):
        """Active cells sharing ``face`` of the active cell ``cid``, ascending along the face."""
        table = self.face_topology()
        position = self.active_position()
        if not 0 <= cid < len(position) or position[cid] < 0:
            raise ValueError(f"cell {cid} is not active")
        rows = (table.owner == position[cid]) & (table.face == face) & (table.kind != BOUNDARY)
        return table.cells[table.neighbor[rows]].tolist()

    def is_boundary_face(self, cid, face):
        return bool(self._forest.neighbor[cid, face] < 0)

    # -- refinement ----------------------------------------------------------

    def refine(self, marked_cells):
        """Isotropically refine the marked active cells (plus 1-irregularity closure), in place.

        The one-mesh case of :func:`refine_meshes`: this mesh takes over
        the new state with its active cells and its face table.  A mark
        that :func:`checked_marks` refuses raises its ValueError and leaves
        the mesh unchanged.
        """
        (new,) = _refine_pass([self], checked_marks([self], [marked_cells]))
        self._forest, self._points, self._cache = new._forest, new._points, new._cache
        self._version += 1
        return self

    # -- point location ------------------------------------------------------

    def map_to_physical(self, cid, ref):
        """Bilinear map of reference coordinates (on the unit square) into cell ``cid``."""
        xi, eta = np.moveaxis(np.asarray(ref, dtype=float), -1, 0)
        w = np.stack([(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta], axis=-1)
        return w @ self.cell_corner_coords([cid])[0]

    def invert_map(self, cid, p, tol=1e-12, max_iter=20):
        """Newton inversion of the bilinear map; returns (ref_coords, converged)."""
        v = self.cell_corner_coords([cid])[0]
        p = np.asarray(p, dtype=float)
        xi, eta = 0.5, 0.5
        for it in range(max_iter + 1):
            w = np.array([(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta])
            res = w @ v - p
            converged = bool(abs(res[0]) <= tol and abs(res[1]) <= tol)
            if converged or it == max_iter:
                return np.array([xi, eta]), converged
            dxi = np.array([-(1 - eta), (1 - eta), -eta, eta])
            deta = np.array([-(1 - xi), -xi, (1 - xi), xi])
            j00, j01 = dxi @ v[:, 0], deta @ v[:, 0]
            j10, j11 = dxi @ v[:, 1], deta @ v[:, 1]
            det = j00 * j11 - j01 * j10
            if det == 0.0:
                return np.array([xi, eta]), False
            xi -= (j11 * res[0] - j01 * res[1]) / det
            eta -= (-j10 * res[0] + j00 * res[1]) / det

    def locate_point(self, p, tol=1e-12):
        """Find the active cell containing ``p`` and its reference coordinates.

        Points on shared faces or vertices resolve to the lowest active
        cell id.  Raises :class:`OutsideDomainError` if no cell contains
        the point (within ``tol``).
        """
        p = np.asarray(p, dtype=float)
        pad = max(tol, 1e-12)
        corners = self.cell_corner_coords()
        near = np.all((corners.min(axis=1) - pad <= p) & (p <= corners.max(axis=1) + pad), axis=1)
        for cid in self.active_ids()[near].tolist():  # ascending ids
            ref, ok = self.invert_map(cid, p)
            if ok and np.all(ref >= -1e-9) and np.all(ref <= 1 + 1e-9):
                return cid, np.clip(ref, 0.0, 1.0)
        raise OutsideDomainError(f"point {p} is outside the meshed domain")


def blocks(items, size, budget):
    """Consecutive runs of ``items`` whose ``size(item)`` add up to at most ``budget``; an item
    over the budget is a run of its own.  Items are read one run (and one item) ahead."""
    block, total = [], 0
    for item in items:
        n = size(item)
        if block and total + n > budget:
            yield block
            block, total = [], 0
        block.append(item)
        total += n
    if block:
        yield block


def refine_meshes(meshes, ids):
    """Refine each of ``meshes`` by its checked cell ids ``ids`` (:func:`checked_marks`), in
    passes; yields one new mesh per input.

    The inputs are not changed, and a mesh listed twice is refined twice.
    A pass takes consecutive meshes of at most :data:`BLOCK_CELLS` active
    cells in all (a larger mesh is a pass of its own), read as the pass
    starts.  Each new state is bitwise what refining a copy of its input
    alone gives, and comes with its active cells and its
    :class:`FaceTable`.
    """
    for run in blocks(zip(meshes, ids), lambda pair: pair[0].n_active_cells, BLOCK_CELLS):
        yield from _refine_pass(*zip(*run))


def checked_marks(meshes, marks):
    """Each mesh's marks as an integer array of its active cell ids (:func:`cell_ids`).

    A mark is refused that is not an integer value or not an active cell
    id.  The ValueError names the first refusing mesh's first mark that is
    not an integer, or else its smallest refused id.
    """
    ids = []
    for mesh, picked in zip(meshes, marks):
        picked, position = cell_ids(picked), mesh.active_position()
        known = (picked >= 0) & (picked < len(position))
        refused = picked[~known | (position[np.where(known, picked, 0)] < 0)]
        if refused.size:
            cell = refused.min()
            why = "unknown" if not 0 <= cell < len(position) else "inactive"
            raise ValueError(f"marked cell {cell} is {why}; marks must be active cell ids")
        ids.append(picked)
    return ids


def _refine_pass(meshes, ids):
    """The new meshes of ``meshes`` refined by their checked marks ``ids``.

    The forests are stacked, cell ids running on from one mesh to the
    next (vertex ids stay each mesh's own), so that one closure, one split
    and one neighbor update serve them all.  The closure lists the marks
    and, round by round, the cells not yet listed that ``Forest.neighbor``
    shows coarser than a cell of the round before; within each mesh the
    split takes the rounds in order, ascending ids within each round.
    """
    forests = [mesh._forest for mesh in meshes]
    n = np.array([len(f.level) for f in forests], dtype=np.intp)
    base = np.cumsum(np.concatenate([[0], n]))
    stacked = np.concatenate(ids) + np.repeat(base[:-1], [len(i) for i in ids])
    f = forests[0]
    if len(forests) > 1:
        f = Forest(*map(np.concatenate, zip(*forests)))
        row_base = np.repeat(base[:-1], n)
        for column in (f.children, f.parent, f.neighbor):
            np.add(column, row_base.reshape(-1, *[1] * (column.ndim - 1)), out=column,
                   where=column >= 0)
    # the closure, round by round on the stacked forest
    queue = np.unique(stacked)
    listed = np.zeros(len(f.level), dtype=bool)
    listed[queue] = True
    rounds = [queue]
    while queue.size:
        nb = f.neighbor[queue]
        # a coarser neighbor is active: a refined one would show its equal-level child
        nb = nb[(nb >= 0) & (f.level[nb] < f.level[queue, None])]
        queue = np.unique(nb[~listed[nb]])
        listed[queue] = True
        rounds.append(queue)
    order = np.concatenate(rounds)
    mesh = np.searchsorted(base, order, side="right") - 1
    by_mesh = np.argsort(mesh, kind="stable")
    return _split(meshes, f, base, order[by_mesh], mesh[by_mesh])


def _split(meshes, f, base, cells, mesh):
    """New meshes from the stacked forest ``f`` of ``meshes`` (mesh k's cells from ``base[k]``)
    with the active ``cells`` of each mesh ``mesh`` split into four children, in the given order.

    Children are numbered in that order after the mesh's cells.  A face
    midpoint exists on a refined same-level neighbor, or is shared with one
    split along (the cell earlier in ``cells`` creates it); other midpoints
    and the centres are new vertices, numbered in (cell, slot) order after
    the mesh's vertices.  Only cells finer than the coarsest split cell can
    see a new neighbor.
    """
    k, total, count = len(cells), len(f.level), len(meshes)
    nv = np.array([len(m._points) for m in meshes], dtype=np.intp)
    points = np.concatenate([m._points for m in meshes])
    p0, p1, p2, p3 = points[f.vertices[cells] + (np.cumsum(nv) - nv)[mesh, None]].transpose(1, 0, 2)
    # bottom, top, left and right midpoints and the centre of every cell
    mids = np.stack(
        [(p0 + p1) / 2.0, (p2 + p3) / 2.0, (p0 + p2) / 2.0, (p1 + p3) / 2.0,
         (p0 + p1 + p2 + p3) / 4.0], axis=1,
    )
    at = np.full(total, k)  # position in ``cells``, k off them
    at[cells] = np.arange(k)
    nb = f.neighbor[cells][:, _MID_FACE]  # (k, 4) across each midpoint
    same = (nb >= 0) & (f.level[nb] == f.level[cells, None])
    refined = same & (f.children[nb, 0] >= 0)
    earlier = same & (at[nb] < np.arange(k)[:, None])  # split along, earlier in ``cells``
    fresh = np.ones((k, 5), dtype=bool)
    fresh[:, :4] = ~(refined | earlier)
    fresh_mesh = np.repeat(mesh, np.count_nonzero(fresh, axis=1))
    fresh_bounds = np.cumsum(np.concatenate([[0], np.bincount(fresh_mesh, minlength=count)]))
    ids = np.empty((k, 5), dtype=np.intp)
    ids[fresh] = np.arange(len(fresh_mesh)) + (nv - fresh_bounds[:-1])[fresh_mesh]
    # the neighbor holds the midpoint in its opposite slot
    i, slot = np.nonzero(refined)
    child, corner = _MID_CORNER[:, slot ^ 1]
    ids[i, slot] = f.vertices[f.children[nb[i, slot], child], corner]
    i, slot = np.nonzero(earlier)
    ids[i, slot] = ids[at[nb[i, slot]], slot ^ 1]
    mids = mids[fresh]
    parent = np.repeat(cells, 4)
    position = np.arange(4 * k) & 3
    scale = 0.5 * f.scale[parent]
    quarter = np.column_stack([position & 1, position >> 1])
    corners_and_mids = np.concatenate([f.vertices[cells], ids], axis=1)
    # children inherit the colors of the parent faces they cover
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
    f = Forest(*map(np.concatenate, zip(f, rows)))
    f.children[cells] = total + np.arange(4 * k).reshape(k, 4)
    if k:
        f = f._replace(neighbor=_neighbors(f, int(f.level[cells].min()) + 1))
    out = _states(f, np.diff(base), 4 * np.bincount(mesh, minlength=count))
    for j, (old, state) in enumerate(zip(meshes, out)):
        state._points = np.concatenate([old._points, mids[fresh_bounds[j]:fresh_bounds[j + 1]]])
        state._points.setflags(write=False)
        state._version = old._version + 1
    return out


def _states(f, n, children):
    """A new mesh, without its points, for each mesh k of the grown stacked forest ``f``: its
    ``n[k]`` cells in stack order, then all meshes' children, ``children[k]`` of them its own.

    Each state's arrays are its own: copies in its own cell ids.  Each
    comes with its active cells and its face table.
    """
    count, total, sizes = len(n), len(f.level), np.concatenate([n, children])
    row_mesh = np.repeat(np.arange(2 * count) % count, sizes)
    if count == 1:
        def per_mesh(array):
            return [array]
    else:
        # each mesh's own cell ids, its cells first, then its children
        base, child_base = (np.cumsum(np.concatenate([[0], a])) for a in (n, children))
        first = np.concatenate([base[:-1], base[-1] + child_base[:-1] - n])
        local = np.empty(total + 1, dtype=np.intp)
        local[:total] = np.arange(total) - np.repeat(first, sizes)
        local[-1] = -1  # -1 stays -1
        mesh_rows = np.split(np.argsort(row_mesh, kind="stable"), np.cumsum(n + children)[:-1])

        def per_mesh(array):
            return [array[rows] for rows in mesh_rows]
    active = np.flatnonzero(f.children[:, 0] < 0)
    active = active[np.argsort(row_mesh[active], kind="stable")]
    bounds = np.cumsum(np.concatenate([[0], np.bincount(row_mesh[active], minlength=count)]))
    position = np.full(total, -1, dtype=np.intp)
    position[active] = np.arange(len(active)) - np.repeat(bounds[:-1], np.diff(bounds))
    ids = [active] if count == 1 else [local[active[a:b]] for a, b in zip(bounds, bounds[1:])]
    tables = _face_tables(f, active, bounds, ids)
    if count > 1:
        f = f._replace(children=local[f.children], parent=local[f.parent],
                       neighbor=local[f.neighbor])
    states = []
    for cells, where, table, forest in zip(ids, per_mesh(position), tables, zip(*map(per_mesh, f))):
        state = object.__new__(QuadMesh)
        state._forest = read_only(Forest(*forest))
        state._cache = {"active": read_only((cells, where)), "faces": table}
        states.append(state)
    return states


def _face_tables(f, cells, bounds, ids):
    """The :class:`FaceTable` of each mesh state of the stacked forest ``f`` whose active cells
    are ``cells[bounds[j]:bounds[j + 1]]``, ``ids[j]`` in its own ids (mesh after mesh)."""
    position = np.full(len(f.level), -1, dtype=np.intp)
    position[cells] = np.arange(len(cells))
    nb = f.neighbor[cells]  # (m, 4)
    finer = (nb >= 0) & (f.children[nb, 0] >= 0)
    kind = np.where(nb < 0, BOUNDARY, np.where(
        finer, FINER, np.where(f.level[nb] < f.level[cells, None], COARSER, SAME)
    ))
    # a finer neighbor's two children touching the face, ascending along it
    touch = f.children[nb[..., None], FACE_CHILDREN[OPPOSITE_FACE]]
    piece = np.where(finer[..., None], touch, nb[..., None])  # (m, 4, 2)
    rows = np.ones(piece.shape, dtype=bool)
    rows[..., 1] = finer
    owner, face, index = np.nonzero(rows)
    row_bounds = np.searchsorted(owner, bounds)
    first = np.repeat(bounds[:-1], np.diff(row_bounds))  # each row's mesh's first position
    neighbor = np.where(piece[rows] >= 0, position[piece[rows]] - first, -1)
    kind = kind[owner, face]
    # the owner's child position bit along the face: y on faces 0/1, x on faces 2/3
    along = (f.position[cells[owner]] >> (face < 2)) & 1
    code = np.int8
    columns = (
        (owner - first).astype(np.int32), face.astype(code), neighbor.astype(np.int32),
        kind.astype(code), f.color[cells[owner], face].astype(code),
        np.where(kind == FINER, index, np.where(kind == COARSER, along, -1)).astype(code),
    )
    return [FaceTable(*table) for table in zip(ids, *(parts(c, row_bounds) for c in columns))]


def stacked_faces(meshes):
    """The face tables of ``meshes`` as one :class:`FaceTable` (no ``cells``), cell rows running
    on from one mesh to the next, and the bounds of each mesh's rows and of its cell rows."""
    tables = [mesh.face_topology() for mesh in meshes]
    rows = np.cumsum([0] + [len(table.owner) for table in tables])
    cells = np.cumsum([0] + [len(table.cells) for table in tables])
    shift = np.repeat(cells[:-1], np.diff(rows)).astype(np.int32)
    owner, face, neighbor, kind, color, half = (np.concatenate(c) for c in list(zip(*tables))[1:])
    neighbor = np.where(neighbor >= 0, neighbor + shift, -1)
    return FaceTable(None, owner + shift, face, neighbor, kind, color, half), rows, cells


def make_lshape():
    """Three half-unit cells covering the L-shaped domain (0,1)^2 minus its
    upper-right quadrant; faces on x = 0 are Neumann, all other boundary
    faces Dirichlet."""
    points = [
        (0.0, 0.0),
        (0.5, 0.0),
        (1.0, 0.0),
        (0.0, 0.5),
        (0.5, 0.5),
        (1.0, 0.5),
        (0.0, 1.0),
        (0.5, 1.0),
    ]
    cells = [
        (0, 1, 3, 4),
        (1, 2, 4, 5),
        (3, 4, 6, 7),
    ]

    def colorize(a, b):
        if abs(a[0]) < 1e-12 and abs(b[0]) < 1e-12:
            return NEUMANN
        return DIRICHLET

    return QuadMesh(points, cells, colorize)


def make_unit_square(colorizer=None):
    """Single unit cell, all-Dirichlet boundary unless a colorizer is given."""
    points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    return QuadMesh(points, [(0, 1, 2, 3)], colorizer)
