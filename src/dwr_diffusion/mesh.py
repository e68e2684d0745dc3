"""Hierarchical 2D quadrilateral meshes with hanging-node refinement.

Cells are stored as a forest: refinement replaces an active cell by four
children (isotropic bisection) and keeps the parent for neighbor lookups.
Meshes stay 1-irregular (adjacent active cells differ by at most one
level); closure refinements are applied automatically.  Boundary faces
carry a color (Dirichlet or Neumann) which children inherit.

Vertex order within a cell is lower-left, lower-right, upper-left,
upper-right; faces are numbered left, right, bottom, top.  Root cells must
be laid out in this consistent orientation (no rotated gluing), which all
constructors here guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# face -> canonical (ascending-parameter) endpoint slots in the cell
FACE_VERTS = ((0, 2), (1, 3), (0, 1), (2, 3))
OPPOSITE_FACE = (1, 0, 3, 2)
# child position within parent: 0 lower-left, 1 lower-right, 2 upper-left, 3 upper-right
_SIBLING_ACROSS = (
    {1: 0, 3: 2},  # left
    {0: 1, 2: 3},  # right
    {2: 0, 3: 1},  # bottom
    {0: 2, 1: 3},  # top
)
# child of the neighbor touching my child position across the face
_MIRROR_CHILD = (
    {0: 1, 2: 3},  # left neighbor: its right-side children
    {1: 0, 3: 2},
    {0: 2, 1: 3},
    {2: 0, 3: 1},
)
# children of a cell adjacent to one of its own faces, ascending along the face
FACE_CHILDREN = ((0, 2), (1, 3), (0, 1), (2, 3))

_KEY_SCALE = 1e10  # vertex dedup grid; far below any attainable cell size


class OutsideDomainError(ValueError):
    """Queried point lies outside the meshed domain."""


@dataclass
class Cell:
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
    ``x = pos & 1``, ``y = pos >> 1`` (the convention of :meth:`QuadMesh._split`).
    Boxes are dyadic, so they are exact in floating point.
    """

    children: np.ndarray  # (n, 4) child ids, -1 on active cells
    origin: np.ndarray  # (n, 2) lower-left corner of the box
    scale: np.ndarray  # (n,) edge length of the box
    root: np.ndarray  # (n,) root cell id
    level: np.ndarray  # (n,)


class QuadMesh:
    """Forest of quadrilateral cells over a fixed set of root cells."""

    def __init__(self, points, cell_vertices, colorizer=None):
        """Create a conforming root mesh.

        Parameters
        ----------
        points : (n, 2) array of vertex coordinates.
        cell_vertices : sequence of 4-tuples in (LL, LR, UL, UR) order.
        colorizer : callable mapping two face endpoint coordinates to a
            boundary color; defaults to all-Dirichlet.
        """
        points = np.asarray(points, dtype=float)
        if not np.all(np.isfinite(points)):
            raise ValueError("vertex coordinates must be finite")
        self._points = [points[i].copy() for i in range(points.shape[0])]
        self._vertex_key = {self._key(p): i for i, p in enumerate(self._points)}
        if len(self._vertex_key) != len(self._points):
            raise ValueError("duplicate vertices in root mesh")
        self.cells = [Cell(tuple(v), level=0) for v in cell_vertices]
        self._roots = list(range(len(self.cells)))
        self._root_neighbors = self._match_root_faces()
        self.boundary_color = {}
        colorizer = colorizer or (lambda a, b: DIRICHLET)
        for cid in self._roots:
            for f in range(4):
                if self._root_neighbors[cid][f] is None:
                    a, b = (self._points[self.cells[cid].vertices[s]] for s in FACE_VERTS[f])
                    self.boundary_color[(cid, f)] = colorizer(a, b)
        self._version = 0
        self._cache = {}

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _key(p):
        return (int(round(p[0] * _KEY_SCALE)), int(round(p[1] * _KEY_SCALE)))

    def _vertex_at(self, p):
        key = self._key(p)
        vid = self._vertex_key.get(key)
        if vid is None:
            vid = len(self._points)
            self._points.append(np.asarray(p, dtype=float))
            self._vertex_key[key] = vid
        return vid

    def _match_root_faces(self):
        by_face = {}
        for cid in self._roots:
            for f in range(4):
                a, b = (self.cells[cid].vertices[s] for s in FACE_VERTS[f])
                by_face.setdefault(frozenset((a, b)), []).append((cid, f))
        neighbors = [[None] * 4 for _ in self._roots]
        for entries in by_face.values():
            if len(entries) > 2:
                raise ValueError("face shared by more than two root cells")
            if len(entries) == 2:
                (c0, f0), (c1, f1) = entries
                if f1 != OPPOSITE_FACE[f0]:
                    raise ValueError("root cells are not consistently oriented")
                neighbors[c0][f0] = c1
                neighbors[c1][f1] = c0
        return neighbors

    # -- basic queries -------------------------------------------------------

    def cached(self, name, build):
        """``build()``, computed once per refinement state and kept with the mesh."""
        key = (name, self._version)
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    @property
    def points(self):
        return self.cached("points", lambda: np.array(self._points))

    @property
    def n_vertices(self):
        return len(self._points)

    def active_cells(self):
        """Active cell ids in creation order (deterministic across runs)."""
        return list(
            self.cached("active", lambda: [i for i, c in enumerate(self.cells) if c.active])
        )

    @property
    def n_active_cells(self):
        return len(self.active_cells())

    def cell_corner_coords(self, cids=None):
        """Corner coordinates, shape (n_cells, 4, 2)."""
        if cids is None:
            cids = self.active_cells()
        pts = self.points
        idx = np.array([self.cells[c].vertices for c in cids], dtype=int)
        return pts[idx]

    def cell_bbox(self, cid):
        pts = self.points[np.array(self.cells[cid].vertices)]
        return pts.min(axis=0), pts.max(axis=0)

    def cell_area(self, cid):
        v = self.points[np.array(self.cells[cid].vertices)]
        # shoelace over the polygon LL -> LR -> UR -> UL
        x = v[[0, 1, 3, 2], 0]
        y = v[[0, 1, 3, 2], 1]
        return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    def total_area(self):
        return sum(self.cell_area(c) for c in self.active_cells())

    def fingerprint(self):
        """Content hash; equal for structurally identical meshes (e.g. deep copies)."""
        return self.cached("fp", self._fingerprint)

    def _fingerprint(self):
        import hashlib

        h = hashlib.sha1()
        h.update(self.points.tobytes())
        for c in self.cells:
            h.update(repr((c.vertices, c.level, c.parent, c.children)).encode())
        h.update(repr(sorted(self.boundary_color.items())).encode())
        return h.hexdigest()

    def copy(self):
        new = QuadMesh.__new__(QuadMesh)
        new._points = [p.copy() for p in self._points]
        new._vertex_key = dict(self._vertex_key)
        new.cells = [
            Cell(c.vertices, c.level, c.parent, c.children, c.child_pos) for c in self.cells
        ]
        new._roots = list(self._roots)
        new._root_neighbors = [list(r) for r in self._root_neighbors]
        new.boundary_color = dict(self.boundary_color)
        new._version = self._version
        new._cache = {}
        return new

    # -- neighbor lookup -----------------------------------------------------

    def neighbor_ge(self, cid, face):
        """Neighbor of equal or coarser level across ``face`` (None at the boundary)."""
        cell = self.cells[cid]
        if cell.parent is None:
            return self._root_neighbors[cid][face]
        sib = _SIBLING_ACROSS[face].get(cell.child_pos)
        if sib is not None:
            return self.cells[cell.parent].children[sib]
        up = self.neighbor_ge(cell.parent, face)
        if up is None:
            return None
        up_cell = self.cells[up]
        if up_cell.children is None:
            return up
        return up_cell.children[_MIRROR_CHILD[face][cell.child_pos]]

    def active_across(self, cid, face):
        """Active cells sharing ``face`` of ``cid``, ascending along the face."""
        nb = self.neighbor_ge(cid, face)
        if nb is None:
            return []
        out = []

        def collect(c, g):
            cell = self.cells[c]
            if cell.active:
                out.append(c)
            else:
                for pos in FACE_CHILDREN[g]:
                    collect(cell.children[pos], g)

        collect(nb, OPPOSITE_FACE[face])
        return out

    def is_boundary_face(self, cid, face):
        return self.neighbor_ge(cid, face) is None

    def face_topology(self):
        """Classified faces of all active cells, cached per refinement state.

        Returns a dict (cid, face) -> ("boundary", color) | ("same", nb) |
        ("coarser", nb) | ("finer", (nb, nb)).
        """
        return self.cached("topo", self._face_topology)

    def _face_topology(self):
        topo = {}
        for cid in self.active_cells():
            level = self.cells[cid].level
            for f in range(4):
                nbs = self.active_across(cid, f)
                if not nbs:
                    topo[(cid, f)] = ("boundary", self.boundary_color[(cid, f)])
                elif len(nbs) > 1:
                    topo[(cid, f)] = ("finer", tuple(nbs))
                elif self.cells[nbs[0]].level < level:
                    topo[(cid, f)] = ("coarser", nbs[0])
                else:
                    topo[(cid, f)] = ("same", nbs[0])
        return topo

    def forest(self):
        """Refinement-forest arrays (:class:`Forest`), cached per refinement state."""
        return self.cached("forest", self._forest)

    def _forest(self):
        n = len(self.cells)
        children = np.full((n, 4), -1, dtype=np.intp)
        origin = np.zeros((n, 2))
        scale = np.ones(n)
        root = np.arange(n)
        level = np.zeros(n, dtype=np.intp)
        # parents precede their children in cell-id order
        for cid, cell in enumerate(self.cells):
            if cell.children is not None:
                children[cid] = cell.children
            if cell.parent is not None:
                p, pos = cell.parent, cell.child_pos
                scale[cid] = 0.5 * scale[p]
                origin[cid, 0] = origin[p, 0] + scale[cid] * (pos & 1)
                origin[cid, 1] = origin[p, 1] + scale[cid] * (pos >> 1)
                root[cid] = root[p]
                level[cid] = cell.level
        return Forest(children, origin, scale, root, level)

    # -- refinement ----------------------------------------------------------

    def refine(self, marked_cells):
        """Isotropically refine the marked active cells (plus 1-irregularity closure)."""
        active = set(self.active_cells())
        marked = set(marked_cells)
        if not marked <= active:
            raise ValueError("marked ids must refer to active cells")
        queue = sorted(marked)
        while queue:
            next_round = set()
            for cid in queue:
                if not self.cells[cid].active:
                    continue
                next_round.update(self._split(cid))
            queue = sorted(next_round)
        self._version += 1
        return self

    def _split(self, cid):
        """Split one active cell; returns coarser neighbors that now violate 1-irregularity."""
        cell = self.cells[cid]
        pts = [self._points[v] for v in cell.vertices]
        v0, v1, v2, v3 = cell.vertices
        mb = self._vertex_at((pts[0] + pts[1]) / 2.0)
        mt = self._vertex_at((pts[2] + pts[3]) / 2.0)
        ml = self._vertex_at((pts[0] + pts[2]) / 2.0)
        mr = self._vertex_at((pts[1] + pts[3]) / 2.0)
        cc = self._vertex_at((pts[0] + pts[1] + pts[2] + pts[3]) / 4.0)
        child_verts = (
            (v0, mb, ml, cc),
            (mb, v1, cc, mr),
            (ml, cc, v2, mt),
            (cc, mr, mt, v3),
        )
        base = len(self.cells)
        ids = tuple(range(base, base + 4))
        for pos, verts in enumerate(child_verts):
            self.cells.append(
                Cell(verts, level=cell.level + 1, parent=cid, child_pos=pos)
            )
        cell.children = ids
        # inherit boundary colors onto the child faces covering each colored face
        for f in range(4):
            color = self.boundary_color.get((cid, f))
            if color is not None:
                for pos in FACE_CHILDREN[f]:
                    self.boundary_color[(ids[pos], f)] = color
        # closure: any active face neighbor coarser than this cell now differs
        # from the new children by two levels and must split as well
        violated = set()
        for f in range(4):
            nb = self.neighbor_ge(cid, f)
            if nb is not None:
                nb_cell = self.cells[nb]
                if nb_cell.active and nb_cell.level < cell.level:
                    violated.add(nb)
        return violated

    # -- point location ------------------------------------------------------

    def map_to_physical(self, cid, ref):
        """Bilinear map of reference coordinates (on the unit square) into cell ``cid``."""
        ref = np.asarray(ref, dtype=float)
        xi = ref[..., 0]
        eta = ref[..., 1]
        v = self.points[np.array(self.cells[cid].vertices)]
        w = np.stack(
            [(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta], axis=-1
        )
        return w @ v

    def invert_map(self, cid, p, tol=1e-12, max_iter=20):
        """Newton inversion of the bilinear map; returns (ref_coords, converged)."""
        v = self.points[np.array(self.cells[cid].vertices)]
        p = np.asarray(p, dtype=float)
        xi, eta = 0.5, 0.5
        for _ in range(max_iter):
            w = np.array([(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta])
            res = w @ v - p
            if abs(res[0]) <= tol and abs(res[1]) <= tol:
                return np.array([xi, eta]), True
            dxi = np.array([-(1 - eta), (1 - eta), -eta, eta])
            deta = np.array([-(1 - xi), -xi, (1 - xi), xi])
            j00, j01 = dxi @ v[:, 0], deta @ v[:, 0]
            j10, j11 = dxi @ v[:, 1], deta @ v[:, 1]
            det = j00 * j11 - j01 * j10
            if det == 0.0:
                return np.array([xi, eta]), False
            xi -= (j11 * res[0] - j01 * res[1]) / det
            eta -= (-j10 * res[0] + j00 * res[1]) / det
        w = np.array([(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta])
        res = w @ v - p
        return np.array([xi, eta]), bool(abs(res[0]) <= tol and abs(res[1]) <= tol)

    def locate_point(self, p, tol=1e-12):
        """Find the active cell containing ``p`` and its reference coordinates.

        Points on shared faces or vertices resolve to the lowest active
        cell id.  Raises :class:`OutsideDomainError` if no cell contains
        the point (within ``tol``).
        """
        p = np.asarray(p, dtype=float)
        pad = max(tol, 1e-12)
        ref_slack = 1e-9
        candidates = []

        def descend(cid):
            lo, hi = self.cell_bbox(cid)
            if np.any(p < lo - pad) or np.any(p > hi + pad):
                return
            cell = self.cells[cid]
            if cell.active:
                ref, ok = self.invert_map(cid, p)
                if ok and np.all(ref >= -ref_slack) and np.all(ref <= 1 + ref_slack):
                    candidates.append((cid, ref))
            else:
                for child in cell.children:
                    descend(child)

        for rid in self._roots:
            descend(rid)
        if not candidates:
            raise OutsideDomainError(f"point {p} is outside the meshed domain")
        cid, ref = min(candidates, key=lambda t: t[0])
        return cid, np.clip(ref, 0.0, 1.0)


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
