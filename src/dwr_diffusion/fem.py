"""Continuous Lagrange spaces of degree 1 and 2 on quadrilateral meshes.

Every dof belongs to a vertex, an edge (its sorted vertex pair) or a cell
interior.  The dofs are numbered by the first appearance of these keys in
active-cell order, found for all cells at once with ``np.unique``, which
gives C0 continuity between equal-level neighbors and a deterministic
global numbering.  Hanging entities on 1-irregular faces, the "coarser"
rows of the mesh's face table, are constrained to the coarse-side trace.

Spaces are built by one builder, :func:`build_spaces`, for a list of
meshes at once, in passes of up to :data:`BLOCK_CELLS` active cells: one
pass stacks the meshes' active cells, with vertex ids, cell rows and dof
ranges running on from one mesh to the next, and numbers every mesh's
dofs with one ``np.unique``, checks and stores every mesh's geometry,
closes the hanging constraints of all meshes at once over their
block-diagonal dof range and splits them per space
(:meth:`ConstraintSet.blocks`), and sorts out the Dirichlet dofs.  The
constraints and boundary dofs are kept with each mesh state, as they are
for a single space.  Every array is bitwise what the mesh alone would
give.  ``FeSpace(mesh, degree)`` is the one-mesh case: it numbers its
dofs at once and builds its constraints and boundary dofs on first use.
The adaptation builds each loop's new primal spaces in one call, and the
dual march its missing dual spaces.  A pass over new mesh states, which
hold no face rule yet, also builds their face rules and their cell rules
of ``degree + 1`` and ``degree + 2`` points from the stacked arrays, the
rules that the next march reads; other states build theirs on first use.

Per-cell arrays have one row per entry of the mesh state's active-cell
array, :meth:`QuadMesh.active_ids`; its inverse, ``active_position``, maps
a cell id to its row.

Every active cell of a space is a parallelogram listed counter-clockwise:
building a space raises :class:`ValueError`, naming the cell, where
|x_LL + x_UR - x_LR - x_UL| exceeds 1e-12 times the longer diagonal plus
16 eps times the largest |corner coordinate| (the corners' rounding), or
det J <= 0.  So the cell map is affine, with one Jacobian
J = [x_LR - x_LL, x_UL - x_LL] per cell, kept with the mesh state as det J
and J^-1.  The mesh, :meth:`FeFunction.evaluate` included, keeps the
bilinear map.

Face integrals read the mesh state's :class:`FaceRule` (:func:`face_rule`),
built once per mesh state from the face table's non-Dirichlet rows: each
face piece (a face-table row) is a face and a slot of the face tables on
both sides, slot 0 where a cell owns the whole piece, ``1 + half`` on the
coarser side (the table's integer ``half`` column).  :func:`face_values` and
:func:`face_gradients` evaluate a field at every face and slot of every
cell in one matrix product; the rule's ``flat`` index picks each piece's
rows from them.  The rule keeps only what its users cannot cheaply derive,
32 bytes per row plus 36 per Neumann row, and forms the weights and the
Neumann points of any rule size on use: kept with every live slab mesh, it
leaves the shipped run's peak RSS at 258 MB.  The Neumann load keeps its
weights, owner basis rows and owner dofs per (mesh state, degree), 112
bytes per Neumann row for Q1, so that the load times of a slab share them.

Reference tables depend on the degree and the rule only, so each is built
once per process (``functools.cache``) on first use and shared read-only:
:func:`gauss_1d` and :func:`gauss_quadrature`, the basis tables at a cell
rule's points (``_basis_tables``) and their Hessians as one (nloc, points)
matrix (``_hessian_matrix``), the unit-cell mass and stiffness
(``_reference_matrices``), the lattice nodes of a degree
(``_lattice_points``), the basis of one degree at the lattice nodes of
another (``_lattice_basis``, for numbering dofs and same-mesh
interpolation), the face lattice indices (``_face_lattice``), the
hanging-constraint trace weights of each face half (``_trace_weights``),
the Gauss points of each face slot (``_face_points``), the basis and its
gradients there (``_face_basis``) and both as (nloc, points) matrices
(``_face_matrices``).  A matrix with the local dof first turns the
evaluation of a field on every cell into one product with the cells'
coefficients, ``u[space.cell_dofs] @ table``.

A march's :func:`transfer` calls read plans that :func:`transfer_plans`
builds for windows of consecutive pairs of spaces, one stacked forest walk
per window, bitwise what each pair alone gives.

Matrices are one scatter, :func:`assemble_csr`, of cell matrices whose
local dofs are replaced by their closed constraint rows unless
``condense=False`` (deal.II's ``distribute_local_to_global``): master rows
carry the slave contributions, slave rows are empty.  It returns a raw
:class:`sparse_la.Csr`, which the solve path keeps; :func:`assemble_mass`
and :func:`assemble_stiffness` wrap it into a scipy matrix.  The solve path
also applies M cell by cell, :func:`mass_product`, and condenses its loads
in :class:`primal.ImplicitStep`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import sparse_la
from .mesh import (
    BLOCK_CELLS, BOUNDARY, COARSER, DIRICHLET, FACE_VERTS, FINER, OPPOSITE_FACE, blocks,
    parts, read_only, stacked_faces,
)
from .sparse_la import ConstraintSet

_NODES_1D = {1: np.array([0.0, 1.0]), 2: np.array([0.0, 0.5, 1.0])}


def shape_1d(degree, x, deriv=0):
    """Values (or derivatives) of the 1D Lagrange basis at ``x``, shape (len(x), degree+1)."""
    x = np.asarray(x, dtype=float)
    if degree == 1:
        if deriv == 0:
            return np.stack([1.0 - x, x], axis=-1)
        if deriv == 1:
            return np.stack([np.full_like(x, -1.0), np.ones_like(x)], axis=-1)
        return np.zeros(x.shape + (2,))
    if degree == 2:
        if deriv == 0:
            return np.stack(
                [2 * x * x - 3 * x + 1, 4 * x * (1 - x), 2 * x * x - x], axis=-1
            )
        if deriv == 1:
            return np.stack([4 * x - 3, 4 - 8 * x, 4 * x - 1], axis=-1)
        if deriv == 2:
            return np.stack(
                [np.full_like(x, 4.0), np.full_like(x, -8.0), np.full_like(x, 4.0)],
                axis=-1,
            )
        return np.zeros(x.shape + (3,))
    raise ValueError(f"unsupported degree {degree}")


def _tensor(degree, pts, dx, dy):
    """Tensor products of 1D basis derivatives of order dx in x and dy in y, shape (npts, nloc)."""
    fx = shape_1d(degree, pts[:, 0], deriv=dx)
    fy = shape_1d(degree, pts[:, 1], deriv=dy)
    return np.einsum("pi,pj->pji", fx, fy).reshape(len(pts), fx.shape[1] * fy.shape[1])


def tensor_shape(degree, pts):
    """Tensor-product basis values at reference points, shape (npts, nloc)."""
    return _tensor(degree, pts, 0, 0)


def tensor_grad(degree, pts):
    """Reference gradients, shape (npts, nloc, 2)."""
    return np.stack([_tensor(degree, pts, 1, 0), _tensor(degree, pts, 0, 1)], axis=-1)


def tensor_hessian(degree, pts):
    """Reference second derivatives, shape (npts, nloc, 2, 2)."""
    hxx = _tensor(degree, pts, 2, 0)
    hxy = _tensor(degree, pts, 1, 1)
    hyy = _tensor(degree, pts, 0, 2)
    return np.stack([np.stack([hxx, hxy], -1), np.stack([hxy, hyy], -1)], axis=-2)


@dataclass(frozen=True)
class Quadrature:
    points: np.ndarray  # (k, 2) on the unit square
    weights: np.ndarray  # (k,), summing to 1


@functools.cache
def gauss_1d(n):
    """n-point Gauss-Legendre rule on [0, 1] (read-only, shared)."""
    x, w = leggauss(n)
    return read_only(((x + 1.0) / 2.0, w / 2.0))


@functools.cache
def gauss_quadrature(n):
    """Tensor Gauss rule with n points per direction, exact to degree 2n-1 (read-only, shared)."""
    if not 1 <= n <= 6:
        raise ValueError("points per direction must be in 1..6")
    x, w = gauss_1d(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    points, weights = read_only((np.column_stack([X.ravel(), Y.ravel()]), np.outer(w, w).ravel()))
    return Quadrature(points=points, weights=weights)


@functools.cache
def _lattice_points(degree):
    """Lattice nodes of the given degree on the unit square, x fastest (read-only, shared)."""
    nodes = _NODES_1D[degree]
    X, Y = np.meshgrid(nodes, nodes, indexing="xy")
    points = np.column_stack([X.ravel(), Y.ravel()])
    points.setflags(write=False)
    return points


@functools.cache
def _lattice_basis(degree, lattice_degree):
    """Basis of ``degree`` at the lattice nodes of ``lattice_degree``, (nodes, nloc), read-only."""
    N = tensor_shape(degree, _lattice_points(lattice_degree))
    N.setflags(write=False)
    return N


@functools.cache
def _entities(degree):
    """The lattice nodes of each entity kind and the corners spanning their entities, read-only:
    vertex nodes and their corner, edge nodes and their two corners (e, 2), interior nodes.

    A node's corners are those where its bilinear weights are nonzero.
    """
    spans = [np.flatnonzero(row) for row in _lattice_basis(1, degree) != 0.0]
    vertex, edge, interior = ([k for k, c in enumerate(spans) if len(c) == n] for n in (1, 2, 4))
    index = functools.partial(np.array, dtype=np.intp)
    return read_only((index(vertex), index([spans[k][0] for k in vertex]), index(edge),
                      index([spans[k] for k in edge]).reshape(-1, 2), index(interior)))


@functools.cache
def _trace_weights(degree):
    """1D basis at the nodes of each half of a face, (2, degree + 1, degree + 1), read-only.

    Row ``[half, k]`` holds the coarse face's basis at node k of the fine
    face that covers half ``half`` of it.
    """
    s = 0.5 * np.arange(2)[:, None] + 0.5 * _NODES_1D[degree]
    weights = shape_1d(degree, s.ravel()).reshape(2, degree + 1, degree + 1)
    weights.setflags(write=False)
    return weights


@functools.cache
def _face_lattice(degree):
    """Local lattice indices on each face, ascending along the face: (4, degree + 1), read-only."""
    idx = np.arange((degree + 1) ** 2).reshape(degree + 1, degree + 1)  # [j, i]
    faces = np.stack([idx[:, 0], idx[:, -1], idx[0, :], idx[-1, :]])  # left, right, bottom, top
    faces.setflags(write=False)
    return faces


class FeSpace:
    """Continuous Lagrange space of degree 1 or 2 over the active cells of a mesh.

    ``FeSpace(mesh, degree)`` is the one-mesh case of :func:`build_spaces`:
    it numbers the dofs at once, and builds the hanging constraints and the
    boundary dofs of its mesh state on first use.
    """

    def __init__(self, mesh, degree):
        _check_degree(degree)
        self.mesh = mesh
        self.degree = degree
        _number([self])

    def _check_current(self):
        if self.mesh._version != self._mesh_version:
            raise RuntimeError("mesh was refined after this space was built")

    def dofs_on_cell(self, cid):
        """Dofs of the active cell ``cid``; :class:`KeyError` for any other id."""
        self._check_current()
        position = self.mesh.active_position()
        if not 0 <= cid < len(position) or position[cid] < 0:
            raise KeyError(cid)
        return self.cell_dofs[position[cid]]

    # -- hanging-node constraints ---------------------------------------------

    @property
    def constraints(self):
        """:meth:`hanging_constraints`, built once per (mesh state, degree)."""
        self._check_current()
        return self.mesh.cached(("constraints", self.degree), self.hanging_constraints)

    def hanging_constraints(self):
        """Constraints tying fine-side dofs on 1-irregular faces to the coarse trace.

        Every "coarser" row of the face table is one fine face covering half
        of a coarse face; its dofs that are not coarse-face dofs follow the
        coarse trace.  A dof on several such faces keeps its first row.
        """
        self._check_current()
        return _hanging_constraints(self.mesh.face_topology(), self.degree, self.cell_dofs,
                                    [0, self.n_dofs])[0]

    # -- boundary dofs ---------------------------------------------------------

    def boundary_dofs(self, color):
        """Sorted dof indices on boundary faces of the given color."""
        self._check_current()
        return self.mesh.cached(
            ("boundary_dofs", self.degree, color),
            lambda: _boundary_dofs(self.mesh.face_topology(), self.degree, self.cell_dofs,
                                   [0, self.n_dofs], color)[0])


def _check_degree(degree):
    if degree not in (1, 2):
        raise ValueError(f"unsupported polynomial degree {degree}")


def build_spaces(meshes, degree):
    """The spaces of ``degree`` on ``meshes``, built in one pass over all their active cells.

    A mesh listed more than once gets one space, returned at each of its
    places.  The pass numbers the dofs of every mesh (:func:`_number`) and
    fills each mesh state's cached geometry, its hanging constraints
    (one closure over the block-diagonal dof range, split per space by
    :meth:`ConstraintSet.blocks`) and its Dirichlet dofs, where the state
    holds none yet.  A pass over states that hold no face rule yet, as a
    loop's new states, also fills their :func:`face_rule` and their
    :func:`cell_rule` of ``degree + 1`` and ``degree + 2`` points: the rules
    that the next march and its goal pass read.  Every array is bitwise
    what ``FeSpace(mesh, degree)``, its ``constraints``, its
    ``boundary_dofs(DIRICHLET)`` and the rules built one mesh at a time give.
    """
    _check_degree(degree)
    by_mesh = {}
    for mesh in meshes:
        if id(mesh) not in by_mesh:
            space = by_mesh[id(mesh)] = object.__new__(FeSpace)
            space.mesh, space.degree = mesh, degree
    for block in blocks(list(by_mesh.values()), lambda space: space.mesh.n_active_cells,
                        BLOCK_CELLS):
        cell_dofs, dof_bounds, verts, points = _number(block)
        states = [space.mesh for space in block]
        faces = stacked_faces(states)
        built = zip(block, _hanging_constraints(faces[0], degree, cell_dofs, dof_bounds),
                    _boundary_dofs(faces[0], degree, cell_dofs, dof_bounds, DIRICHLET))
        for space, constraints, dirichlet in built:
            space.mesh.cached(("constraints", degree), lambda: constraints)
            space.mesh.cached(("boundary_dofs", degree, DIRICHLET), lambda: dirichlet)
        if all(mesh.is_cached("face_rule") for mesh in states):
            continue
        for mesh, rule in zip(states, _face_rules(faces, verts, points)):
            mesh.cached("face_rule", lambda: rule)
        for n in (degree + 1, degree + 2):
            for mesh, rule in zip(states, _cell_rules(states, points[verts], faces[2], n)):
                mesh.cached(("cell_rule", n), lambda: rule)
    return [by_mesh[id(mesh)] for mesh in meshes]


def _number(spaces):
    """Number the dofs of ``spaces`` (one degree, distinct meshes) by first appearance of their
    entity keys in active-cell order, in one pass; returns the stacked cell dofs and dof bounds.

    Vertex ids and cell rows run on from one mesh to the next, so no key
    is shared across meshes, and mesh k's dofs are the k-th contiguous
    range of the stacked numbering: within each mesh, the numbering of
    that mesh alone.  Sets each space's ``active_ids``, ``cell_dofs``,
    ``n_dofs`` and ``support_points``; also returns the stacked cell
    vertices and vertex coordinates.
    """
    meshes, degree = [space.mesh for space in spaces], spaces[0].degree
    cells = [mesh.active_ids() for mesh in meshes]
    cell_bounds = np.cumsum([0] + [len(c) for c in cells])
    shift = np.cumsum([0] + [mesh.n_vertices for mesh in meshes])
    verts = np.concatenate([mesh.forest().vertices[c] for mesh, c in zip(meshes, cells)])
    verts += np.repeat(shift[:-1], np.diff(cell_bounds))[:, None]
    points = np.concatenate([mesh.points for mesh in meshes])
    if not all(mesh.is_cached("cell_geometry") for mesh in meshes):
        # refuses cells that are not parallelograms; a state's cached geometry is kept
        for mesh, geometry in zip(meshes, _affine_maps(points[verts], cells)):
            mesh.cached("cell_geometry", lambda: geometry)
    # one integer key per vertex, per (sorted) vertex pair, per cell
    shape = _lattice_basis(1, degree)
    vertex, corner, edge, ends, interior = _entities(degree)
    nv = np.int64(shift[-1])
    keys = np.empty((len(verts), len(shape)), dtype=np.int64)
    keys[:, vertex] = verts[:, corner]
    if len(edge):  # degree 2; degree 1 has vertex nodes only
        pairs = verts[:, ends]  # (c, edges, 2)
        keys[:, edge] = nv + pairs.min(axis=-1) * nv + pairs.max(axis=-1)
        keys[:, interior] = (nv + nv * nv + np.arange(len(verts)))[:, None]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    cell_dofs = rank[inverse.reshape(keys.shape)]
    # support point of every dof: its first lattice node, through the bilinear cell map
    first = first[order]
    cell, loc = np.divmod(first, keys.shape[1])
    support = np.einsum("nv,nvd->nd", shape[loc], points[verts[cell]])
    dof_bounds = np.searchsorted(first, cell_bounds * keys.shape[1])
    for k, space in enumerate(spaces):
        lo, hi = int(dof_bounds[k]), int(dof_bounds[k + 1])
        space.active_ids = cells[k]
        space.cell_dofs = cell_dofs[cell_bounds[k]:cell_bounds[k + 1]] - lo
        space.n_dofs = hi - lo
        space.support_points = support[lo:hi].copy()
        space._mesh_version = space.mesh._version
    return cell_dofs, dof_bounds, verts, points


def _dofs_on_faces(cell_dofs, degree, cells, faces):
    """Dofs on ``faces`` of the cell rows ``cells``, ascending along each face."""
    return cell_dofs[cells[:, None], _face_lattice(degree)[faces]]


def _hanging_constraints(table, degree, cell_dofs, dof_bounds):
    """:meth:`FeSpace.hanging_constraints` of each space of ``degree`` (distinct meshes) from
    their stacked face ``table`` (:func:`mesh.stacked_faces`), ``cell_dofs`` and ``dof_bounds``.

    One closure runs over the block-diagonal dof range.  A slave's first
    row is picked among the rows in stacked order, which within each mesh
    is its own table order.
    """
    hanging = table.kind == COARSER
    fine, face, coarse, half = (a[hanging] for a in (table.owner, table.face, table.neighbor,
                                                     table.half))
    slaves = _dofs_on_faces(cell_dofs, degree, fine, face)
    masters = _dofs_on_faces(cell_dofs, degree, coarse, OPPOSITE_FACE[face])
    # the fine face is half ``half`` of the coarse face
    weights = _trace_weights(degree)[half].reshape(-1, degree + 1)
    free = ~(slaves[:, :, None] == masters[:, None, :]).any(axis=-1).ravel()
    candidates = np.flatnonzero(free)
    _, first = np.unique(slaves.ravel()[candidates], return_index=True)
    picked = candidates[np.sort(first)]
    ms, ws = masters[picked // slaves.shape[1]], weights[picked]
    nonzero = ws != 0.0
    owner = np.broadcast_to(slaves.ravel()[picked, None], ms.shape)
    closed = ConstraintSet(int(dof_bounds[-1]), owner[nonzero], ms[nonzero], ws[nonzero])
    return closed.blocks(dof_bounds)


def _boundary_dofs(table, degree, cell_dofs, dof_bounds, color):
    """:meth:`FeSpace.boundary_dofs` of each space, as :func:`_hanging_constraints` takes them,
    from one sort."""
    on = table.on_boundary(color)
    dofs = np.unique(_dofs_on_faces(cell_dofs, degree, table.owner[on], table.face[on]))
    cuts = np.searchsorted(dofs, dof_bounds)
    return [dofs[a:b] - lo for a, b, lo in zip(cuts, cuts[1:], dof_bounds)]


# -- cell quadrature -------------------------------------------------------------


class BasisTables(NamedTuple):
    """Reference basis tables at the points of one cell rule."""

    N: np.ndarray  # (q, nloc) values
    grad: np.ndarray  # (q, nloc, 2) gradients
    hess: np.ndarray  # (q, nloc, 2, 2) second derivatives


@functools.cache
def _basis_tables(degree, n):
    """Reference basis values, gradients and Hessians at the n-point tensor Gauss rule."""
    pts = gauss_quadrature(n).points
    tables = tensor_shape(degree, pts), tensor_grad(degree, pts), tensor_hessian(degree, pts)
    return read_only(BasisTables(*tables))


@functools.cache
def _hessian_matrix(degree, n):
    """:func:`_basis_tables`' Hessians with the local dof first, (nloc, q * 4), read-only."""
    hess = _basis_tables(degree, n).hess
    matrix = np.ascontiguousarray(np.moveaxis(hess, 1, 0)).reshape(hess.shape[1], -1)
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class CellRule:
    """Tensor Gauss rule with ``n`` points per direction mapped onto every active cell.

    Rows follow ``mesh.active_ids()``, the ``active_ids`` of every space on
    the mesh, so one rule serves all spaces of one mesh state.
    """

    n: int
    phys: np.ndarray  # (c, q, 2) physical points
    detJ: np.ndarray  # (c,) Jacobian determinants
    invJ: np.ndarray  # (c, 2, 2) inverse Jacobians, [reference, physical]

    @property
    def JxW(self):
        """(c, q) weight * det J, formed on use rather than kept with the mesh state."""
        return gauss_quadrature(self.n).weights[None, :] * self.detJ[:, None]

    def basis(self, degree):
        """:class:`BasisTables` of the given degree at the rule's points, cached per (degree, n)."""
        return _basis_tables(degree, self.n)

    def values(self, space, coefficients):
        """Values of a coefficient vector over ``space`` at the rule's points, shape (c, q)."""
        return np.einsum(
            "qi,ci->cq", self.basis(space.degree).N, np.asarray(coefficients)[space.cell_dofs]
        )

    def laplacians(self, space, coefficients):
        """Physical Laplacians of a coefficient vector over ``space`` at the rule's points, (c, q).

        One matrix product gives the reference Hessians, each traced against
        its cell's J^-1 J^-T.
        """
        hess = np.asarray(coefficients)[space.cell_dofs] @ _hessian_matrix(space.degree, self.n)
        a, b, c, d = self.invJ.reshape(-1, 4).T  # J^-1 J^-T, written out for 2 x 2
        ac = a * c + b * d
        metric = np.stack([a * a + b * b, ac, ac, c * c + d * d], axis=-1)
        return np.einsum("cqk,ck->cq", hess.reshape(len(metric), -1, 4), metric)

    def load(self, space, density):
        """Unconstrained vector b_i = sum_K sum_q JxW density phi_i of a (c, q) density."""
        local = np.einsum("cq,qi->ci", self.JxW * density, self.basis(space.degree).N)
        return np.bincount(space.cell_dofs.ravel(), local.ravel(), minlength=space.n_dofs)


def cell_rule(space, n):
    """The :class:`CellRule` of the space's mesh state, built once per (mesh state, n)."""
    space._check_current()
    mesh = space.mesh
    return mesh.cached(("cell_rule", n), lambda: _cell_rules(
        [mesh], mesh.cell_corner_coords(space.active_ids), [0, len(space.active_ids)], n)[0])


def _cell_rules(meshes, corners, bounds, n):
    """The :class:`CellRule` of n points per direction of each of ``meshes``, whose active
    cells' corners are ``corners[bounds[k]:bounds[k + 1]]``, from one pass over all.

    The points are the bilinear map's sum over the corners in corner order,
    as ``einsum("qv,cvd->cqd")`` adds them, at a fraction of its cost.
    """
    N = _basis_tables(1, n).N
    phys = N[:, 0, None] * corners[:, None, 0]
    for v in range(1, 4):
        phys += N[:, v, None] * corners[:, None, v]
    return [CellRule(n, points, *_cell_geometry(mesh))
            for mesh, points in zip(meshes, parts(phys, bounds))]


def _cell_geometry(mesh):
    """det J (c,) and J^-1 (c, 2, 2) of the active cells: :func:`_affine_maps`, cached per
    mesh state."""
    return mesh.cached("cell_geometry",
                       lambda: _affine_maps(mesh.cell_corner_coords(), [mesh.active_ids()])[0])


def _affine_maps(corners, cells):
    """Read-only (det J, J^-1) of each mesh's active cells ``cells[k]``, checked as the module
    says, from their corner coordinates ``corners`` (c, 4, 2) stacked mesh after mesh."""
    ll, lr, ul, ur = np.moveaxis(corners, 1, 0)
    ex, ey = lr - ll, ul - ll  # the columns of J
    detJ = ex[:, 0] * ey[:, 1] - ey[:, 0] * ex[:, 1]
    defect = np.hypot(*(ll + ur - lr - ul).T)
    diagonal = np.maximum(np.hypot(*(ur - ll).T), np.hypot(*(ul - lr).T))
    rounding = 16 * np.finfo(float).eps * np.abs(corners).max(axis=(1, 2))
    bad = np.flatnonzero((defect > 1e-12 * diagonal + rounding) | ~(detJ > 0.0))
    if len(bad):
        k = bad[0]
        raise ValueError(
            f"active cell {np.concatenate(cells)[k]} is not a parallelogram listed "
            f"counter-clockwise: |x_LL + x_UR - x_LR - x_UL| = {defect[k]:.3e}, "
            f"diagonal {diagonal[k]:.3e}, det J = {detJ[k]:.3e}")
    invJ = np.stack([ey[:, 1], -ey[:, 0], -ex[:, 1], ex[:, 0]], axis=-1).reshape(-1, 2, 2)
    invJ /= detJ[:, None, None]
    bounds = np.cumsum([0] + [len(c) for c in cells]).tolist()
    return [read_only((detJ[lo:hi].copy(), invJ[lo:hi].copy()))
            for lo, hi in zip(bounds, bounds[1:])]


@functools.cache
def _reference_matrices(degree):
    """Unit-cell mass M_ref (nloc, nloc) and stiffness parts K_ref (4, nloc^2), read-only.

    K_ref[2 e + f] holds d_e phi_i d_f phi_j; (degree + 1)^2 Gauss points.
    """
    n = degree + 1
    w = gauss_quadrature(n).weights
    N, grad, _ = _basis_tables(degree, n)
    K = np.einsum("q,qie,qjf->efij", w, grad, grad)
    return read_only((np.einsum("q,qi,qj->ij", w, N, N), K.reshape(4, -1)))


def assemble_csr(space, mass=0.0, stiffness=0.0, condense=True):
    """Raw CSR mass M + stiffness A (unit coefficients), P^T (...) P if ``condense``: one scatter.

    Cell matrices are mass det J M_ref + stiffness G : K_ref with
    G = det J J^-1 J^-T; the pattern stores the whole diagonal, explicitly
    zero where no cell reaches it.  Returns a :class:`sparse_la.Csr`.
    """
    space._check_current()
    detJ, invJ = _cell_geometry(space.mesh)
    M_ref, K_ref = _reference_matrices(space.degree)
    G = (stiffness * detJ)[:, None, None] * (invJ @ invJ.transpose(0, 2, 1))
    local = (mass * detJ)[:, None] * M_ref.ravel() + G.reshape(-1, 4) @ K_ref  # (c, nloc^2)
    n, nloc = space.n_dofs, M_ref.shape[0]
    dofs = space.cell_dofs.ravel()
    if condense:
        at, masters, weights = space.constraints.expand(dofs)
    else:
        at, masters, weights = np.arange(dofs.size), dofs, np.ones(dofs.size)
    # pair every expanded entry with every expanded entry of its cell
    cell = at // nloc
    left, right = sparse_la.pair_groups(cell, cell, len(local))
    row_base, col = at * nloc, at % nloc  # entry (a, b) of a cell is local.flat[row_base + b]
    vals = local.ravel()[row_base[left] + col[right]] * (weights[left] * weights[right])
    diagonal = np.arange(n)
    rows, cols = (np.concatenate([masters[side], diagonal]) for side in (left, right))
    return sparse_la.coo_to_csr(rows, cols, np.concatenate([vals, np.zeros(n)]), (n, n))


def mass_product(space, density, x):
    """M x for the unconstrained mass matrix of ``density``, applied cell by cell."""
    space._check_current()
    detJ, _ = _cell_geometry(space.mesh)
    M_ref, _ = _reference_matrices(space.degree)
    local = (density * detJ)[:, None] * (x[space.cell_dofs] @ M_ref.T)
    return np.bincount(space.cell_dofs.ravel(), local.ravel(), minlength=space.n_dofs)


def assemble_mass(space, density=1.0, condense=True):
    """The scipy CSR mass matrix of constant coefficient ``density``; see :func:`assemble_csr`."""
    return sparse_la.to_scipy(assemble_csr(space, mass=float(density), condense=condense))


def assemble_stiffness(space, diffusivity=1.0, condense=True):
    """The scipy CSR stiffness matrix of constant ``diffusivity``; see :func:`assemble_csr`."""
    return sparse_la.to_scipy(assemble_csr(space, stiffness=float(diffusivity), condense=condense))


def assemble_load_volume(space, f, condense=True):
    """Load vector of a spatial density: b_i = sum_K int_K f phi_i, ``f`` a function of
    points or its values (c, n^2) at the points of ``cell_rule(space, degree + 1)``."""
    rule = cell_rule(space, space.degree + 1)
    b = rule.load(space, f(rule.phys) if callable(f) else f)
    return space.constraints.condense_vector(b) if condense else b


def assemble_load_neumann(space, h, condense=True):
    """Boundary load over Neumann-colored faces: b_i = int_{Gamma_N} h phi_i, ``h`` a function
    of points or its values (k, n) at ``face_rule(space).neumann_points(degree + 1)``."""
    rule, n = face_rule(space), space.degree + 1
    b = np.zeros(space.n_dofs)
    if len(rule.neumann):
        JxW, N, dofs = _neumann_rows(space)
        density = JxW * (h(rule.neumann_points(n)) if callable(h) else h)
        contrib = np.einsum("fq,fqi->fi", density, N)
        b = np.bincount(dofs.ravel(), contrib.ravel(), minlength=space.n_dofs)
    return space.constraints.condense_vector(b) if condense else b


def _neumann_rows(space):
    """Weights (k, n), owner basis rows (k, n, nloc) and owner dofs (k, nloc) of the Neumann
    pieces at :func:`assemble_load_neumann`'s rule, n = degree + 1, read-only: formed once
    per (mesh state, degree), so that every load time of a slab reads them."""

    def build():
        rule, n = face_rule(space), space.degree + 1
        owner = rule.flat[0, rule.neumann]
        N = _face_basis(space.degree, n)[0].reshape(12, n, -1)[owner % 12]
        return read_only((rule.JxW(n, rule.neumann), N, space.cell_dofs[owner // 12]))

    return space.mesh.cached(("neumann_rows", space.degree), build)


# -- face quadrature -------------------------------------------------------------

_UNIT_CORNERS = _lattice_points(1)  # LL LR UL UR
# outward normal = rotate the canonical face tangent; sign pattern per face
_NORMAL_SIGN = np.array([1.0, -1.0, -1.0, 1.0])  # ccw for left/top, cw for right/bottom
read_only((_UNIT_CORNERS, _NORMAL_SIGN))


def _along(ends, s):
    """Points ``a + s (b - a)`` on segments ``ends`` (r, 2, 2) at parameters ``s``, (r, q, 2)."""
    a = ends[:, None, 0]
    return a + np.expand_dims(s, -1) * (ends[:, None, 1] - a)


@functools.cache
def _face_points(n):
    """n-point Gauss rule's points (4, 3, n, 2) per face and slot in the unit cell, read-only."""
    s = gauss_1d(n)[0]
    params = np.stack([s, *(0.5 * np.arange(2)[:, None] + 0.5 * s)]).reshape(1, -1)
    points = _along(_UNIT_CORNERS[FACE_VERTS], params).reshape(4, 3, n, 2)
    points.setflags(write=False)
    return points


@functools.cache
def _face_basis(degree, n):
    """Basis values (4, 3, n, nloc) and gradients (..., 2) at :func:`_face_points`, read-only."""
    pts, shape = _face_points(n).reshape(-1, 2), (4, 3, n, (degree + 1) ** 2)
    return read_only((tensor_shape(degree, pts).reshape(shape),
                      tensor_grad(degree, pts).reshape(*shape, 2)))


@functools.cache
def _face_matrices(degree, n):
    """:func:`_face_basis` with the local dof first, read-only: values (nloc, 4 * 3 * n) and
    gradients (nloc, 4 * 3 * n * 2), so that one matrix product evaluates every cell."""
    N, grad = _face_basis(degree, n)
    nloc = N.shape[-1]
    return read_only((np.ascontiguousarray(np.moveaxis(N, -1, 0)).reshape(nloc, -1),
                      np.ascontiguousarray(np.moveaxis(grad, -2, 0)).reshape(nloc, -1)))


def face_values(space, coefficients, n):
    """Values of coefficient vectors (..., n_dofs) at the n-point Gauss rule of every face
    and slot (:func:`_face_points`) of every cell, shape (..., c, 4, 3, n).

    One matrix product.  Side k of the pieces of a :class:`FaceRule` reads
    the rows ``rule.flat[k]`` of the array flattened to (..., c * 4 * 3, n).
    """
    space._check_current()
    local = np.take(coefficients, space.cell_dofs, axis=-1) @ _face_matrices(space.degree, n)[0]
    return local.reshape(*local.shape[:-1], 4, 3, n)


def face_gradients(space, coefficients, n):
    """Physical gradients (c, 4, 3, n, 2) of a coefficient vector at the points of
    :func:`face_values`: one matrix product gives the reference gradients, one
    batched product with each cell's J^-1 the physical ones."""
    space._check_current()
    _, invJ = _cell_geometry(space.mesh)
    ref = np.asarray(coefficients)[space.cell_dofs] @ _face_matrices(space.degree, n)[1]
    return (ref.reshape(len(invJ), -1, 2) @ invJ).reshape(len(invJ), 4, 3, n, 2)


class FaceRule(NamedTuple):
    """The non-Dirichlet face pieces of a mesh state in face-table order, for any rule size.

    Side 0 of a piece is its owner, side 1 the neighbor, or the owner again
    on the boundary.  ``flat[k]`` is side k's row 12 position + 3 face + slot
    of :func:`face_values`, so its position in ``active_ids``, the face
    holding the piece and the slot of :func:`_face_points` are ``flat // 12``,
    ``flat // 3 % 4`` and ``flat % 3``.
    """

    flat: np.ndarray  # (2, r) int32, each side's 12 position + 3 face + slot
    length: np.ndarray  # (r,) piece length
    normal: np.ndarray  # (r, 2) outward unit normal of the owner
    neumann: np.ndarray  # (k,) int32, the rows on Neumann faces, ascending
    neumann_ends: np.ndarray  # (k, 2, 2) end points of the Neumann pieces

    def JxW(self, n, rows=slice(None)):
        """Weight * piece length of the n-point Gauss rule on ``rows``, (rows, n), formed on use."""
        return gauss_1d(n)[1] * self.length[rows, None]

    def neumann_points(self, n):
        """Points (k, n, 2) of the n-point Gauss rule on the Neumann pieces, formed on use."""
        return _along(self.neumann_ends, gauss_1d(n)[0])


def face_rule(space):
    """The :class:`FaceRule` of the space's mesh state, built once per mesh state."""
    space._check_current()
    mesh = space.mesh
    return mesh.cached("face_rule", lambda: _face_rules(
        stacked_faces([mesh]), mesh.forest().vertices[space.active_ids], mesh.points)[0])


def _face_rules(faces, verts, points):
    """The :class:`FaceRule` of each mesh of the :func:`mesh.stacked_faces` ``faces``, whose active
    cells' vertex ids are the rows of ``verts`` (into ``points``), in one pass.

    Index columns stay int32, so that the pass's high-water mark stays near its output.
    """
    table, row_bounds, cell_bounds = faces
    rows = ~table.on_boundary(DIRICHLET)
    owner, face, kind, half, neighbor = (
        a[rows] for a in (table.owner, table.face, table.kind, table.half, table.neighbor))
    bnd, finer = kind == BOUNDARY, kind == FINER
    across = np.where(bnd, face, face ^ 1)  # the face seen from side 1: OPPOSITE_FACE is f ^ 1
    # the owner's edge and the piece, the finer side's edge: the neighbor's on a FINER row
    edges = np.take(FACE_VERTS, np.stack([face, np.where(finer, across, face)]), axis=0)
    # np.take: fancy indexing is several times slower on these (r, 2) index arrays
    own, ends = (np.take(points, np.take(verts.ravel(), 4 * side[:, None] + edge), axis=0)
                 for side, edge in zip((owner, np.where(finer, neighbor, owner)), edges))
    tx, ty = (own[:, 1] - own[:, 0]).T
    sign, norm = _NORMAL_SIGN[face], np.hypot(tx, ty)
    normal = np.column_stack([sign * -ty / norm, sign * tx / norm])
    # each mesh's rule rows and Neumann rows, numbered from its own first cell row and rule row
    bounds = np.searchsorted(np.flatnonzero(rows), row_bounds)
    neumann = np.flatnonzero(bnd)  # every non-Dirichlet boundary row is Neumann
    neumann_bounds = np.searchsorted(neumann, bounds)
    cells = np.stack([owner, np.where(bnd, owner, neighbor)])
    slots = np.where(np.stack([finer, kind == COARSER]), 1 + half, 0)
    flat = (cells * 4 + np.stack([face, across])) * 3 + slots
    flat -= 12 * np.repeat(cell_bounds[:-1], np.diff(bounds)).astype(np.int32)
    neumann -= np.repeat(bounds[:-1], np.diff(neumann_bounds))
    return [FaceRule(*rule) for rule in zip(
        parts(flat.astype(np.int32), bounds, last=True),
        parts(np.hypot(*(ends[:, 1] - ends[:, 0]).T), bounds), parts(normal, bounds),
        parts(neumann.astype(np.int32), neumann_bounds), parts(ends[bnd], neumann_bounds))]


# -- finite element functions ----------------------------------------------------


class FeFunction:
    """Coefficient vector over a space, evaluable anywhere on the mesh."""

    def __init__(self, space, coefficients):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (space.n_dofs,):
            raise ValueError(
                f"coefficient length {coefficients.shape} does not match "
                f"space with {space.n_dofs} dofs"
            )
        self.space = space
        self.coefficients = coefficients

    def evaluate_in_cell(self, cid, ref_pts):
        """Values at reference points of one cell, no point location."""
        ref_pts = np.atleast_2d(ref_pts)
        N = tensor_shape(self.space.degree, ref_pts)
        return N @ self.coefficients[self.space.dofs_on_cell(cid)]

    def __call__(self, p):
        return self.evaluate(p)

    def evaluate(self, p):
        """Point value; shared faces resolve through the mesh tie-break rule."""
        cid, ref = self.space.mesh.locate_point(p)
        return float(self.evaluate_in_cell(cid, ref[None, :])[0])


def interpolate(space, g):
    """Nodal interpolation; hanging slaves are overwritten to satisfy the constraints."""
    vals = np.asarray(g(space.support_points), dtype=float)
    return FeFunction(space, space.constraints.distribute(vals))


def interpolate_same_mesh(fn, space_to):
    """Nodal interpolation between spaces over the same mesh, without point location."""
    if space_to.mesh is not fn.space.mesh:
        raise ValueError("spaces live on different meshes")
    src = fn.space
    src._check_current()
    space_to._check_current()
    N = _lattice_basis(src.degree, space_to.degree)
    local = np.einsum("qi,ci->cq", N, fn.coefficients[src.cell_dofs])
    vals = np.empty(space_to.n_dofs)
    # shared dofs take the last cell's value, in active-cell order
    vals[space_to.cell_dofs] = local
    return FeFunction(space_to, space_to.constraints.distribute(vals))


def transfer(fn, space_to, plan=None):
    """Interpolate a function onto a space over another refinement of its coarse mesh.

    The same space short-circuits to a coefficient copy.  Any other pair
    reads its ``plan`` from :func:`transfer_plans`, built here for the one
    pair when not given, and only gathers, contracts and distributes: a
    space on an equal mesh gets a constraint-consistent vector unchanged,
    one on the same mesh :func:`interpolate_same_mesh`'s vector.
    """
    src = fn.space
    if space_to is src:
        return FeFunction(space_to, fn.coefficients.copy())
    position, N = plan or next(transfer_plans([(src, space_to)]))
    local = np.einsum("pi,pi->p", N, fn.coefficients[src.cell_dofs[position]])
    vals = np.empty(space_to.n_dofs)
    # shared dofs take the last cell's value, in active-cell order
    vals[space_to.cell_dofs] = local.reshape(space_to.cell_dofs.shape)
    return FeFunction(space_to, space_to.constraints.distribute(vals))


def transfer_plans(pairs):
    """Yield the :func:`transfer` plan of each ``(source space, target space)`` pair: None for
    the same space, else the source leaf's position in ``active_ids`` and the source basis row
    at each target lattice point (target cells in ``active_ids`` order, nodes x fastest).

    Both meshes of a pair must refine the same coarse mesh (root cells with
    bitwise equal corners), as every slab mesh does, or ValueError is raised.
    Windows of consecutive pairs of one degree pair and at most
    :data:`BLOCK_CELLS` target cells stack the forests of their distinct
    meshes, cell ids running on, and walk them down from the shared roots
    once; boxes are dyadic, so no point is located.
    """
    for _, run in itertools.groupby(pairs, lambda pair: (pair[0].degree, pair[1].degree)):
        cells = (lambda pair: 0 if pair[0] is pair[1] else len(pair[1].active_ids))
        for window in blocks(run, cells, BLOCK_CELLS):
            yield from _window_plans(window)


def _window_plans(pairs):
    """The :func:`transfer_plans` of one window, every plan bitwise the one-pair plan."""
    moved = [(src, dst) for src, dst in pairs if src is not dst]
    meshes = list({id(space.mesh): space.mesh for pair in moved for space in pair}.values())
    coarse = {id(mesh): mesh.coarse_corners().tobytes() for mesh in meshes}
    for src, dst in moved:
        src._check_current()
        dst._check_current()
        if coarse[id(src.mesh)] != coarse[id(dst.mesh)]:
            raise ValueError("transfer needs two refinements of the same coarse mesh")
    if not moved:
        return [None] * len(pairs)
    sizes = [len(mesh.forest().level) for mesh in meshes]
    at = dict(zip(map(id, meshes), np.cumsum([0] + sizes[:-1])))
    children, origin, scale, root, level = (np.concatenate(column) for column in zip(
        *(mesh.forest()[:5] for mesh in meshes)))
    children = np.where(children >= 0, children + np.repeat(list(at.values()), sizes)[:, None], -1)

    def descend(leaf, points, limit):
        """Move each leaf down to the cell holding its point, no deeper than ``limit``, one
        level a round; ties go up and right."""
        for _ in range(level.max()):
            go = (children[leaf, 0] >= 0) & (level[leaf] < limit)
            cells = leaf[go]
            rel = (points[go] - origin[cells]) / scale[cells, None]
            leaf[go] = children[cells, (rel[:, 0] >= 0.5) + 2 * (rel[:, 1] >= 0.5)]
        return leaf

    counts = [len(dst.active_ids) for _, dst in moved]
    cells = np.concatenate([dst.active_ids + at[id(dst.mesh)] for _, dst in moved])
    leaf = root[cells] + np.repeat([at[id(src.mesh)] for src, _ in moved], counts)
    # the source cell holding each target cell, or equal to it where the source is finer;
    # cell centres never lie on a child boundary
    leaf = descend(leaf, origin[cells] + 0.5 * scale[cells, None], level[cells])
    lattice = _lattice_points(moved[0][1].degree)
    X = (origin[cells, None, :] + scale[cells, None, None] * lattice).reshape(-1, 2)
    # the source leaf holding each target lattice point
    leaf = descend(np.repeat(leaf, len(lattice)), X, level.max() + 1)
    N = tensor_shape(moved[0][0].degree, (X - origin[leaf]) / scale[leaf, None])
    position = np.concatenate([mesh.active_position() for mesh in meshes])[leaf]
    bounds = np.cumsum([0] + counts) * len(lattice)
    plans = iter([(position[a:b], N[a:b]) for a, b in zip(bounds, bounds[1:])])
    return [None if src is dst else next(plans) for src, dst in pairs]
