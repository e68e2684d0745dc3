"""Continuous Lagrange spaces of degree 1 and 2 on quadrilateral meshes.

Every dof belongs to a vertex, an edge (its sorted vertex pair) or a cell
interior.  The dofs are numbered by the first appearance of these keys in
active-cell order, found for all cells at once with ``np.unique``, which
gives C0 continuity between equal-level neighbors and a deterministic
global numbering.  Hanging entities on 1-irregular faces, the "coarser"
rows of the mesh's face table, are constrained to the coarse-side trace.

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

Face integrals use :func:`face_quadrature`: Gauss points on face pieces
(face-table rows) as a face and a slot of the face tables on both sides,
slot 0 where a cell owns the whole piece, ``1 + half`` on the coarser side
(the table's integer ``half`` column).  Only the Neumann rows' quadrature
is kept with the mesh state, per degree: caching every row's holds it for
every live slab mesh and raised the shipped run's peak RSS 401 -> 593 MB.

Reference tables depend on the degree and the rule only, so each is built
once per process (``functools.cache``) and shared read-only:
:func:`gauss_1d` and :func:`gauss_quadrature`, the basis tables at a cell
rule's points (``_basis_tables``), the unit-cell mass and stiffness
(``_reference_matrices``), the lattice nodes of a degree
(``_lattice_points``), the basis of one degree at the lattice nodes of
another (``_lattice_basis``, for numbering dofs and same-mesh
interpolation), the face lattice indices (``_face_lattice``), the
hanging-constraint trace weights of each face half (``_trace_weights``),
the Gauss points of each face slot (``_face_points``) and the basis and its
gradients there (``_face_basis``).

Matrices are one scatter, :func:`assemble_system`, of cell matrices whose
local dofs are replaced by their closed constraint rows unless
``condense=False`` (deal.II's ``distribute_local_to_global``): master rows
carry the slave contributions, slave rows are empty.  The solve path also
applies M cell by cell, :func:`mass_product`, and condenses its loads in
:class:`primal.ImplicitStep`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import sparse_la
from .mesh import BOUNDARY, COARSER, FACE_VERTS, FINER, NEUMANN, OPPOSITE_FACE, read_only
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
    x, w = np.polynomial.legendre.leggauss(n)
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
    """Continuous Lagrange space of degree 1 or 2 over the active cells of a mesh."""

    def __init__(self, mesh, degree):
        if degree not in (1, 2):
            raise ValueError(f"unsupported polynomial degree {degree}")
        self.mesh = mesh
        self.degree = degree
        self._build()

    def _build(self):
        """Number the dofs by first appearance of their entity keys in active-cell order."""
        mesh, degree = self.mesh, self.degree
        _cell_geometry(mesh)  # refuses cells that are not parallelograms
        self.active_ids = cells = mesh.active_ids()
        verts = mesh.forest().vertices[cells]
        # the corners where a lattice node's bilinear weights are nonzero span
        # its entity: one integer key per vertex, per (sorted) vertex pair, per cell
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
        self.cell_dofs = rank[inverse.reshape(keys.shape)]
        self.n_dofs = len(order)
        # support point of every dof: its first lattice node, through the bilinear cell map
        cell, loc = np.divmod(first[order], keys.shape[1])
        self.support_points = np.einsum(
            "nv,nvd->nd", shape[loc], mesh.cell_corner_coords(cells[cell])
        )
        self._mesh_version = mesh._version

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

    def _dofs_on_faces(self, cells, faces):
        """Dofs on ``faces`` of the cells at positions ``cells``, ascending along each face."""
        return self.cell_dofs[cells[:, None], _face_lattice(self.degree)[faces]]

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
        table = self.mesh.face_topology()
        hanging = table.kind == COARSER
        fine, face, coarse = table.owner[hanging], table.face[hanging], table.neighbor[hanging]
        slaves = self._dofs_on_faces(fine, face)
        masters = self._dofs_on_faces(coarse, OPPOSITE_FACE[face])
        # the fine face is half ``half`` of the coarse face
        weights = _trace_weights(self.degree)[table.half[hanging]].reshape(-1, self.degree + 1)
        free = ~(slaves[:, :, None] == masters[:, None, :]).any(axis=-1).ravel()
        candidates = np.flatnonzero(free)
        _, first = np.unique(slaves.ravel()[candidates], return_index=True)
        picked = candidates[np.sort(first)]
        ms, ws = masters[picked // slaves.shape[1]], weights[picked]
        nonzero = ws != 0.0
        owner = np.broadcast_to(slaves.ravel()[picked, None], ms.shape)
        return ConstraintSet(self.n_dofs, owner[nonzero], ms[nonzero], ws[nonzero])

    # -- boundary dofs ---------------------------------------------------------

    def boundary_dofs(self, color):
        """Sorted dof indices on boundary faces of the given color."""
        self._check_current()

        def build():
            table = self.mesh.face_topology()
            on = table.on_boundary(color)
            return np.unique(self._dofs_on_faces(table.owner[on], table.face[on]))

        return self.mesh.cached(("boundary_dofs", self.degree, color), build)


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

    def load(self, space, density):
        """Unconstrained vector b_i = sum_K sum_q JxW density phi_i of a (c, q) density."""
        local = np.einsum("cq,qi->ci", self.JxW * density, self.basis(space.degree).N)
        return np.bincount(space.cell_dofs.ravel(), local.ravel(), minlength=space.n_dofs)


def cell_rule(space, n):
    """The :class:`CellRule` of the space's mesh state, built once per (mesh state, n)."""
    space._check_current()
    mesh = space.mesh

    def build():
        coords = mesh.cell_corner_coords(space.active_ids)
        phys = np.einsum("qv,cvd->cqd", _basis_tables(1, n).N, coords)
        phys.setflags(write=False)
        return CellRule(n, phys, *_cell_geometry(mesh))

    return mesh.cached(("cell_rule", n), build)


def _cell_geometry(mesh):
    """det J (c,) and J^-1 (c, 2, 2) of the active cells, checked as the module says."""

    def build():
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
        return read_only((detJ, invJ / detJ[:, None, None]))

    return mesh.cached("cell_geometry", build)


def physical_gradients(space, coefficients, cells, ref_grad):
    """Physical gradients of a coefficient vector from reference-gradient rows.

    ``cells`` (n,) holds positions in ``space.active_ids`` and ``ref_grad``
    (n, nloc, 2) the reference basis gradients at one point in each of those
    cells, as gathered from a basis table; returns (n, 2).
    """
    space._check_current()
    _, invJ = _cell_geometry(space.mesh)
    coeffs = np.asarray(coefficients)[space.cell_dofs[cells]]
    ref = np.einsum("nie,ni->ne", ref_grad, coeffs)
    return np.einsum("ned,ne->nd", invJ[cells], ref)


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


def assemble_system(space, mass=0.0, stiffness=0.0, condense=True):
    """CSR mass M + stiffness A (unit coefficients), P^T (...) P if ``condense``, in one scatter.

    Cell matrices are mass det J M_ref + stiffness G : K_ref with
    G = det J J^-1 J^-T; the pattern stores the whole diagonal, explicitly
    zero where no cell reaches it.
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
    per_cell = np.bincount(cell, minlength=len(local))
    count = per_cell[cell]
    left = np.repeat(np.arange(len(at)), count)
    right = sparse_la.concat_ranges((np.cumsum(per_cell) - per_cell)[cell], count)
    row_base, col = at * nloc, at % nloc  # entry (a, b) of a cell is local.flat[row_base + b]
    vals = local.ravel()[row_base[left] + col[right]] * (weights[left] * weights[right])
    diagonal = np.arange(n)
    rows, cols = (np.concatenate([masters[side], diagonal]) for side in (left, right))
    return sp.csr_matrix((np.concatenate([vals, np.zeros(n)]), (rows, cols)), shape=(n, n))


def mass_product(space, density, x):
    """M x for the unconstrained mass matrix of ``density``, applied cell by cell."""
    space._check_current()
    detJ, _ = _cell_geometry(space.mesh)
    M_ref, _ = _reference_matrices(space.degree)
    local = (density * detJ)[:, None] * (x[space.cell_dofs] @ M_ref.T)
    return np.bincount(space.cell_dofs.ravel(), local.ravel(), minlength=space.n_dofs)


def assemble_mass(space, density=1.0, condense=True):
    """Mass matrix with constant coefficient ``density``; see :func:`assemble_system`."""
    return assemble_system(space, mass=float(density), condense=condense)


def assemble_stiffness(space, diffusivity=1.0, condense=True):
    """Stiffness matrix with constant coefficient ``diffusivity``; see :func:`assemble_system`."""
    return assemble_system(space, stiffness=float(diffusivity), condense=condense)


def assemble_load_volume(space, f, condense=True):
    """Load vector of a spatial density: b_i = sum_K int_K f phi_i."""
    rule = cell_rule(space, space.degree + 1)
    b = rule.load(space, f(rule.phys))
    return space.constraints.condense_vector(b) if condense else b


def assemble_load_neumann(space, h, condense=True):
    """Boundary load over Neumann-colored faces: b_i = int_{Gamma_N} h phi_i."""
    space._check_current()
    quad = space.mesh.cached(("neumann_quadrature", space.degree), lambda: face_quadrature(
        space, space.degree + 1, space.mesh.face_topology().on_boundary(NEUMANN)
    ))
    b = np.zeros(space.n_dofs)
    if len(quad.JxW):
        contrib = np.einsum("fq,fqi->fi", quad.JxW * h(quad.phys), quad.N)
        dofs = space.cell_dofs[quad.cells[0]]
        b = np.bincount(dofs.ravel(), contrib.ravel(), minlength=space.n_dofs)
    return space.constraints.condense_vector(b) if condense else b


# -- face quadrature -------------------------------------------------------------

_UNIT_CORNERS = _lattice_points(1)  # LL LR UL UR
# outward normal = rotate the canonical face tangent; sign pattern per face
_NORMAL_SIGN = np.array([1.0, -1.0, -1.0, 1.0])  # ccw for left/top, cw for right/bottom
read_only((_UNIT_CORNERS, _NORMAL_SIGN))


class FaceQuadrature(NamedTuple):
    """Gauss rule on face-table rows; side 0 is the owner, side 1 the neighbor (or the owner)."""

    cells: np.ndarray  # (2, r) cell of each side, positions in space.active_ids
    faces: np.ndarray  # (2, r) face of each side's cell holding the piece
    slots: np.ndarray  # (2, r) slot of each side's points in _face_points
    phys: np.ndarray  # (r, q, 2) physical points on the piece
    JxW: np.ndarray  # (r, q) weight * piece length
    normal: np.ndarray  # (r, 2) outward unit normal of the owner
    N: np.ndarray  # (r, q, nloc) basis of the space's degree at the owner's points

    def gradients(self, degree):
        """Reference gradients of ``degree`` at side 0's, then side 1's points, (2 r q, nloc, 2)."""
        grad = _face_basis(degree, self.JxW.shape[1])[1]
        return grad[self.faces, self.slots].reshape(-1, *grad.shape[-2:])


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


def face_quadrature(space, n, rows):
    """The n-point Gauss rule on the face-table ``rows`` (a mask or indices) of the space's mesh.

    A side that owns the whole piece reads slot 0 of its face, the coarser
    side of a COARSER or FINER row slot ``1 + half``.
    """
    space._check_current()
    mesh, table = space.mesh, space.mesh.face_topology()
    owner, face, kind, half = (a[rows] for a in (table.owner, table.face, table.kind, table.half))
    bnd = kind == BOUNDARY
    cells = np.stack([owner, np.where(bnd, owner, table.neighbor[rows])])
    faces = np.stack([face, np.where(bnd, face, OPPOSITE_FACE[face])])
    slots = np.where(np.stack([kind == FINER, kind == COARSER]), 1 + half, 0)
    s, w = gauss_1d(n)
    vertices = mesh.forest().vertices
    edge_cell, edge_face = table.edge_cell[rows], table.edge_face[rows]
    piece = mesh.points[vertices[table.cells[edge_cell, None], FACE_VERTS[edge_face]]]
    span = piece[:, 1] - piece[:, 0]
    t = np.diff(mesh.points[vertices[table.cells[owner, None], FACE_VERTS[face]]], axis=1)[:, 0]
    normal = _NORMAL_SIGN[face][:, None] * np.column_stack([-t[:, 1], t[:, 0]])
    return FaceQuadrature(*read_only((
        cells, faces, slots, _along(piece, s), w * np.hypot(*span.T)[:, None],
        normal / np.hypot(*t.T)[:, None], _face_basis(space.degree, n)[0][face, slots[0]],
    )))


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


def transfer(fn, space_to):
    """Interpolate a function onto a space over another refinement of its coarse mesh.

    Both meshes must refine the same coarse mesh (the same root cells with
    the same corner coordinates), as every slab mesh does; otherwise a
    :class:`ValueError` is raised.  The source cell of every target support
    point follows from walking both refinement forests down from the
    shared roots, and its reference coordinates are exact dyadic fractions,
    so no point is located.  The same space short-circuits to a coefficient
    copy and the same mesh to :func:`interpolate_same_mesh`.  Any other
    mesh, even an equal one, takes the forest walk, which returns a
    constraint-consistent vector unchanged on an equal mesh.
    """
    src = fn.space
    if space_to is src:
        return FeFunction(space_to, fn.coefficients.copy())
    if space_to.mesh is src.mesh:
        return interpolate_same_mesh(fn, space_to)
    src._check_current()
    space_to._check_current()
    fs, ft = src.mesh.forest(), space_to.mesh.forest()
    roots = np.flatnonzero(fs.parent < 0)
    if not np.array_equal(roots, np.flatnonzero(ft.parent < 0)) or not np.array_equal(
        src.mesh.cell_corner_coords(roots), space_to.mesh.cell_corner_coords(roots)
    ):
        raise ValueError("transfer needs two refinements of the same coarse mesh")
    cells = space_to.active_ids
    # source cell containing each target cell, or equal to it where the
    # source is finer; cell centres never lie on a child boundary
    centre = ft.origin[cells] + 0.5 * ft.scale[cells, None]
    leaf = ft.root[cells]
    while True:
        go = (fs.children[leaf, 0] >= 0) & (fs.level[leaf] < ft.level[cells])
        if not go.any():
            break
        leaf[go] = _child_containing(fs, leaf[go], centre[go])
    # active source cell of every target lattice point
    lattice = _lattice_points(space_to.degree)
    X = (ft.origin[cells, None, :] + ft.scale[cells, None, None] * lattice).reshape(-1, 2)
    leaf = np.repeat(leaf, len(lattice))
    while True:
        go = fs.children[leaf, 0] >= 0
        if not go.any():
            break
        leaf[go] = _child_containing(fs, leaf[go], X[go])
    ref = (X - fs.origin[leaf]) / fs.scale[leaf, None]
    coeffs = fn.coefficients[src.cell_dofs[src.mesh.active_position()[leaf]]]
    local = np.einsum("pi,pi->p", tensor_shape(src.degree, ref), coeffs)
    vals = np.empty(space_to.n_dofs)
    # shared dofs take the last cell's value, in active-cell order
    vals[space_to.cell_dofs] = local.reshape(len(cells), len(lattice))
    return FeFunction(space_to, space_to.constraints.distribute(vals))


def _child_containing(forest, cells, pts):
    """Child of each refined cell whose box holds the point; ties go up and right."""
    rel = (pts - forest.origin[cells]) / forest.scale[cells, None]
    return forest.children[cells, (rel[:, 0] >= 0.5) + 2 * (rel[:, 1] >= 0.5)]
