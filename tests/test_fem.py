import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwr_diffusion import fem
from dwr_diffusion.fem import (
    FeFunction,
    FeSpace,
    assemble_load_neumann,
    assemble_load_volume,
    assemble_mass,
    assemble_stiffness,
    cell_rule,
    gauss_quadrature,
    interpolate,
    interpolate_same_mesh,
    physical_gradients,
    tensor_grad,
    tensor_shape,
    transfer,
)
from dwr_diffusion.mesh import (
    BOUNDARY, COARSER, DIRICHLET, FACE_VERTS, FINER, NEUMANN, SAME, QuadMesh, make_lshape,
    make_unit_square,
)
from mesh_state_cases import build, cases, random_refine, sheared_lshape
from test_mesh import skewed_square
from dwr_diffusion.slabs import Slab, TimeInterval


def brute_force_local(integrand, n=6):
    """High-order quadrature oracle on the unit cell, independent of the assembly code."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = (x + 1) / 2
    w = w / 2
    total = 0.0
    for xi, wi in zip(x, w):
        for yj, wj in zip(x, w):
            total += wi * wj * integrand(xi, yj)
    return total


def q1_shapes():
    return [
        lambda x, y: (1 - x) * (1 - y),
        lambda x, y: x * (1 - y),
        lambda x, y: (1 - x) * y,
        lambda x, y: x * y,
    ]


def q1_grads():
    return [
        lambda x, y: (-(1 - y), -(1 - x)),
        lambda x, y: ((1 - y), -x),
        lambda x, y: (-y, (1 - x)),
        lambda x, y: (y, x),
    ]


class TestDofs:
    def test_lshape_q1_dof_count(self, lshape):
        assert FeSpace(lshape, 1).n_dofs == 8

    def test_single_cell_q2(self, unit_square):
        assert FeSpace(unit_square, 2).n_dofs == 9

    def test_lshape_q2_dof_count(self, lshape):
        space = FeSpace(lshape, 2)
        assert space.n_dofs == 21
        # brute-force support point dedup confirms the count
        unique = {tuple(np.round(p, 10)) for p in space.support_points}
        assert len(unique) == 21

    def test_numbering_is_deterministic(self, lshape):
        a = FeSpace(lshape, 2)
        b = FeSpace(make_lshape(), 2)
        assert np.allclose(a.support_points, b.support_points)
        assert np.array_equal(a.cell_dofs, b.cell_dofs)

    def test_unsupported_degree(self, lshape):
        with pytest.raises(ValueError):
            FeSpace(lshape, 3)

    def test_dofs_on_cell_rejects_ids_of_no_active_cell(self, lshape):
        lshape.refine({0})
        space = FeSpace(lshape, 2)
        n_cells = len(lshape.forest().level)
        for cid in (0, -1, n_cells, 10**9):  # refined, negative, out of range
            with pytest.raises(KeyError):
                space.dofs_on_cell(cid)
        assert space.dofs_on_cell(n_cells - 1).shape == (9,)

    def test_shared_entities_shared_dofs(self, lshape):
        space = FeSpace(lshape, 1)
        d0 = set(space.dofs_on_cell(0))
        d1 = set(space.dofs_on_cell(1))
        assert len(d0 & d1) == 2  # shared edge vertices


class TestStaleSpace:
    """Every entry point of a space refuses a mesh refined after the space was built."""

    @pytest.mark.parametrize(
        "use",
        [
            lambda space: space.constraints,
            lambda space: space.boundary_dofs(DIRICHLET),
            lambda space: space.boundary_dofs(NEUMANN),
            lambda space: interpolate(space, lambda x: x[..., 0]),
            lambda space: space.dofs_on_cell(space.active_ids[-1]),
            lambda space: assemble_load_neumann(space, lambda x: x[..., 1], condense=False),
        ],
        ids=["constraints", "dirichlet_dofs", "neumann_dofs", "interpolate", "dofs_on_cell",
             "neumann_load"],
    )
    def test_stale_space_raises(self, lshape, use):
        space = FeSpace(lshape, 2)
        use(space)  # results cached before the refinement must not be served after it
        lshape.refine({0})
        with pytest.raises(RuntimeError, match="refined"):
            use(space)


class TestHangingConstraints:
    def test_conforming_mesh_has_none(self, lshape):
        assert len(FeSpace(lshape, 1).hanging_constraints()) == 0
        lshape.refine(set(lshape.active_cells()))
        assert len(FeSpace(lshape, 1).hanging_constraints()) == 0

    def test_q1_midside_weights(self, hanging_mesh):
        space = FeSpace(hanging_mesh, 1)
        cs = space.hanging_constraints()
        assert len(cs) == 1
        (slave,) = cs.slaves
        weights = dict(cs.weights(slave))
        assert np.allclose(sorted(weights.values()), [0.5, 0.5])
        assert np.allclose(space.support_points[slave], [1.0, 0.5])

    def test_q2_edge_weights(self, hanging_mesh):
        space = FeSpace(hanging_mesh, 2)
        cs = space.hanging_constraints()
        by_point = {tuple(np.round(space.support_points[s], 6)): dict(cs.weights(s))
                    for s in cs.slaves}
        w = by_point[(1.0, 0.25)]
        assert sorted(np.round(list(w.values()), 12)) == [-0.125, 0.375, 0.75]
        # every hanging edge constraint is a partition of unity
        for weights in by_point.values():
            assert sum(weights.values()) == pytest.approx(1.0, abs=1e-14)

    def test_no_slave_masters_after_closure(self, hanging_mesh):
        hanging_mesh.refine({hanging_mesh.cells[0].children[1]})
        space = FeSpace(hanging_mesh, 1)
        cs = space.hanging_constraints()
        for s in cs.slaves:
            for m, _ in cs.weights(s):
                assert m not in cs


class TestQuadrature:
    def test_midpoint_rule(self):
        q = gauss_quadrature(1)
        assert np.allclose(q.points, [[0.5, 0.5]])
        assert np.allclose(q.weights, [1.0])

    def test_two_point_rule(self):
        q = gauss_quadrature(2)
        d = 1.0 / (2.0 * np.sqrt(3.0))
        expected = sorted((0.5 + sx * d, 0.5 + sy * d) for sx in (-1, 1) for sy in (-1, 1))
        assert np.allclose(sorted(map(tuple, q.points)), expected)
        assert np.allclose(q.weights, 0.25)

    def test_exactness_x2y2(self):
        q = gauss_quadrature(2)
        val = np.sum(q.weights * q.points[:, 0] ** 2 * q.points[:, 1] ** 2)
        assert val == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_range_check(self):
        with pytest.raises(ValueError):
            gauss_quadrature(0)
        with pytest.raises(ValueError):
            gauss_quadrature(7)

    def test_weights_sum_to_one(self):
        for n in range(1, 7):
            assert np.sum(gauss_quadrature(n).weights) == pytest.approx(1.0, abs=1e-14)

    def test_rules_are_shared_and_read_only(self):
        q = gauss_quadrature(3)
        assert gauss_quadrature(3) is q
        with pytest.raises(ValueError):
            q.weights[0] = 0.0
        with pytest.raises(ValueError):
            fem.gauss_1d(2)[0][0] = 0.0

    @pytest.mark.parametrize("degree", [1, 2])
    def test_reference_tables_are_shared_read_only_and_fresh(self, degree):
        nodes = {1: [0.0, 1.0], 2: [0.0, 0.5, 1.0]}[degree]
        X, Y = np.meshgrid(nodes, nodes, indexing="xy")
        lattice = np.column_stack([X.ravel(), Y.ravel()])
        s = 0.5 * np.array([0, 1])[:, None] + 0.5 * np.array(nodes)
        tables = {
            fem._lattice_points: ((degree,), lattice),
            fem._trace_weights: ((degree,), fem.shape_1d(degree, s.ravel()).reshape(
                2, degree + 1, degree + 1)),
        }
        for other in (1, 2):
            tables[fem._lattice_basis] = ((other, degree), tensor_shape(other, lattice))
            for table, (args, fresh) in tables.items():
                cached = table(*args)
                assert table(*args) is cached
                assert np.array_equal(cached, fresh)
                with pytest.raises(ValueError):
                    cached[0] = 0.0


@pytest.fixture(params=["sheared", "hanging"])
def rule_mesh(request, sheared_irregular_lshape, hanging_mesh):
    return sheared_irregular_lshape if request.param == "sheared" else hanging_mesh


class TestFaceQuadrature:
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("refine", [None, (sheared_lshape, 21), (sheared_lshape, 22),
                                        (make_lshape, 23)])
    def test_both_sides_map_their_reference_points_to_the_physical_points(
        self, sheared_irregular_lshape, refine, degree
    ):
        """On every row kind, each side's bilinear cell map meets the points on the piece."""
        if refine is None:
            mesh = sheared_irregular_lshape
        else:
            mesh = refine[0]()
            random_refine(mesh, refine[1])
        table = mesh.face_topology()
        assert set(table.kind.tolist()) == {BOUNDARY, SAME, COARSER, FINER}
        space = FeSpace(mesh, degree)
        quad = fem.face_quadrature(space, degree + 1, np.arange(len(table.kind)))
        assert np.array_equal(quad.cells[0], table.owner)
        assert np.array_equal(quad.cells[1], np.where(table.kind == BOUNDARY, table.owner,
                                                      table.neighbor))
        refs = fem._face_points(degree + 1)[quad.faces, quad.slots]
        for side in (0, 1):
            for cell, ref, phys in zip(quad.cells[side], refs[side], quad.phys):
                mapped = mesh.map_to_physical(int(table.cells[cell]), ref)
                assert np.all(np.abs(mapped - phys) <= 1e-15)
        # weights sum to each owner face's length; normals are outward unit vectors
        corners = mesh.cell_corner_coords(table.cells)
        ends = corners[table.owner[:, None], np.array(FACE_VERTS)[table.face]]
        face_length = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=-1)
        covered = np.bincount(4 * table.owner + table.face, weights=quad.JxW.sum(axis=1))
        assert np.allclose(covered[4 * table.owner + table.face], face_length, rtol=1e-14)
        assert np.allclose(np.linalg.norm(quad.normal, axis=1), 1.0, rtol=0, atol=1e-15)
        outward = quad.phys[:, 0] - corners[table.owner].mean(axis=1)
        assert np.all(np.einsum("rd,rd->r", outward, quad.normal) > 0)


def oracle_face_points(face, s):
    """Per-call reference points on a face, ``a + s (b - a)`` between its unit corners."""
    ends = fem._lattice_points(1)[FACE_VERTS[face]]
    return ends[..., None, 0, :] + s[..., None] * (ends[..., None, 1, :] - ends[..., None, 0, :])


def oracle_face_quadrature(space, n, rows):
    """Reference points and owner basis tabulated per call, as before the face tables."""
    table = space.mesh.face_topology()
    face, kind, half = (a[rows] for a in (table.face, table.kind, table.half))
    bnd = kind == BOUNDARY
    faces = np.stack([face, np.where(bnd, face, fem.OPPOSITE_FACE[face])])
    s = fem.gauss_1d(n)[0]
    coarser = np.stack([kind == FINER, kind == COARSER])[..., None]
    s_side = np.where(coarser, 0.5 * half[:, None] + 0.5 * s, s)
    ref = oracle_face_points(faces, s_side)
    N = tensor_shape(space.degree, ref[0].reshape(-1, 2))
    return ref, N.reshape(len(face), n, N.shape[1])


class TestFaceTables:
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tables_are_the_per_call_tabulation(self, degree, n):
        s = fem.gauss_1d(n)[0]
        points, (N, grad) = fem._face_points(n), fem._face_basis(degree, n)
        for face in range(4):
            for slot, params in enumerate([s, 0.5 * 0 + 0.5 * s, 0.5 * 1 + 0.5 * s]):
                ref = oracle_face_points(np.array(face), params)
                assert np.array_equal(points[face, slot], ref)
                assert np.array_equal(N[face, slot], tensor_shape(degree, ref))
                assert np.array_equal(grad[face, slot], tensor_grad(degree, ref))

    def test_tables_are_read_only(self):
        for table in (fem._face_points(3), *fem._face_basis(2, 3)):
            with pytest.raises(ValueError):
                table.flat[0] = 1.0

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("refine", [None, (sheared_lshape, 21)])
    def test_face_quadrature_is_the_per_call_rule(self, sheared_irregular_lshape, refine,
                                                  degree):
        if refine is None:
            mesh = sheared_irregular_lshape
        else:
            mesh = refine[0]()
            random_refine(mesh, refine[1])
        table = mesh.face_topology()
        assert set(table.kind.tolist()) == {BOUNDARY, SAME, COARSER, FINER}
        space = FeSpace(mesh, degree)
        for n in (degree + 1, 4):
            for rows in (np.arange(len(table.kind)), ~table.on_boundary(DIRICHLET)):
                quad = fem.face_quadrature(space, n, rows)
                ref, N = oracle_face_quadrature(space, n, rows)
                assert np.array_equal(fem._face_points(n)[quad.faces, quad.slots], ref)
                assert np.array_equal(quad.N, N)
                # physical points, weights and normals as the per-call code formed them
                ends = mesh.points[mesh.forest().vertices[
                    table.cells[table.edge_cell[rows], None], FACE_VERTS[table.edge_face[rows]]]]
                s, w = fem.gauss_1d(n)
                phys = ends[:, None, 0] + s[:, None] * (ends[:, None, 1] - ends[:, None, 0])
                assert np.array_equal(quad.phys, phys)
                assert np.array_equal(quad.JxW, w * np.hypot(*(ends[:, 1] - ends[:, 0]).T)[:, None])
                own = mesh.points[mesh.forest().vertices[
                    table.cells[table.owner[rows], None], FACE_VERTS[table.face[rows]]]]
                t = own[:, 1] - own[:, 0]
                normal = fem._NORMAL_SIGN[table.face[rows]][:, None] * np.column_stack(
                    [-t[:, 1], t[:, 0]])
                assert np.array_equal(quad.normal, normal / np.hypot(*t.T)[:, None])
                assert np.array_equal(quad.gradients(1), tensor_grad(1, ref.reshape(-1, 2)))


class TestCellRule:
    def test_weights_sum_to_area(self, rule_mesh):
        for degree in (1, 2):
            for n in (1, 2, 3, 4):
                rule = cell_rule(FeSpace(rule_mesh, degree), n)
                assert rule.JxW.sum() == pytest.approx(rule_mesh.total_area(), abs=1e-14)

    def test_points_match_the_cell_maps(self, rule_mesh):
        rule = cell_rule(FeSpace(rule_mesh, 2), 3)
        ref = gauss_quadrature(3).points
        for k, cid in enumerate(rule_mesh.active_cells()):
            assert np.allclose(
                rule.phys[k], rule_mesh.map_to_physical(cid, ref), rtol=0, atol=1e-15
            )

    def test_values_and_load(self, rule_mesh):
        linear = lambda x: 1.0 + 2.0 * x[..., 0] - 3.0 * x[..., 1]
        for degree in (1, 2):
            space = FeSpace(rule_mesh, degree)
            rule = cell_rule(space, degree + 2)
            u = interpolate(space, linear).coefficients
            assert np.allclose(rule.values(space, u), linear(rule.phys), rtol=0, atol=1e-13)
            b = rule.load(space, np.ones_like(rule.JxW))
            assert b.sum() == pytest.approx(rule_mesh.total_area(), abs=1e-14)

    def test_one_rule_per_mesh_state(self, rule_mesh):
        slab = Slab(TimeInterval(0.0, 1.0), rule_mesh, 1, 2)
        assert cell_rule(slab.primal, 3) is cell_rule(slab.dual, 3)
        assert cell_rule(slab.primal, 2) is not cell_rule(slab.primal, 3)

    def test_stale_space_raises(self, rule_mesh):
        space = FeSpace(rule_mesh, 1)
        cell_rule(space, 2)
        rule_mesh.refine({rule_mesh.active_cells()[0]})
        with pytest.raises(RuntimeError):
            cell_rule(space, 2)


def bilinear_geometry(mesh, ref):
    """Points (c, k, 2), det J (c, k) and J^-1 (c, k, 2, 2) of the active cells' bilinear maps.

    Taken at the reference points ``ref`` (k, 2) from the corner coordinates
    alone, one Jacobian per point, independently of the per-cell geometry.
    The basis gradients sum to zero, so J is taken from the corners relative
    to the lower-left one, which keeps the rounding of cells far from the
    origin out of it.
    """
    corners = mesh.cell_corner_coords(mesh.active_ids())
    points = np.einsum("kv,cvd->ckd", tensor_shape(1, ref), corners)
    J = np.einsum("cvd,kve->ckde", corners - corners[:, :1], tensor_grad(1, ref))
    (a, b), (c, d) = np.moveaxis(J, (-2, -1), (0, 1))
    det = a * d - b * c
    inverse = np.stack([np.stack([d, -b], -1), np.stack([-c, a], -1)], -2) / det[..., None, None]
    return points, det, inverse


def assert_close(actual, expected, rel):
    """Agreement to ``rel`` times the largest entry of ``expected``."""
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


class TestAffineGeometry:
    """The per-cell affine geometry reproduces the per-point bilinear map on parallelograms."""

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name", list(cases()))
    def test_cell_rule_matches_the_bilinear_map(self, name, degree):
        mesh = build(name)
        rule = cell_rule(FeSpace(mesh, degree), degree + 1)
        quad = gauss_quadrature(degree + 1)
        points, det, invJ = bilinear_geometry(mesh, quad.points)
        assert rule.detJ.shape == (len(points),) and rule.invJ.shape == (len(points), 2, 2)
        assert_close(rule.phys, points, 1e-15)
        assert_close(rule.JxW, quad.weights * det, 1e-15)
        assert_close(np.broadcast_to(rule.detJ[:, None], det.shape), det, 1e-15)
        assert_close(np.broadcast_to(rule.invJ[:, None], invJ.shape), invJ, 1e-15)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name", list(cases()))
    def test_physical_gradients_match_the_bilinear_map(self, name, degree, rng):
        mesh = build(name)
        space = FeSpace(mesh, degree)
        coefficients = rng.standard_normal(space.n_dofs)
        cells = rng.integers(len(space.active_ids), size=300)
        ref = rng.random((300, 2))
        corners = mesh.cell_corner_coords(space.active_ids)[cells]
        J = np.einsum("nvd,nve->nde", corners - corners[:, :1], tensor_grad(1, ref))
        ref_grad = np.einsum(
            "nie,ni->ne", tensor_grad(degree, ref), coefficients[space.cell_dofs[cells]]
        )
        # the reference gradient is J^T times the physical one
        expected = np.linalg.solve(np.swapaxes(J, 1, 2), ref_grad[..., None])[..., 0]
        rows = tensor_grad(degree, ref)
        assert_close(physical_gradients(space, coefficients, cells, rows), expected, 1e-14)


def conforming_basis(space):
    """Dense prolongation: column i is the conforming basis function of dof i in the raw basis."""
    cs = space.constraints
    P = np.eye(space.n_dofs)
    for slave in cs.slaves:
        P[slave] = 0.0
        for master, weight in cs.weights(slave):
            P[slave, master] = weight
    return P


def mixed_lshape():
    """An L-shape of three parallelograms with three different Jacobians, refined 1-irregularly.

    Horizontal neighbours share their slanted side, vertical ones their
    bottom and top, so the roots' Jacobians are [ex0, ey0], [ex1, ey0] and
    [ex0, ey2] with ex0 = (1/2, 0), ex1 = (1/2, 1/8), ey0 = (1/8, 1/2) and
    ey2 = (-1/8, 1/2).
    """
    pts = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.125), (0.125, 0.5), (0.625, 0.5), (1.125, 0.625),
           (0.0, 1.0), (0.5, 1.0)]
    mesh = QuadMesh(pts, [(0, 1, 3, 4), (1, 2, 4, 5), (3, 4, 6, 7)])
    mesh.refine({0})
    mesh.refine({3})
    # so that rows off the boundary sit on the sides between the roots
    mesh.refine(mesh.active_cells())
    return mesh


class TestStiffnessPatch:
    """The stiffness matrix on sheared, 1-irregular cells, tested with u = 1 + 2x - 3y.

    The inverse Jacobians there are not diagonal, so a transposed invJ (a
    metric invJ^T invJ) changes the energy, and on cells of differing shape
    the rows as well; a metric without det J changes both wherever cells
    differ in area.
    """

    @pytest.fixture(params=["sheared", "mixed"])
    def mesh(self, request, sheared_irregular_lshape):
        mesh = sheared_irregular_lshape if request.param == "sheared" else mixed_lshape()
        # one uniform round keeps every face kind and leaves Q1 rows off the boundary
        mesh.refine(mesh.active_cells())
        return mesh

    @staticmethod
    def linear(space):
        return interpolate(space, lambda x: 1.0 + 2.0 * x[..., 0] - 3.0 * x[..., 1]).coefficients

    @pytest.mark.parametrize("degree", [1, 2])
    def test_energy_is_the_exact_integral(self, mesh, degree):
        space = FeSpace(mesh, degree)
        u = self.linear(space)
        exact = 13.0 * mesh.total_area()  # |grad u|^2 = 2^2 + 3^2
        assert abs(u @ (assemble_stiffness(space) @ u) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("degree", [1, 2])
    def test_rows_off_the_boundary_vanish(self, mesh, degree):
        """int grad psi_i . grad u = 0 for each conforming basis function off the boundary."""
        space = FeSpace(mesh, degree)
        table = mesh.face_topology()
        boundary_cells = np.unique(table.owner[table.kind == BOUNDARY])
        P = conforming_basis(space)
        touches = (P[space.cell_dofs[boundary_cells].ravel()] != 0.0).any(axis=0)
        slaves = space.constraints.slaves
        touches[slaves] = True
        rows = np.flatnonzero(~touches)
        masters = {m for s in slaves for m, _ in space.constraints.weights(s)}
        assert masters & set(rows.tolist())  # some tested rows span a hanging face
        residual = assemble_stiffness(space) @ self.linear(space)
        assert np.max(np.abs(residual[rows])) <= 1e-12


class TestParallelogramGuard:
    """A space is built only on parallelograms listed counter-clockwise."""

    def test_skewed_cells_raise_naming_the_cell(self):
        with pytest.raises(ValueError, match="active cell 0 is not a parallelogram"):
            FeSpace(skewed_square(), 1)

    def test_trapezoid_raises_naming_the_cell(self):
        pts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1.5, 1)]
        mesh = QuadMesh(pts, [(0, 1, 3, 4), (1, 2, 4, 5)])
        with pytest.raises(ValueError, match="active cell 1 is not a parallelogram"):
            FeSpace(mesh, 2)
        # the mesh itself stays usable, and its refined trapezoid is still refused
        mesh.refine({1})
        assert mesh.locate_point((1.25, 0.25))[0] == 2
        with pytest.raises(ValueError, match="active cell 2 is not a parallelogram"):
            FeSpace(mesh, 1)

    def test_clockwise_cell_raises_naming_the_cell(self):
        mesh = QuadMesh([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 2, 1, 3)])
        with pytest.raises(ValueError, match="active cell 0 is not a parallelogram listed "
                                             "counter-clockwise: .* det J = -1"):
            FeSpace(mesh, 1)

    def test_far_from_the_origin_builds(self):
        x0 = 1e9
        mesh = QuadMesh([(x0, 0), (x0 + 1, 0), (x0, 1), (x0 + 1, 1)], [(0, 1, 2, 3)])
        mesh.refine({0})
        mesh.refine({1})
        assert FeSpace(mesh, 2).n_dofs == 43

    def test_tolerance_is_relative_to_the_cell_size(self):
        """Rounded corners of a large sheared cell far out leave a defect that passes."""
        pts = [(1e9 + 0.1, 0.3), (1e9 + 2e6 + 0.3, 0.1), (1e9 + 0.2, 1e6 + 0.7),
               (1e9 + 2e6 + 0.4, 1e6 + 0.5)]
        mesh = QuadMesh(pts, [(0, 1, 2, 3)])
        mesh.refine({0})
        mesh.refine({1})
        ll, lr, ul, ur = np.moveaxis(mesh.cell_corner_coords(), 1, 0)
        assert np.max(np.abs(ll + ur - lr - ul)) > 1e-12  # an absolute tolerance would refuse
        assert cell_rule(FeSpace(mesh, 1), 2).JxW.sum() == pytest.approx(mesh.total_area())

    def test_tolerance_covers_the_rounding_of_far_coordinates(self):
        """Midpoints of a smaller sheared cell far out are rounded beyond 1e-12 of its size."""
        pts = [(1e9 + 0.1, 0.3), (1e9 + 2e5 + 0.3, 0.1), (1e9 + 0.2, 1e5 + 0.7),
               (1e9 + 2e5 + 0.4, 1e5 + 0.5)]
        mesh = QuadMesh(pts, [(0, 1, 2, 3)])
        mesh.refine({0})
        ll, lr, ul, ur = np.moveaxis(mesh.cell_corner_coords(), 1, 0)
        defect = np.hypot(*(ll + ur - lr - ul).T)
        assert np.max(defect / np.hypot(*(ur - ll).T)) > 1e-12  # a size-relative tolerance refuses
        assert cell_rule(FeSpace(mesh, 2), 3).JxW.sum() == pytest.approx(mesh.total_area())


class TestAssembly:
    def test_q1_unit_mass_matrix(self, unit_square):
        space = FeSpace(unit_square, 1)
        M = assemble_mass(space, 1.0).toarray()
        expected = np.array(
            [[4, 2, 2, 1], [2, 4, 1, 2], [2, 1, 4, 2], [1, 2, 2, 4]]) / 36.0
        assert np.allclose(M, expected, atol=1e-15)
        # independent high-order quadrature oracle
        shapes = q1_shapes()
        oracle = np.array(
            [[brute_force_local(lambda x, y: si(x, y) * sj(x, y)) for sj in shapes]
             for si in shapes]
        )
        assert np.allclose(M, oracle, atol=1e-14)

    def test_q1_unit_stiffness_matrix(self, unit_square):
        space = FeSpace(unit_square, 1)
        A = assemble_stiffness(space, 1.0).toarray()
        expected = np.array(
            [[4, -1, -1, -2], [-1, 4, -2, -1], [-1, -2, 4, -1], [-2, -1, -1, 4]]) / 6.0
        assert np.allclose(A, expected, atol=1e-15)
        grads = q1_grads()
        oracle = np.array(
            [[brute_force_local(
                lambda x, y: np.dot(gi(x, y), gj(x, y))) for gj in grads]
             for gi in grads]
        )
        assert np.allclose(A, oracle, atol=1e-14)

    def test_density_scales_mass(self, unit_square):
        space = FeSpace(unit_square, 1)
        assert np.allclose(
            assemble_mass(space, 0.8).toarray(),
            0.8 * assemble_mass(space, 1.0).toarray(),
            atol=1e-15,
        )

    def test_diffusivity_scales_stiffness(self, unit_square):
        space = FeSpace(unit_square, 1)
        assert np.allclose(
            assemble_stiffness(space, 1.2).toarray(),
            1.2 * assemble_stiffness(space, 1.0).toarray(),
            atol=1e-15,
        )

    def test_total_mass_equals_area_any_mesh(self, hanging_mesh):
        hanging_mesh.refine({hanging_mesh.cells[0].children[3]})
        for degree in (1, 2):
            space = FeSpace(hanging_mesh, degree)
            M = assemble_mass(space, 1.0)
            assert M.sum() == pytest.approx(2.0, abs=1e-12)

    def test_stiffness_rows_sum_to_zero_conforming(self, lshape):
        lshape.refine(set(lshape.active_cells()))
        space = FeSpace(lshape, 2)
        A = assemble_stiffness(space, 3.7)
        assert np.max(np.abs(A @ np.ones(space.n_dofs))) < 1e-13

    def test_assembled_matrices_symmetric(self, hanging_mesh):
        space = FeSpace(hanging_mesh, 2)
        for mat in (assemble_mass(space, 0.8), assemble_stiffness(space, 1.2)):
            diff = (mat - mat.T).tocoo()
            rel = np.max(np.abs(diff.data)) / np.max(np.abs(mat.data)) if diff.nnz else 0.0
            assert rel < 1e-12


class TestLoads:
    def test_constant_volume_load_is_mass_row_sum(self, lshape):
        space = FeSpace(lshape, 1)
        b = assemble_load_volume(space, lambda x: np.ones(x.shape[:-1]))
        M = assemble_mass(space, 1.0)
        assert np.allclose(b, M @ np.ones(space.n_dofs), atol=1e-14)

    def test_zero_load(self, lshape):
        space = FeSpace(lshape, 2)
        b = assemble_load_volume(space, lambda x: np.zeros(x.shape[:-1]))
        assert np.all(b == 0.0)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_load_scatters_are_bit_identical_to_add_at(self, sheared_irregular_lshape, degree,
                                                       rng):
        """Both loads start from zero and add in index order, as ``np.add.at`` does."""
        space = FeSpace(sheared_irregular_lshape, degree)
        rule = cell_rule(space, degree + 1)
        density = rng.standard_normal(rule.phys.shape[:2])
        local = np.einsum("cq,qi->ci", rule.JxW * density, rule.basis(degree).N)
        expected = np.zeros(space.n_dofs)
        np.add.at(expected, space.cell_dofs, local)
        assert np.array_equal(rule.load(space, density), expected)

        def h(x):
            return np.sin(7.0 * x[..., 1]) * np.exp(x[..., 0])

        rows = sheared_irregular_lshape.face_topology().on_boundary(NEUMANN)
        quad = fem.face_quadrature(space, degree + 1, rows)
        assert len(quad.JxW) > 1
        contrib = np.einsum("fq,fqi->fi", quad.JxW * h(quad.phys), quad.N)
        expected = np.zeros(space.n_dofs)
        np.add.at(expected, space.cell_dofs[quad.cells[0]], contrib)
        assert np.array_equal(assemble_load_neumann(space, h, condense=False), expected)

    def test_unit_neumann_trace_integrals(self, lshape):
        space = FeSpace(lshape, 1)
        b = assemble_load_neumann(space, lambda x: np.ones(x.shape[:-1]))
        nonzero = {tuple(np.round(space.support_points[i], 6)): v
                   for i, v in enumerate(b) if v != 0.0}
        assert nonzero == {
            (0.0, 0.0): pytest.approx(0.25),
            (0.0, 0.5): pytest.approx(0.5),
            (0.0, 1.0): pytest.approx(0.25),
        }


class TestInterpolateEvaluate:
    def test_constant_reproduced(self, lshape):
        space = FeSpace(lshape, 1)
        f = interpolate(space, lambda x: np.full(x.shape[:-1], 4.2))
        assert np.all(f.coefficients == 4.2)
        assert f.evaluate((0.3, 0.6)) == pytest.approx(4.2, abs=1e-14)

    def test_linear_reproduced_exactly(self, lshape, rng):
        space = FeSpace(lshape, 1)
        f = interpolate(space, lambda x: x[..., 0])
        for _ in range(20):
            p = rng.uniform(0, 0.5, size=2)
            assert f.evaluate(p) == pytest.approx(p[0], abs=1e-13)

    def test_bilinear_reproduced_on_single_cell(self, unit_square, rng):
        space = FeSpace(unit_square, 1)
        f = interpolate(space, lambda x: x[..., 0] * x[..., 1])
        for _ in range(10):
            p = rng.uniform(0, 1, size=2)
            assert f.evaluate(p) == pytest.approx(p[0] * p[1], abs=1e-13)

    def test_lagrange_property(self, lshape):
        space = FeSpace(lshape, 2)
        for j in [0, 5, space.n_dofs - 1]:
            e = np.zeros(space.n_dofs)
            e[j] = 1.0
            f = FeFunction(space, e)
            for i in range(space.n_dofs):
                expected = 1.0 if i == j else 0.0
                assert f.evaluate(space.support_points[i]) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_interpolation_is_a_projection(self, hanging_mesh):
        space = FeSpace(hanging_mesh, 2)
        g = lambda x: np.sin(x[..., 0]) * np.cos(2 * x[..., 1])
        f1 = interpolate(space, g)
        f2 = interpolate(space, lambda x: np.array(
            [f1.evaluate(p) for p in np.atleast_2d(x)]))
        assert np.allclose(f1.coefficients, f2.coefficients, atol=1e-13)

    def test_hanging_slaves_overwritten(self, hanging_mesh):
        space = FeSpace(hanging_mesh, 1)
        cs = space.constraints
        f = interpolate(space, lambda x: x[..., 0] ** 2)  # not in the space
        for s in cs.slaves:
            expected = sum(w * f.coefficients[m] for m, w in cs.weights(s))
            assert f.coefficients[s] == pytest.approx(expected, abs=1e-15)

    def test_evaluate_outside_raises(self, lshape):
        space = FeSpace(lshape, 1)
        f = interpolate(space, lambda x: x[..., 0])
        from dwr_diffusion.mesh import OutsideDomainError

        with pytest.raises(OutsideDomainError):
            f.evaluate((0.9, 0.9))


class TestPartitionOfUnityAndContinuity:
    @given(st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=10)
    def test_partition_of_unity(self, seed):
        rng = np.random.default_rng(seed)
        mesh = make_lshape()
        for _ in range(2):
            marks = {c for c in mesh.active_cells() if rng.random() < 0.4}
            mesh.refine(marks)
        for degree in (1, 2):
            space = FeSpace(mesh, degree)
            ones = FeFunction(space, np.ones(space.n_dofs))
            for _ in range(10):
                p = rng.uniform(0, 1, size=2)
                if p[0] >= 0.5 and p[1] >= 0.5:
                    continue
                assert ones.evaluate(p) == pytest.approx(1.0, abs=1e-12)

    def test_two_sided_continuity_on_hanging_faces(self, hanging_mesh, rng):
        for degree in (1, 2):
            space = FeSpace(hanging_mesh, degree)
            coeffs = space.constraints.distribute(rng.standard_normal(space.n_dofs))
            f = FeFunction(space, coeffs)
            fine_cells = [c for c in hanging_mesh.active_cells()
                          if hanging_mesh.cells[c].level == 1]
            for y in rng.uniform(0.01, 0.99, size=20):
                p = np.array([1.0, y])
                vals = [f.evaluate_in_cell(1, hanging_mesh.invert_map(1, p)[0][None, :])[0]]
                for c in fine_cells:
                    ref, ok = hanging_mesh.invert_map(c, p)
                    if ok and np.all(ref >= -1e-9) and np.all(ref <= 1 + 1e-9):
                        vals.append(
                            f.evaluate_in_cell(c, np.clip(ref, 0, 1)[None, :])[0])
                assert max(vals) - min(vals) < 1e-12


class TestTransfer:
    def test_identity_on_same_space(self, lshape):
        space = FeSpace(lshape, 1)
        f = interpolate(space, lambda x: x[..., 0] + 2 * x[..., 1])
        g = transfer(f, space)
        assert np.array_equal(f.coefficients, g.coefficients)

    def test_identical_mesh_copies(self, lshape):
        s_from = FeSpace(lshape, 1)
        s_to = FeSpace(lshape.copy(), 1)
        f = interpolate(s_from, lambda x: np.cos(x[..., 0]))
        g = transfer(f, s_to)
        assert np.array_equal(f.coefficients, g.coefficients)

    def test_linear_exact_through_refinement(self, lshape):
        coarse = FeSpace(lshape, 1)
        f = interpolate(coarse, lambda x: x[..., 0])
        fine_mesh = lshape.copy()
        fine_mesh.refine(set(fine_mesh.active_cells()))
        fine = FeSpace(fine_mesh, 1)
        g = transfer(f, fine)
        assert np.allclose(g.coefficients, fine.support_points[:, 0], atol=1e-13)

    def test_q1_to_q2_same_mesh_is_pointwise_exact(self, lshape, rng):
        s1 = FeSpace(lshape, 1)
        s2 = FeSpace(lshape, 2)
        f = interpolate(s1, lambda x: 1.0 + x[..., 0] - 0.5 * x[..., 1])
        g = transfer(f, s2)
        for _ in range(20):
            p = rng.uniform(0, 0.5, size=2)
            assert g.evaluate(p) == pytest.approx(f.evaluate(p), abs=1e-13)

    def test_same_mesh_interpolation_roundtrip(self, hanging_mesh, rng):
        s1 = FeSpace(hanging_mesh, 1)
        s2 = FeSpace(hanging_mesh, 2)
        f = interpolate(s1, lambda x: x[..., 0] * x[..., 1])
        up = interpolate_same_mesh(f, s2)
        back = interpolate_same_mesh(up, s1)
        assert np.allclose(back.coefficients, f.coefficients, atol=1e-14)

    @given(
        st.sampled_from(["lshape", "unit_square"]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
        st.integers(min_value=0, max_value=2**30),
    )
    def test_forest_walk_matches_point_evaluation(
        self, domain, rounds_from, rounds_to, twin, seed
    ):
        """``twin`` makes the target a copy refined with the same marks as the source."""
        rng = np.random.default_rng(seed)
        coarse = make_lshape() if domain == "lshape" else make_unit_square()
        meshes = []
        marks = []
        for rounds in (rounds_from, rounds_to):
            mesh = coarse.copy()
            for _ in range(rounds):
                marks.append({c for c in mesh.active_cells() if rng.random() < 0.4})
                mesh.refine(marks[-1])
            meshes.append(mesh)
        if twin:
            meshes[1] = coarse.copy()
            for m in marks[:rounds_from]:
                meshes[1].refine(m)
        for deg_from, deg_to in ((1, 1), (2, 2), (1, 2), (2, 1)):
            s_from = FeSpace(meshes[0], deg_from)
            s_to = FeSpace(meshes[1], deg_to)
            f = FeFunction(
                s_from, s_from.constraints.distribute(rng.standard_normal(s_from.n_dofs))
            )
            expected = s_to.constraints.distribute(
                [f.evaluate(p) for p in s_to.support_points]
            )
            g = transfer(f, s_to)
            assert np.max(np.abs(g.coefficients - expected)) <= 1e-13
            if twin and deg_from == deg_to:
                assert np.array_equal(g.coefficients, f.coefficients)

    def test_meshes_without_a_shared_coarse_mesh_raise(self, lshape, unit_square):
        f = interpolate(FeSpace(lshape, 1), lambda x: x[..., 0])
        with pytest.raises(ValueError, match="same coarse mesh"):
            transfer(f, FeSpace(unit_square, 1))
