import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwr_diffusion.mesh import (
    BOUNDARY,
    BOUNDARY_COLORS,
    COARSER,
    DIRICHLET,
    FACE_VERTS,
    FINER,
    NEUMANN,
    OPPOSITE_FACE,
    SAME,
    _CHILD_VERTS,
    Forest,
    OutsideDomainError,
    QuadMesh,
    make_lshape,
    make_unit_square,
)
import mesh_oracle
from mesh_state_cases import SHEAR, sheared_lshape


def face_midpoint(mesh, cid, face):
    a, b = (mesh.points[mesh.cells[cid].vertices[s]] for s in FACE_VERTS[face])
    return 0.5 * (a + b)


def assert_one_irregular(mesh):
    for cid in mesh.active_cells():
        level = mesh.cells[cid].level
        for f in range(4):
            for nb in mesh.active_across(cid, f):
                assert abs(mesh.cells[nb].level - level) <= 1


class TestLshape:
    def test_cell_and_vertex_counts(self, lshape):
        assert lshape.n_active_cells == 3
        assert lshape.n_vertices == 8

    def test_boundary_colors(self, lshape):
        colors = {}
        for cid in lshape.active_cells():
            for f in range(4):
                c = lshape.boundary_color.get((cid, f))
                if c is not None:
                    colors[tuple(np.round(face_midpoint(lshape, cid, f), 6))] = c
        assert colors[(0.0, 0.25)] == NEUMANN
        assert colors[(0.0, 0.75)] == NEUMANN
        assert colors[(0.25, 0.0)] == DIRICHLET
        # the reentrant faces bounding the removed quadrant are Dirichlet
        assert colors[(0.75, 0.5)] == DIRICHLET
        assert colors[(0.5, 0.75)] == DIRICHLET

    def test_every_boundary_face_is_colored(self, lshape):
        for cid in lshape.active_cells():
            for f in range(4):
                if lshape.is_boundary_face(cid, f):
                    assert (cid, f) in lshape.boundary_color

    def test_area(self, lshape):
        assert lshape.total_area() == pytest.approx(0.75, abs=1e-14)


class TestRefine:
    def test_single_cell_split(self, unit_square):
        unit_square.refine({0})
        assert unit_square.n_active_cells == 4
        assert unit_square.n_vertices == 9

    def test_refine_one_lshape_cell(self, lshape):
        lshape.refine({0})
        assert lshape.n_active_cells == 6
        assert_one_irregular(lshape)

    def test_closure_force_refines_coarse_neighbor(self, lshape):
        lshape.refine({0})
        # refine the child touching the coarse right neighbor; that neighbor
        # must be force-refined to keep the mesh 1-irregular
        child = lshape.cells[0].children[1]  # lower-right child, adjacent to cell 1
        n_before = lshape.n_active_cells
        lshape.refine({child})
        assert lshape.cells[1].children is not None
        assert_one_irregular(lshape)
        assert lshape.n_active_cells == n_before + 3 + 3

    def test_marked_cells_do_not_survive(self, lshape):
        lshape.refine({0, 2})
        active = set(lshape.active_cells())
        assert 0 not in active and 2 not in active

    def test_colors_inherited(self, lshape):
        lshape.refine({0})
        neumann_mids = []
        for cid in lshape.active_cells():
            for f in range(4):
                if lshape.boundary_color.get((cid, f)) == NEUMANN:
                    neumann_mids.append(tuple(np.round(face_midpoint(lshape, cid, f), 6)))
        assert (0.0, 0.125) in neumann_mids
        assert (0.0, 0.375) in neumann_mids

    def test_invalid_marks_rejected(self, lshape):
        with pytest.raises(ValueError, match="marked cell 99 is unknown"):
            lshape.refine({99})
        with pytest.raises(ValueError, match="marked cell -1 is unknown"):
            lshape.refine({1, -1})
        lshape.refine({0})
        with pytest.raises(ValueError, match="marked cell 0 is inactive"):
            lshape.refine({99, 2, 0})  # the first bad id in ascending order

    @pytest.mark.parametrize("mark", [1.5, True, np.True_, "1", None, math.nan, math.inf])
    def test_marks_that_are_not_integers_are_refused_by_name(self, lshape, mark):
        with pytest.raises(ValueError, match=rf"marked cell {re.escape(repr(mark))} is not an "
                                             "integer cell id"):
            lshape.refine([0, mark])
        assert lshape.active_cells() == [0, 1, 2]

    @pytest.mark.parametrize("marks", [[1.0], [np.int32(1)], np.array([1]), np.array([1.0]),
                                       (np.float64(1.0),)])
    def test_integer_valued_marks_refine_as_ints(self, lshape, marks):
        assert lshape.refine(marks).active_cells() == make_lshape().refine([1]).active_cells()

    def test_empty_marks_keep_order(self, lshape):
        before = lshape.active_cells()
        lshape.refine(set())
        assert lshape.active_cells() == before


def round_by_round_refine(mesh, marked_cells):
    """Refinement one closure round at a time, kept as the oracle of :meth:`QuadMesh.refine`.

    Each round splits its cells in ascending id order; the next holds the
    active cells that the new neighbor array shows coarser than a cell split
    in this round.  Returns the number of rounds.
    """
    f, points = mesh.forest(), mesh.points
    queue = np.unique(np.fromiter(marked_cells, dtype=np.intp))
    rounds = 0
    while queue.size:
        f, points = mesh_oracle._split(f, points, queue)
        rounds += 1
        nb = f.neighbor[queue]
        coarse = (nb >= 0) & (f.children[nb, 0] < 0) & (f.level[nb] < f.level[queue, None])
        queue = np.unique(nb[coarse])
    mesh._forest, mesh._points = f, points
    mesh._version += 1
    mesh._cache = {}
    return rounds


def assert_bitwise_same_state(mesh, ref):
    for name, got, want in zip(("points",) + Forest._fields, (mesh.points, *mesh.forest()),
                               (ref.points, *ref.forest())):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


class TestOnePassRefine:
    """One split pass over the listed closure gives the round-by-round forest and points."""

    domains = {"lshape": (make_lshape, 0.0), "sheared": (sheared_lshape, SHEAR)}

    @given(st.integers(min_value=0, max_value=2**30), st.sampled_from(["lshape", "sheared"]))
    @settings(max_examples=20)
    def test_random_marks(self, seed, name):
        rng = np.random.default_rng(seed)
        mesh = self.domains[name][0]()
        ref = mesh.copy()
        for _ in range(4):
            marks = [c for c in mesh.active_cells() if rng.random() < 0.35]
            mesh.refine(marks)
            round_by_round_refine(ref, marks)
            assert_bitwise_same_state(mesh, ref)

    @pytest.mark.parametrize("name", ["lshape", "sheared"])
    @pytest.mark.parametrize("target", [(0.3, 0.2), (0.01, 0.01)])
    def test_forced_cascades(self, name, target):
        """Refining toward one point grades the mesh, so one mark forces a deep closure."""
        factory, shear = self.domains[name]
        mesh = factory()
        ref = mesh.copy()
        point = (target[0] + shear * target[1], target[1])
        rounds = []
        for _ in range(7):
            marks = [mesh.locate_point(point)[0]]
            mesh.refine(marks)
            rounds.append(round_by_round_refine(ref, marks))
            assert_bitwise_same_state(mesh, ref)
        assert max(rounds) >= 4  # the marks, then at least three closure rounds


class TestTraversal:
    def test_coarse_order(self, lshape):
        assert lshape.active_cells() == [0, 1, 2]

    def test_children_appended_in_creation_order(self, lshape):
        lshape.refine({0})
        assert lshape.active_cells() == [1, 2, 3, 4, 5, 6]


class TestLocate:
    def test_interior_point(self, lshape):
        cid, ref = lshape.locate_point((0.25, 0.25))
        assert cid == 0
        assert np.allclose(ref, [0.5, 0.5], atol=1e-12)

    def test_shared_edge_tie_break(self, lshape):
        cid, _ = lshape.locate_point((0.5, 0.25))
        assert cid == 0

    def test_shared_vertex_tie_break(self, lshape):
        cid, _ = lshape.locate_point((0.5, 0.5))
        assert cid == 0

    def test_outside_domain(self, lshape):
        with pytest.raises(OutsideDomainError):
            lshape.locate_point((0.75, 0.75))
        with pytest.raises(OutsideDomainError):
            lshape.locate_point((1.5, 0.5))

    def test_locate_after_refinement(self, lshape):
        lshape.refine({0})
        cid, ref = lshape.locate_point((0.1, 0.1))
        assert lshape.cells[cid].level == 1
        assert lshape.cells[cid].active

    @given(st.integers(min_value=0, max_value=2**30))
    def test_locate_inverts_the_cell_map(self, seed):
        rng = np.random.default_rng(seed)
        mesh = make_lshape()
        for _ in range(2):
            active = mesh.active_cells()
            marks = {c for c in active if rng.random() < 0.4}
            mesh.refine(marks)
        active = mesh.active_cells()
        for _ in range(10):
            cid = active[rng.integers(len(active))]
            ref = rng.uniform(0.05, 0.95, size=2)
            p = mesh.map_to_physical(cid, ref)
            found, ref_found = mesh.locate_point(p)
            assert np.allclose(mesh.map_to_physical(found, ref_found), p, atol=1e-10)
            if found == cid:
                assert np.allclose(ref_found, ref, atol=1e-10)


class TestInvariants:
    @given(st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=15)
    def test_area_conserved_and_one_irregular(self, seed):
        rng = np.random.default_rng(seed)
        mesh = make_lshape()
        for _ in range(3):
            active = mesh.active_cells()
            marks = {c for c in active if rng.random() < 0.35}
            mesh.refine(marks)
            assert mesh.total_area() == pytest.approx(0.75, abs=1e-12)
            assert_one_irregular(mesh)

    def test_vertices_only_grow(self, lshape):
        n0 = lshape.n_vertices
        lshape.refine({0})
        n1 = lshape.n_vertices
        lshape.refine({3})
        assert n0 < n1 < lshape.n_vertices

    def test_children_partition_parent(self, unit_square):
        unit_square.refine({0})
        total = sum(unit_square.cell_area(c) for c in unit_square.active_cells())
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_copy_is_independent(self, lshape):
        clone = lshape.copy()
        assert clone.fingerprint() == lshape.fingerprint()
        clone.refine({0})
        assert lshape.n_active_cells == 3
        assert clone.fingerprint() != lshape.fingerprint()

    def test_copy_shares_the_cached_values_and_keeps_them_through_a_refine(self):
        """A copy holds the state's cached values by identity, in a dict of its own."""
        queries = {"active_ids": QuadMesh.active_ids, "face_topology": QuadMesh.face_topology,
                   "cells": lambda mesh: mesh.cells, "coarse_corners": QuadMesh.coarse_corners}
        mesh, fresh = make_lshape().refine([0, 2]), make_lshape().refine([0, 2])
        seen = {name: query(mesh) for name, query in queries.items()}
        clone = mesh.copy()
        assert clone._cache is not mesh._cache and clone._cache.keys() == mesh._cache.keys()
        assert all(clone._cache[key] is value for key, value in mesh._cache.items())
        clone.boundary_color
        assert clone.is_cached("colors") and not mesh.is_cached("colors")
        assert mesh.copy(cache=False)._cache == {}
        mesh.refine(mesh.active_ids()[:2])
        for name, query in queries.items():
            got, expected = query(clone), query(fresh)
            assert got is seen[name]
            if name == "face_topology":
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))
            else:
                assert np.array_equal(got, expected) if name != "cells" else got == expected
        assert not np.array_equal(mesh.active_ids(), clone.active_ids())


class TestConstruction:
    def test_rejects_inconsistent_orientation(self):
        # second cell rotated: its left face is glued to the first cell's right
        # face but labelled as bottom
        pts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
        with pytest.raises(ValueError):
            QuadMesh(pts, [(0, 1, 3, 4), (4, 1, 5, 2)])

    def test_rejects_nonfinite_vertex(self):
        with pytest.raises(ValueError):
            QuadMesh([(0, 0), (1, 0), (0, 1), (np.nan, 1)], [(0, 1, 2, 3)])

    def test_rejects_duplicate_root_vertex(self):
        with pytest.raises(ValueError, match="duplicate"):
            QuadMesh([(0, 0), (1, 0), (0, 1), (1, 1), (-0.0, 0)], [(0, 1, 2, 3)])

    def test_refines_far_from_the_origin_with_exact_midpoints(self):
        x0 = 1e9
        mesh = QuadMesh([(x0, 0), (x0 + 1, 0), (x0, 1), (x0 + 1, 1)], [(0, 1, 2, 3)])
        mesh.refine({0})
        mesh.refine({1})  # the lower-left child
        assert mesh.n_vertices == 14
        f = mesh.forest()
        corners = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
        boxes = f.origin[:, None, :] + f.scale[:, None, None] * corners
        np.testing.assert_array_equal(mesh.points[f.vertices], boxes + [x0, 0.0])

    def test_rejects_unknown_boundary_color(self):
        with pytest.raises(ValueError):
            make_unit_square(lambda a, b: "robin")

    def test_unit_square_defaults(self, unit_square):
        assert unit_square.n_active_cells == 1
        for f in range(4):
            assert unit_square.boundary_color[(0, f)] == DIRICHLET


def on_segment(p, a, b, tol=1e-12):
    """Whether points ``p`` lie on the segments ``a``-``b`` (broadcasting over leading axes)."""
    t = b - a
    rel = p - a
    length_sq = np.sum(t * t, axis=-1)
    cross = t[..., 0] * rel[..., 1] - t[..., 1] * rel[..., 0]
    s = np.sum(rel * t, axis=-1) / length_sq
    return (np.abs(cross) <= tol * np.sqrt(length_sq)) & (s >= -tol) & (s <= 1 + tol)


def skewed_square():
    """Four cells around an off-centre interior vertex, so midpoints are not dyadic."""
    pts = [(0, 0), (0.5, 0), (1, 0), (0, 0.5), (0.6, 0.45), (1, 0.5), (0, 1), (0.5, 1), (1, 1)]
    return QuadMesh(pts, [(0, 1, 3, 4), (1, 2, 4, 5), (3, 4, 6, 7), (4, 5, 7, 8)])


class CoordinateNumbering:
    """Reference vertex numbering: a dict keyed by the coordinates, extended per split.

    The children of one split are four consecutive cell ids, so replaying the
    splits in id order meets every new vertex in the order the mesh creates it.
    """

    def __init__(self, mesh):
        self.points = [tuple(p) for p in mesh.points.tolist()]
        self.index = {p: i for i, p in enumerate(self.points)}
        self.vertices = mesh.forest().vertices.tolist()

    def follow(self, mesh):
        """Number the vertices of the cells that ``mesh`` created since the last call."""
        parents = mesh.forest().parent[len(self.vertices)::4].tolist()
        for parent in parents:
            p0, p1, p2, p3 = (np.array(self.points[v]) for v in self.vertices[parent])
            mids = [(p0 + p1) / 2.0, (p2 + p3) / 2.0, (p0 + p2) / 2.0, (p1 + p3) / 2.0,
                    (p0 + p1 + p2 + p3) / 4.0]
            slots = list(self.vertices[parent])
            for m in mids:
                key = tuple(m.tolist())
                if key not in self.index:
                    self.index[key] = len(self.points)
                    self.points.append(key)
                slots.append(self.index[key])
            self.vertices += [[slots[k] for k in child] for child in _CHILD_VERTS.tolist()]

    def assert_matches(self, mesh):
        np.testing.assert_array_equal(mesh.points, np.array(self.points))
        np.testing.assert_array_equal(mesh.forest().vertices, np.array(self.vertices))


class TestVertexNumbering:
    @given(st.integers(min_value=0, max_value=2**30),
           st.sampled_from(["lshape", "square", "skewed"]))
    @settings(max_examples=30)
    def test_topology_midpoints_match_a_coordinate_dedup(self, seed, domain):
        """Random refinements, with copies branching off, number vertices as a coordinate dict."""
        rng = np.random.default_rng(seed)
        factory = {"lshape": make_lshape, "square": make_unit_square, "skewed": skewed_square}
        mesh = factory[domain]()
        branches = [(mesh, CoordinateNumbering(mesh))]
        for _ in range(6):
            mesh, ref = branches[rng.integers(len(branches))]
            if rng.random() < 0.3:
                branches.append((mesh.copy(), copy.deepcopy(ref)))
                continue
            mesh.refine({c for c in mesh.active_cells() if rng.random() < 0.4})
            ref.follow(mesh)
        for mesh, ref in branches:
            ref.assert_matches(mesh)


class TestFaceTable:
    """Every face-table row checked against the cell geometry alone."""

    @given(st.integers(min_value=0, max_value=2**30), st.sampled_from(["lshape", "square"]))
    @settings(max_examples=20)
    def test_rows_match_brute_force_geometry(self, seed, domain):
        rng = np.random.default_rng(seed)
        mesh = make_lshape() if domain == "lshape" else make_unit_square()
        for _ in range(3):
            mesh.refine({c for c in mesh.active_cells() if rng.random() < 0.35})
        table = mesh.face_topology()
        assert table.cells.tolist() == mesh.active_cells()
        m = len(table.cells)
        edges = mesh.cell_corner_coords(table.cells)[:, np.array(FACE_VERTS)]  # (m, 4, 2, 2)
        level = np.array([mesh.cells[c].level for c in table.cells.tolist()])

        # rows run over (owner, face) in order, with one or two pieces per face
        key = 4 * table.owner + table.face
        assert np.all(np.diff(key) >= 0)
        assert set(np.bincount(key, minlength=4 * m).tolist()) <= {1, 2}

        own = edges[table.owner, table.face]
        # the piece is the finer side's edge: the neighbor's on a FINER row
        across = edges[table.neighbor, np.array(OPPOSITE_FACE)[table.face]]
        piece = np.where((table.kind == FINER)[:, None, None], across, own)
        length = np.linalg.norm(piece[:, 1] - piece[:, 0], axis=-1)
        # the pieces lie on the owner's edge, cover it and ascend along it
        assert np.all(on_segment(piece, own[:, None, 0], own[:, None, 1]))
        covered = np.bincount(key, weights=length, minlength=4 * m)
        full = np.linalg.norm(edges[:, :, 1] - edges[:, :, 0], axis=-1).ravel()
        assert np.allclose(covered, full, rtol=0, atol=1e-14)
        first = np.r_[True, np.diff(key) > 0]
        assert np.array_equal(piece[first, 0], own[first, 0])

        # interior pieces: the neighbor's edge, or half of it on a coarser neighbor
        inner = table.kind != BOUNDARY
        assert np.array_equal(inner, table.neighbor >= 0)
        nb = table.neighbor[inner]
        nb_edge = edges[nb, np.array(OPPOSITE_FACE)[table.face[inner]]]
        kind = table.kind[inner]
        whole = kind != COARSER
        assert np.array_equal(piece[inner][whole], nb_edge[whole])
        assert np.all(on_segment(piece[inner][~whole], nb_edge[~whole, None, 0],
                                 nb_edge[~whole, None, 1]))
        nb_length = np.linalg.norm(nb_edge[:, 1] - nb_edge[:, 0], axis=-1)
        assert np.allclose(length[inner][~whole], 0.5 * nb_length[~whole], rtol=1e-14)
        jump = level[nb] - level[table.owner[inner]]
        assert np.array_equal(jump, np.select([kind == SAME, kind == FINER], [0, 1], -1))
        assert set(kind.tolist()) <= {SAME, COARSER, FINER}
        assert np.all(table.color[inner] == -1)

        # ``half``: the half of the coarser side's edge that the piece covers
        def half_of(edge, half):
            a, b = edge[:, None, 0], edge[:, None, 1]
            return a + 0.5 * (half[:, None, None] + np.array([0, 1])[:, None]) * (b - a)

        coarser, finer = table.kind == COARSER, table.kind == FINER
        coarse_edge = edges[table.neighbor[coarser], np.array(OPPOSITE_FACE)[table.face[coarser]]]
        assert np.allclose(piece[coarser], half_of(coarse_edge, table.half[coarser]),
                           rtol=0, atol=1e-14)
        assert np.allclose(piece[finer], half_of(own[finer], table.half[finer]),
                           rtol=0, atol=1e-14)
        assert set(table.half[coarser | finer].tolist()) <= {0, 1}
        assert np.all(table.half[~(coarser | finer)] == -1)

        # boundary pieces lie on no other cell's edge and carry the domain's color
        bnd = ~inner
        mid = 0.5 * (own[bnd, 0] + own[bnd, 1])
        touching = on_segment(mid[:, None, None], edges[None, :, :, 0], edges[None, :, :, 1])
        touching[np.arange(bnd.sum()), table.owner[bnd]] = False
        assert not touching.any()
        on_left = (domain == "lshape") & (np.abs(mid[:, 0]) < 1e-12)
        colors = np.array(BOUNDARY_COLORS)[table.color[bnd]]
        assert np.array_equal(colors, np.where(on_left, NEUMANN, DIRICHLET))

    def test_is_boundary_face_and_active_across_read_the_table(self, lshape):
        lshape.refine({0})
        for cid in lshape.active_cells():
            for f in range(4):
                across = lshape.active_across(cid, f)
                assert lshape.is_boundary_face(cid, f) == (across == [])
        with pytest.raises(ValueError):
            lshape.active_across(0, 1)  # cell 0 is refined
