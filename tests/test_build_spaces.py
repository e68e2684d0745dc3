"""The one-pass space builder gives every array the frozen one-mesh builders give.

:func:`fem.build_spaces` numbers the dofs of several meshes, fills their
geometry, hanging constraints and Dirichlet dofs in one pass;
``space_oracle`` keeps the one-mesh builders it replaced.  Arrays must be
equal bit for bit and dtype for dtype, mesh by mesh.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dwr_diffusion import fem, make_lshape, make_unit_square
from dwr_diffusion.fem import FeSpace, build_spaces
from dwr_diffusion.mesh import DIRICHLET, NEUMANN, QuadMesh
import space_oracle
from mesh_state_cases import random_refine, sheared_lshape

BASES = {"lshape": make_lshape, "sheared": sheared_lshape, "square": make_unit_square}


def same(got, expected):
    """Equal shape, dtype and bytes."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_matches_oracle(space, mesh):
    """``space`` (built on a mesh in the state of ``mesh``) against the oracle on ``mesh``."""
    degree = space.degree
    cells, cell_dofs, n_dofs, support = space_oracle.number(mesh, degree)
    same(space.active_ids, cells)
    same(space.cell_dofs, cell_dofs)
    assert type(space.n_dofs) is int and space.n_dofs == n_dofs
    same(space.support_points, support)
    for got, expected in zip(fem._cell_geometry(space.mesh), space_oracle.cell_geometry(mesh)):
        same(got, expected)
    cs = space.constraints
    oracle = space_oracle.hanging_constraints(mesh, degree, cell_dofs, n_dofs)
    assert cs.n_dofs == oracle.n_dofs
    for got, expected in zip([*cs._P[:3], cs._c, cs.slaves],
                             [*oracle._P[:3], oracle._c, oracle.slaves]):
        same(got, expected)
    assert cs._P.shape == oracle._P.shape
    for color in (DIRICHLET, NEUMANN):
        same(space.boundary_dofs(color), space_oracle.boundary_dofs(mesh, degree, cell_dofs, color))


def refined(base, seed, rounds):
    mesh = BASES[base]()
    random_refine(mesh, seed, rounds)
    return mesh


def check_batch(meshes, degree):
    """Build ``meshes`` in one batch and compare every mesh with the oracle on a copy."""
    copies = {id(mesh): mesh.copy() for mesh in meshes}
    spaces = build_spaces(meshes, degree)
    assert len(spaces) == len(meshes)
    for mesh, space in zip(meshes, spaces):
        assert space.mesh is mesh and space.degree == degree
        assert space is spaces[meshes.index(mesh)]  # a mesh listed twice has one space
        assert mesh.is_cached(("constraints", degree))
        assert mesh.is_cached(("boundary_dofs", degree, DIRICHLET))
        assert_matches_oracle(space, copies[id(mesh)])
    return spaces


@given(st.lists(st.tuples(st.sampled_from(sorted(BASES)), st.integers(0, 2**20),
                          st.integers(0, 3)), min_size=1, max_size=6),
       st.sampled_from([1, 2]), st.data())
def test_a_random_batch_matches_the_one_mesh_builders(specs, degree, data):
    meshes = [refined(*spec) for spec in specs]
    twice = data.draw(st.lists(st.integers(0, len(meshes) - 1), max_size=2))
    check_batch(meshes + [meshes[k] for k in twice], degree)


@pytest.mark.parametrize("degree", [1, 2])
def test_the_named_cases_in_one_batch(degree):
    """The sheared case, a mesh with no hanging face, a mesh listed twice, the coarse square."""
    conforming = make_lshape()
    conforming.refine(conforming.active_ids())
    conforming.refine(conforming.active_ids())
    sheared = sheared_lshape()
    for marks in ([0], [3]):  # the recorded sheared case of ``mesh_state_cases``
        sheared.refine(marks)
    meshes = [refined("lshape", 11, 4), conforming, sheared, make_unit_square()]
    spaces = check_batch(meshes + [sheared], degree)
    assert len(spaces[1].constraints) == 0 and len(spaces[2].constraints) > 0


@pytest.mark.parametrize("degree", [1, 2])
def test_a_batch_over_the_cell_budget_runs_in_several_passes(degree, monkeypatch):
    meshes = [refined(base, 7, 3) for base in ("lshape", "sheared", "square", "lshape")]
    passes = []
    number = fem._number

    def counted(spaces):
        passes.append(sum(space.mesh.n_active_cells for space in spaces))
        return number(spaces)

    monkeypatch.setattr(fem, "BLOCK_CELLS", 40)
    monkeypatch.setattr(fem, "_number", counted)
    check_batch(meshes, degree)
    assert len(passes) > 1 and all(n <= 40 or n in [m.n_active_cells for m in meshes]
                                   for n in passes)


@pytest.mark.parametrize("degree", [1, 2])
def test_the_one_mesh_space_matches_the_oracle(degree):
    mesh = refined("sheared", 5, 3)
    assert_matches_oracle(FeSpace(mesh, degree), mesh.copy())


def test_a_batch_keeps_the_geometry_a_state_holds():
    """Dual spaces are built on meshes whose primal space cached the geometry already."""
    meshes = [refined("lshape", seed, 2) for seed in (1, 2)]
    geometry = [fem._cell_geometry(FeSpace(mesh, 1).mesh) for mesh in meshes]
    build_spaces(meshes, 2)
    assert all(fem._cell_geometry(m) is g for m, g in zip(meshes, geometry))


def test_an_empty_batch_builds_nothing():
    assert build_spaces([], 1) == []


def test_a_batch_refuses_a_cell_that_is_no_parallelogram_by_name():
    trapezoid = QuadMesh([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1.5, 1)],
                         [(0, 1, 3, 4), (1, 2, 4, 5)])
    with pytest.raises(ValueError, match="^active cell 1 is not a parallelogram listed "):
        build_spaces([make_lshape(), trapezoid], 1)
