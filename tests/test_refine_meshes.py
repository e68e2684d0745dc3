"""The batched refinement gives every array the frozen one-mesh builders give.

:func:`mesh.refine_meshes` refines a batch of meshes in passes over their
stacked forests and builds each new state's face table there;
:func:`fem.build_spaces` then fills each new state's face rule and cell
rules.  ``mesh_oracle`` keeps the one-mesh refinement and builders they
replaced.  Arrays must be equal bit for bit and dtype for dtype, read-only,
and own their data, so that no state keeps a pass's stacked arrays alive.
"""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mesh_oracle
from dwr_diffusion import fem, make_lshape, make_unit_square, mesh as mesh_mod
from dwr_diffusion.fem import build_spaces
from dwr_diffusion.mesh import Forest, checked_marks, refine_meshes
from mesh_state_cases import (
    FINGERPRINT_FILE, golden_fingerprints, random_refine, sheared_lshape,
)

BASES = {"lshape": make_lshape, "sheared": sheared_lshape, "square": make_unit_square}


def same(got, expected, owned=True):
    """Equal shape, dtype and bytes; ``got`` read-only and, if ``owned``, owning its data."""
    expected = np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert not got.flags.writeable and (got.base is None or not owned)


def base_mesh(name, seed, rounds):
    mesh = BASES[name]()
    random_refine(mesh, seed, rounds)
    return mesh


def random_marks(mesh, seed, fraction=0.4):
    ids = mesh.active_ids()
    return ids[np.random.default_rng(seed).random(len(ids)) < fraction]


def assert_state_matches(new, forest, points, owned=True):
    """A new mesh state against the oracle's refined ``forest`` and ``points``; with ``owned``,
    the active cells and the face table that the pass built own their data too."""
    assert Forest._fields == new.forest()._fields
    for got, expected in zip(new.forest(), forest):
        same(got, expected)
    same(new.points, points)
    cells, position = mesh_oracle.active(forest)
    same(new.active_ids(), cells, owned)
    same(new.active_position(), position)
    table = new.face_topology()
    assert table.cells is new.active_ids()
    for got, expected in zip(table, mesh_oracle.face_table(forest)):
        same(got, expected, owned)


def check_batch(meshes, marks):
    """Refine ``meshes`` in one batch; every new state against the oracle on its input."""
    before = [(mesh.fingerprint(), mesh.forest(), mesh.points) for mesh in meshes]
    new = list(refine_meshes(meshes, checked_marks(meshes, marks)))
    assert len(new) == len(meshes)
    for mesh, (fingerprint, forest, points), state, picked in zip(meshes, before, new, marks):
        assert state is not mesh and mesh.fingerprint() == fingerprint  # inputs unchanged
        assert mesh.forest() is forest and mesh.points is points
        assert_state_matches(state, *mesh_oracle.refine(forest, points, picked))
    return new


def check_rules(meshes, degree):
    """Build the spaces of ``meshes`` in one batch; their face and cell rules against the oracle."""
    for mesh, space in zip(meshes, build_spaces(meshes, degree)):
        forest, points = mesh.forest(), mesh.points
        rule = fem.face_rule(space)
        for got, expected in zip(rule, mesh_oracle.face_rule(forest, points)):
            same(got, expected)
        for n in (degree + 1, degree + 2):
            assert mesh.is_cached(("cell_rule", n))
            same(fem.cell_rule(space, n).phys, mesh_oracle.cell_rule_points(forest, points, n))


specs = st.lists(st.tuples(st.sampled_from(sorted(BASES)), st.integers(0, 2**20),
                           st.integers(0, 3)), min_size=1, max_size=6)


@given(specs, st.data())
def test_a_random_batch_matches_the_one_mesh_refinement(specs, data):
    meshes = [base_mesh(*spec) for spec in specs]
    meshes += [meshes[k] for k in data.draw(st.lists(st.integers(0, len(meshes) - 1),
                                                     max_size=2))]
    marks = [random_marks(mesh, seed) for seed, mesh in enumerate(meshes)]
    new = check_batch(meshes, marks)
    check_rules(new, data.draw(st.sampled_from([1, 2])))


def test_a_mesh_listed_twice_is_refined_twice_with_its_own_marks():
    mesh = base_mesh("lshape", 3, 2)
    first, second = check_batch([mesh, mesh], [random_marks(mesh, 1), random_marks(mesh, 2)])
    assert first.fingerprint() != second.fingerprint()


@pytest.mark.parametrize("budget", [1, 40])
def test_a_batch_over_the_cell_budget_runs_in_several_passes(budget, monkeypatch):
    meshes = [base_mesh(name, 7, 3) for name in ("lshape", "sheared", "square", "lshape")]
    passes = []
    refine_pass = mesh_mod._refine_pass

    def counted(meshes, ids):
        passes.append(sum(mesh.n_active_cells for mesh in meshes))
        return refine_pass(meshes, ids)

    monkeypatch.setattr(mesh_mod, "BLOCK_CELLS", budget)
    monkeypatch.setattr(mesh_mod, "_refine_pass", counted)
    new = check_batch(meshes, [random_marks(mesh, 5) for mesh in meshes])
    assert len(passes) > 1 and all(n <= budget or n in [m.n_active_cells for m in meshes]
                                   for n in passes)
    check_rules(new, 1)


def test_an_empty_batch_refines_nothing():
    assert list(refine_meshes([], [])) == []


def test_empty_marks_give_a_new_state_equal_to_the_input():
    mesh = base_mesh("sheared", 2, 2)
    (new,) = check_batch([mesh], [[]])
    assert new.fingerprint() == mesh.fingerprint()


@pytest.mark.parametrize("bad, message", [
    (99, "marked cell 99 is unknown"), (-1, "marked cell -1 is unknown"),
    (0, "marked cell 0 is inactive"), (1.5, "marked cell 1.5 is not an integer cell id"),
])
def test_a_refused_mark_is_named_before_any_mesh_is_refined(bad, message, monkeypatch):
    meshes = [make_lshape().refine([0]) for _ in range(4)]
    marks = [random_marks(mesh, seed) for seed, mesh in enumerate(meshes)]
    marks[2] = [*marks[2].tolist(), bad]
    monkeypatch.setattr(mesh_mod, "_refine_pass", lambda *args: pytest.fail("a mesh was refined"))
    with pytest.raises(ValueError, match=f"^{message}"):
        checked_marks(meshes, marks)
    with pytest.raises(ValueError, match=f"^{message}"):
        meshes[2].refine(marks[2])
    assert meshes[2].n_active_cells == 6


def test_the_mark_named_is_the_smallest_refused_one_of_the_first_refusing_mesh():
    meshes = [make_lshape() for _ in range(3)]
    with pytest.raises(ValueError, match="^marked cell 7 is unknown"):
        checked_marks(meshes, [[0], [9, 7], [-4]])
    with pytest.raises(ValueError, match="^marked cell 1.5 is not an integer cell id"):
        checked_marks(meshes, [[0], [9, 1.5], [-4]])


def test_a_state_that_holds_its_face_rule_gets_no_more_cell_rules():
    """The dual build on the primal build's states adds no rule that no march reads."""
    mesh = base_mesh("lshape", 4, 2)
    marks = checked_marks([mesh, mesh], [random_marks(mesh, 1), random_marks(mesh, 2)])
    meshes = list(refine_meshes([mesh, mesh], marks))
    build_spaces(meshes, 1)
    build_spaces(meshes, 2)
    assert all(not mesh.is_cached(("cell_rule", 4)) for mesh in meshes)


def test_the_one_mesh_refine_caches_the_oracle_face_table():
    mesh = base_mesh("sheared", 9, 2)
    forest, points = mesh_oracle.refine(mesh.forest(), mesh.points, random_marks(mesh, 3))
    mesh.refine(random_marks(mesh, 3))
    assert mesh.is_cached("faces")
    assert_state_matches(mesh, forest, points)


def test_the_golden_cone_run_reaches_its_recorded_slab_meshes():
    with open(FINGERPRINT_FILE, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert golden_fingerprints() == recorded
