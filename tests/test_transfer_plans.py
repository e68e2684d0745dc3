"""Planned transfers are bitwise the one-pair transfer and the per-call forest walk.

:func:`fem.transfer_plans` walks the stacked forests of a window of pairs
once; ``walk_transfer`` keeps the per-call walk of one pair that it
replaced, as the oracle.  Vectors must be equal bit for bit.
"""

import dataclasses
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dwr_diffusion import dwr_loop, fem, make_lshape, make_unit_square, parse_parameter_file
from dwr_diffusion.fem import FeFunction, FeSpace, tensor_shape, transfer, transfer_plans
from mesh_state_cases import random_refine, sheared_lshape

PARAMETER_FILE = Path(__file__).resolve().parents[1] / "input" / "rotating_cone_2d.prm"
BASES = {"lshape": make_lshape, "sheared": sheared_lshape, "square": make_unit_square}
DEGREES = [(1, 1), (2, 2), (1, 2), (2, 1)]


def child_containing(forest, cells, pts):
    rel = (pts - forest.origin[cells]) / forest.scale[cells, None]
    return forest.children[cells, (rel[:, 0] >= 0.5) + 2 * (rel[:, 1] >= 0.5)]


def walk_transfer(fn, space_to):
    """The transfer of one pair by its own walk of the source forest from the roots."""
    src = fn.space
    fs, ft = src.mesh.forest(), space_to.mesh.forest()
    cells = space_to.active_ids
    centre = ft.origin[cells] + 0.5 * ft.scale[cells, None]
    leaf = ft.root[cells]
    while True:
        go = (fs.children[leaf, 0] >= 0) & (fs.level[leaf] < ft.level[cells])
        if not go.any():
            break
        leaf[go] = child_containing(fs, leaf[go], centre[go])
    lattice = fem._lattice_points(space_to.degree)
    X = (ft.origin[cells, None, :] + ft.scale[cells, None, None] * lattice).reshape(-1, 2)
    leaf = np.repeat(leaf, len(lattice))
    while True:
        go = fs.children[leaf, 0] >= 0
        if not go.any():
            break
        leaf[go] = child_containing(fs, leaf[go], X[go])
    ref = (X - fs.origin[leaf]) / fs.scale[leaf, None]
    coeffs = fn.coefficients[src.cell_dofs[src.mesh.active_position()[leaf]]]
    local = np.einsum("pi,pi->p", tensor_shape(src.degree, ref), coeffs)
    vals = np.empty(space_to.n_dofs)
    vals[space_to.cell_dofs] = local.reshape(len(cells), len(lattice))
    return space_to.constraints.distribute(vals)


def same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def mesh_pool(base, seed):
    """Nested refinements of one coarse mesh (each finer than the one before), a branch of the
    second that is neither finer nor coarser than the others, and an equal copy of the third."""
    rng = np.random.default_rng(seed)
    meshes = [BASES[base]()]
    for _ in range(3):
        meshes.append(meshes[-1].copy())
        random_refine(meshes[-1], int(rng.integers(2**30)), rounds=1, fraction=0.4)
    branch = meshes[1].copy()
    random_refine(branch, int(rng.integers(2**30)), rounds=2, fraction=0.4)
    return meshes + [branch, meshes[2].copy()], rng


def spaces_of(meshes):
    return {(k, degree): FeSpace(mesh, degree) for k, mesh in enumerate(meshes)
            for degree in (1, 2)}


def check_plans(pairs, plans, rng):
    """Each planned transfer of ``pairs`` against the one-pair transfer and the walk."""
    for (src, dst), plan in zip(pairs, plans, strict=True):
        assert (plan is None) == (src is dst)
        fn = FeFunction(src, rng.standard_normal(src.n_dofs))
        got = transfer(fn, dst, plan).coefficients
        same_bits(got, transfer(fn, dst).coefficients)
        same_bits(got, fn.coefficients if src is dst else walk_transfer(fn, dst))


@given(st.sampled_from(sorted(BASES)), st.integers(0, 2**30),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from(DEGREES)),
                min_size=1, max_size=8),
       st.sampled_from([1, 12, 60, fem.BLOCK_CELLS]))
def test_planned_transfers_are_the_one_pair_transfers_bitwise(base, seed, picks, budget):
    """Source finer, coarser, equal, the same mesh and the same space, Q1 and Q2, in windows
    that a small budget splits."""
    meshes, rng = mesh_pool(base, seed)
    spaces = spaces_of(meshes)
    pairs = [(spaces[i, ds], spaces[j, dt]) for i, j, (ds, dt) in picks]
    with mock.patch.object(fem, "BLOCK_CELLS", budget):
        plans = list(transfer_plans(pairs))
    check_plans(pairs, plans, rng)


def test_windows_split_at_the_budget_and_change_no_plan(monkeypatch):
    meshes, rng = mesh_pool("lshape", 7)
    spaces = spaces_of(meshes)
    # forward and backward along the nested meshes, a same-space pair, the branch and the copy
    order = [0, 1, 2, 3, 2, 2, 4, 5, 1]
    pairs = [(spaces[i, 2], spaces[j, 2]) for i, j in zip(order, order[1:])]
    windows = []

    def window_plans(window):
        windows.append(len(window))
        return plan_window(window)

    plan_window = fem._window_plans
    monkeypatch.setattr(fem, "_window_plans", window_plans)
    whole = list(transfer_plans(pairs))
    assert windows == [len(pairs)]
    cells = [len(dst.active_ids) for _, dst in pairs]
    for budget, expected in ((1, [1] * len(pairs)), (max(cells), None)):
        monkeypatch.setattr(fem, "BLOCK_CELLS", budget)
        windows.clear()
        plans = list(transfer_plans(pairs))
        assert sum(windows) == len(pairs) and len(windows) > 1
        assert expected is None or windows == expected
        for plan, plan_whole in zip(plans, whole, strict=True):
            assert (plan is None) == (plan_whole is None)
            for got, want in zip(plan or (), plan_whole or (), strict=True):
                same_bits(got, want)
    check_plans(pairs, whole, rng)


@pytest.mark.parametrize("budget", [None, 40])
def test_every_march_transfer_is_the_one_pair_transfer_bitwise(monkeypatch, budget):
    """Every u_prev and z_tn of a three-loop cone run, as the marches plan them in windows."""
    if budget:
        monkeypatch.setattr(fem, "BLOCK_CELLS", budget)
    config = parse_parameter_file(PARAMETER_FILE)
    config = dataclasses.replace(config, adapt=dataclasses.replace(config.adapt, max_loops=3))
    moved = []

    def check(loop, slabs, estimate, record, final):
        for n in range(1, len(slabs)):
            prev, slab = slabs[n - 1], slabs[n]
            fn = FeFunction(prev.primal, prev.fetch_storage("u"))
            same_bits(slab.fetch_storage("u_prev"), transfer(fn, slab.primal).coefficients)
            moved.append(prev.primal is not slab.primal)
            if moved[-1]:
                same_bits(slab.fetch_storage("u_prev"), walk_transfer(fn, slab.primal))
        for n in range(len(slabs) - 1) if estimate is not None else ():
            slab, succ = slabs[n], slabs[n + 1]
            fn = FeFunction(succ.dual, succ.fetch_storage("z_tm"))
            same_bits(slab.fetch_storage("z_tn"), transfer(fn, slab.dual).coefficients)
            if succ.dual is not slab.dual:
                same_bits(slab.fetch_storage("z_tn"), walk_transfer(fn, slab.dual))

    records = dwr_loop(config, on_loop=check).records
    assert len(records) == 3 and records[-1].dual_dofs > 0
    assert any(moved) and not all(moved)


def two_coarse_meshes():
    lshape, square = make_lshape(), make_unit_square()
    return [FeSpace(mesh, 1) for mesh in (lshape, lshape.copy().refine([0]), square,
                                          square.copy().refine([0]), sheared_lshape())]


@pytest.mark.parametrize("picks, fails", [
    ([(0, 1), (0, 2)], True),  # the second pair is on two coarse meshes
    ([(2, 0), (0, 1)], True),  # so is the first
    ([(0, 1), (2, 4)], True),  # neither mesh is on the first pair's coarse mesh
    ([(0, 1), (2, 3), (3, 2)], False),  # each pair refines one coarse mesh
])
def test_a_pair_on_two_coarse_meshes_raises(picks, fails):
    spaces = two_coarse_meshes()
    pairs = [(spaces[i], spaces[j]) for i, j in picks]
    if fails:
        with pytest.raises(ValueError, match="^transfer needs two refinements of the same "
                                             "coarse mesh$"):
            list(transfer_plans(pairs))
    else:
        check_plans(pairs, list(transfer_plans(pairs)), np.random.default_rng(3))

