import gc
import weakref

import numpy as np
import pytest

from dwr_diffusion import fem
from dwr_diffusion.fem import FeSpace
from dwr_diffusion.marking import execute_adaptation
from dwr_diffusion.mesh import DIRICHLET, make_lshape
from dwr_diffusion.slabs import Slab, SlabList, TimeInterval, init_slabs


class TestTimeInterval:
    def test_tau(self):
        assert TimeInterval(0.25, 0.5).tau == 0.25

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(0.5, 0.5)
        with pytest.raises(ValueError):
            TimeInterval(0.5, 0.25)

    def test_gauss_points_integrate_linear(self):
        iv = TimeInterval(1.0, 3.0)
        ts, ws = iv.gauss_points(2)
        assert np.sum(ws) == pytest.approx(2.0, abs=1e-14)
        assert np.sum(ws * ts) == pytest.approx(4.0, abs=1e-13)  # int t over (1,3)


class TestInit:
    def test_benchmark_partition(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.25, 5)
        assert len(slabs) == 5
        for slab in slabs:
            assert slab.tau == pytest.approx(0.25, abs=1e-15)
        assert [s.interval.t_m for s in slabs] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_single_slab(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.0, 1)
        assert len(slabs) == 1
        assert slabs[0].interval.t_m == 0.0 and slabs[0].interval.t_n == 1.0

    def test_endpoints_exactly_shared(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.25, 7)
        for a, b in zip(slabs, slabs[1:]):
            assert a.interval.t_n == b.interval.t_m

    def test_slabs_share_one_copy_of_the_coarse_mesh(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.0, 3)
        first = slabs[0]
        assert first.mesh is not lshape
        for slab in slabs:
            assert slab.mesh is first.mesh
            assert slab.primal is first.primal and slab.dual is first.dual
        slabs.refine({0: {0}})
        assert slabs[0].mesh.n_active_cells == 6
        assert slabs[1].mesh.n_active_cells == 3
        assert lshape.n_active_cells == 3

    @pytest.mark.parametrize("marks", [[1.5], [True], ["1"]])
    def test_refusing_marks_leaves_the_slab_unchanged(self, lshape, marks):
        slabs = init_slabs(lshape, 0.0, 1.0, 2)
        slab = slabs[0]
        mesh, primal = slab.mesh, slab.primal
        slab.attach_storage("u", np.zeros(primal.n_dofs))
        with pytest.raises(ValueError, match=rf"marked cell {marks[0]!r} is not an integer"):
            slabs.refine({0: marks})
        assert slab.mesh is mesh is slabs[1].mesh and slab.primal is primal
        assert slab.fetch_storage("u") is not None and mesh.n_active_cells == 3

    def test_invalid_args(self, lshape):
        with pytest.raises(ValueError):
            init_slabs(lshape, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            init_slabs(lshape, 1.0, 1.0, 3)


class TestSplit:
    def test_bisection(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.25, 5)
        slabs.split_slab_in_time(1)
        assert len(slabs) == 6
        assert slabs[1].interval == TimeInterval(0.25, 0.375)
        assert slabs[2].interval == TimeInterval(0.375, 0.5)

    def test_adaptation_shares_meshes_until_refined(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.0, 3)
        execute_adaptation(slabs, time_marks={2}, space_marks={0: {0}})
        refined, shared, left, right = slabs
        # the unmarked slab and both halves of the split one share everything
        for slab in (left, right):
            assert slab.mesh is shared.mesh
            assert slab.primal is shared.primal and slab.dual is shared.dual
        assert shared.mesh.n_active_cells == 3
        # the refined slab has its own mesh and spaces
        assert refined.mesh is not shared.mesh
        assert refined.primal is not shared.primal and refined.dual is not shared.dual
        assert refined.primal.mesh is refined.mesh and refined.dual.mesh is refined.mesh
        assert refined.mesh.n_active_cells == 6
        assert lshape.n_active_cells == 3
        # refining a shared mesh behind the slabs' back invalidates every sibling's spaces
        left.mesh.refine({0})
        with pytest.raises(RuntimeError):
            right.primal.dofs_on_cell(1)
        with pytest.raises(RuntimeError):
            shared.dual.dofs_on_cell(1)
        refined.primal.dofs_on_cell(refined.primal.active_ids[0])

    def test_split_halves_share_one_dual_built_on_first_use(self, lshape, monkeypatch):
        degrees = []
        init = FeSpace.__init__

        def counted(self, mesh, degree):
            degrees.append(degree)
            init(self, mesh, degree)

        monkeypatch.setattr(FeSpace, "__init__", counted)
        slabs = init_slabs(lshape, 0.0, 1.0, 3).split_slab_in_time(1)
        assert degrees == [1]  # the shared primal space; no dual yet
        dual = slabs[2].dual
        assert all(slab.dual is dual for slab in slabs) and degrees == [1, 2]
        slabs.refine({0: {0}})  # the new primal space comes from the batched build
        assert degrees == [1, 2] and slabs[0].dual is not dual
        assert slabs[0].dual.mesh is slabs[0].mesh and degrees == [1, 2, 2]

    def test_split_halves_share_one_dual_from_the_batched_build(self, lshape, monkeypatch):
        slabs = init_slabs(lshape, 0.0, 1.0, 3)
        batches = []
        build = fem.build_spaces

        def counted(meshes, degree):
            batches.append((len(meshes), degree))
            return build(meshes, degree)

        def one_at_a_time(self, mesh, degree):
            pytest.fail(f"a space of degree {degree} was built one at a time")

        monkeypatch.setattr(fem, "build_spaces", counted)
        monkeypatch.setattr(FeSpace, "__init__", one_at_a_time)
        execute_adaptation(slabs, time_marks={0, 2}, space_marks={0: {0}, 1: {1}})
        assert batches == [(2, 1)]
        slabs.build_dual_spaces()
        # the halves of the refined slab 0, the refined slab 1, the halves of the coarse slab 2
        assert batches == [(2, 1), (3, 2)]
        refined, sibling, alone, coarse, coarse_sibling = slabs
        assert refined.dual is sibling.dual and coarse.dual is coarse_sibling.dual
        assert len({id(slab.dual) for slab in slabs}) == 3
        assert all(slab.dual.mesh is slab.mesh and slab.dual.degree == 2 for slab in slabs)
        slabs.build_dual_spaces()  # nothing is left to build
        assert batches == [(2, 1), (3, 2)] and slabs.spaces_s > 0.0

    def test_refused_marks_leave_every_slab_unchanged(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.0, 3)
        mesh, coarse = slabs[0].mesh, slabs[0].primal
        with pytest.raises(ValueError, match="marked cell 99 is unknown"):
            slabs.refine({0: [0], 1: [99], 2: [1]})
        assert all(slab.mesh is mesh and slab.primal is coarse for slab in slabs)
        assert mesh.n_active_cells == 3

    def test_adaptation_frees_the_old_state_without_the_cycle_collector(self, lshape):
        """No mesh <-> space reference cycle keeps a refined-away state alive."""
        slabs = init_slabs(lshape, 0.0, 1.0, 2)
        slabs.build_dual_spaces()
        for space in (slabs[0].primal, slabs[0].dual):
            space.constraints, space.boundary_dofs(DIRICHLET), fem.face_rule(space)
        del space
        old = weakref.ref(slabs[0].mesh)
        gc.disable()
        try:
            execute_adaptation(slabs, time_marks=[], space_marks={0: [0], 1: [1]})
            assert old() is None
        finally:
            gc.enable()

    def test_storage_cleared_on_split(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.0, 2)
        slabs[0].attach_storage("u", np.zeros(slabs[0].primal.n_dofs))
        slabs.split_slab_in_time(0)
        assert slabs[0].fetch_storage("u") is None

    def test_partition_after_many_splits(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.25, 5)
        for k in (4, 2, 2, 0):
            slabs.split_slab_in_time(k)
        for a, b in zip(slabs, slabs[1:]):
            assert a.interval.t_n == b.interval.t_m
        total = sum(s.tau for s in slabs)
        assert total == pytest.approx(1.25, abs=1e-14)

    @pytest.mark.parametrize("k", [-1, -3, 3, 7])
    def test_split_outside_the_list_fails_naming_k_and_leaves_the_list(self, k):
        slabs = init_slabs(make_lshape(), 0.0, 1.0, 3)
        before = list(slabs.slabs)
        with pytest.raises(IndexError, match=rf"slab index {k} is not in \[0, 3\)"):
            slabs.split_slab_in_time(k)
        assert slabs.slabs == before


class TestIteration:
    def test_forward_order(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.25, 5)
        t_ms = [s.interval.t_m for _, s in slabs.iterate_forward()]
        assert t_ms == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_backward_is_reverse(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.25, 5)
        fwd = [k for k, _ in slabs.iterate_forward()]
        bwd = [k for k, _ in slabs.iterate_backward()]
        assert bwd == fwd[::-1]

    def test_order_after_split(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.25, 5)
        slabs.split_slab_in_time(1)
        t_ms = [s.interval.t_m for _, s in slabs.iterate_forward()]
        assert t_ms == sorted(t_ms)
        assert len(t_ms) == 6


class TestStorage:
    def test_attach_fetch_same_data(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.0, 1)
        vec = np.arange(slabs[0].primal.n_dofs, dtype=float)
        slabs[0].attach_storage("u", vec)
        fetched = slabs[0].fetch_storage("u")
        assert fetched is vec

    def test_fetch_before_attach_absent(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.0, 1)
        assert slabs[0].fetch_storage("u") is None

    def test_wrong_length_rejected(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            slabs[0].attach_storage("u", np.zeros(3))
        with pytest.raises(ValueError):
            slabs[0].attach_storage("z_tm", np.zeros(slabs[0].primal.n_dofs + 1))

    @pytest.mark.parametrize("tag", ["u", "z_tn"])
    def test_a_2d_array_is_rejected_naming_its_shape(self, lshape, tag):
        slab = init_slabs(lshape, 0.0, 1.0, 1)[0]
        n = (slab.primal if tag == "u" else slab.dual).n_dofs
        with pytest.raises(ValueError, match=rf"expects shape \({n},\), got \({n}, 2\)"):
            slab.attach_storage(tag, np.zeros((n, 2)))
        with pytest.raises(ValueError, match=rf"got \(1, {n}\)"):
            slab.attach_storage(tag, np.zeros((1, n)))
        assert slab.fetch_storage(tag) is None

    def test_unknown_tag_rejected(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.0, 1)
        with pytest.raises(KeyError):
            slabs[0].attach_storage("bogus", np.zeros(8))
        with pytest.raises(KeyError):
            slabs[0].fetch_storage("bogus")

    def test_dual_tag_uses_dual_space(self, lshape):
        slabs = init_slabs(lshape, 0.0, 1.0, 1)
        slabs[0].attach_storage("z_tm", np.zeros(slabs[0].dual.n_dofs))
        assert slabs[0].fetch_storage("z_tm").shape == (21,)


class TestMemoryContract:
    def test_forward_march_touches_only_previous_slab(self, lshape, monkeypatch):
        from dwr_diffusion import primal, problem
        from dwr_diffusion.slabs import Slab

        slabs = init_slabs(lshape, 0.0, 1.25, 5)
        index_of = {id(s): k for k, s in enumerate(slabs)}
        log = []
        original = Slab.fetch_storage

        def spy(self, tag):
            log.append((index_of[id(self)], tag))
            return original(self, tag)

        monkeypatch.setattr(Slab, "fetch_storage", spy)
        data = problem.ProblemData()
        primal.march_forward(slabs, data.coefficients, data)
        # step n may read the previous slab's solution, nothing else
        assert log == [(k, "u") for k in range(4)]


BAD_MARKS = [(99, "marked cell 99 is unknown"), (0, "marked cell 0 is inactive"),
             (1.5, "marked cell 1.5 is not an integer cell id"),
             (True, "marked cell True is not an integer cell id")]


def stored_three_slabs():
    """Three slabs on the L-shape with cell 0 refined (so 0 is inactive), each holding its dual
    space and a stored vector."""
    slabs = init_slabs(make_lshape().refine([0]), 0.0, 1.0, 3)
    slabs.build_dual_spaces()
    for slab in slabs:
        slab.attach_storage("u", np.zeros(slab.primal.n_dofs))
    return slabs


def state(slabs):
    return [(s.interval, s.mesh, s.primal, s._dual, s._dual[0], s.fetch_storage("u"))
            for s in slabs]


def assert_unchanged(slabs, before):
    assert len(slabs) == len(before)
    for slab, (interval, mesh, primal, dual, space, u) in zip(slabs, before):
        assert slab.interval == interval and slab.mesh is mesh and slab.primal is primal
        assert slab._dual is dual and dual[0] is space and len(dual) == 1
        assert slab.fetch_storage("u") is u
    assert before[0][1].n_active_cells == 6


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("bad, message", BAD_MARKS, ids=["unknown", "inactive", "float", "bool"])
@pytest.mark.parametrize("through", ["refine", "execute_adaptation"])
def test_a_refused_mark_on_any_slab_leaves_every_slab_unchanged(bad, message, where, through):
    slabs = stored_three_slabs()
    before = state(slabs)
    marks = {k: [2] for k in range(3)}
    marks[where] = [2, bad]
    with pytest.raises(ValueError, match=f"^{message}"):
        if through == "refine":
            slabs.refine(marks)
        else:
            execute_adaptation(slabs, time_marks=[0, 2], space_marks=marks)
    assert_unchanged(slabs, before)


@pytest.mark.parametrize("key", [-1, 3, 5, 1.0, True], ids=["-1", "3", "5", "float", "bool"])
@pytest.mark.parametrize("marks", [[1], []], ids=["marks", "empty"])
def test_a_space_mark_key_that_is_not_a_slab_index_fails_before_any_change(key, marks):
    slabs = stored_three_slabs()
    before = state(slabs)
    with pytest.raises(ValueError, match=rf"^space-mark key {key} is not a slab index in \[0, 3\)"):
        slabs.refine({0: [1], key: marks})
    assert_unchanged(slabs, before)


def test_a_slab_with_empty_marks_keeps_its_mesh_and_spaces():
    slabs = stored_three_slabs()
    before = state(slabs)
    slabs.refine({0: [], 1: np.array([], dtype=int), 2: [1]})
    assert_unchanged(slabs[:2], before[:2])
    assert slabs[2].mesh is not before[2][1] and slabs[2].mesh.n_active_cells == 9
