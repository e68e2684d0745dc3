import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dwr_diffusion import marking
from dwr_diffusion.dual import GoalContext, march_backward
from dwr_diffusion.estimator import ErrorEstimate, accumulate
from dwr_diffusion.mesh import make_lshape
from dwr_diffusion.primal import goal_norm, march_forward
from dwr_diffusion.problem import Coefficients, ConeSolution, ControlVolume, ProblemData
from dwr_diffusion.slabs import init_slabs
from dwr_diffusion.sparse_la import SolverControl, SolverError


def estimate_of(eta_slabs):
    return ErrorEstimate([np.zeros(0) for _ in eta_slabs], list(eta_slabs), float(sum(eta_slabs)))


def marked(indices):
    """The marks as a set, after checking they are one integer array."""
    assert isinstance(indices, np.ndarray) and indices.dtype.kind == "i" and indices.ndim == 1
    return set(indices.tolist())


def on_active_cells(slab, by_id):
    """Indicator array in ``active_ids()`` order from a value for every active cell id."""
    assert sorted(by_id) == slab.mesh.active_cells()
    eta = np.empty(slab.mesh.n_active_cells)
    eta[slab.mesh.active_position()[list(by_id)]] = list(by_id.values())
    return eta


@pytest.fixture
def slab(lshape):
    return init_slabs(lshape, 0.0, 1.0, 1)[0]


@pytest.fixture
def refined_slab(lshape):
    """Active ids 1..6: root 0 is replaced by its children 3..6."""
    slabs = init_slabs(lshape, 0.0, 1.0, 1)
    slabs.refine({0: [0]})
    return slabs[0]


class TestFractions:
    @pytest.mark.parametrize("skip", [False, True])
    def test_theta_zero_marks_nothing(self, slab, skip):
        assert marked(marking.mark_time_slabs(estimate_of([1.0, 2.0, 3.0]), 0.0, skip)) == set()
        indicators = np.array([1.0, -2.0, 0.5])
        assert marked(marking.mark_space_cells(slab, indicators, False, 0.0, 0.0, skip)) == set()

    def test_theta_one_marks_everything(self, slab):
        assert marked(marking.mark_time_slabs(estimate_of([1.0, 0.0, 3.0]), 1.0)) == {0, 1, 2}
        indicators = np.array([1.0, -2.0, 0.0])
        assert marked(marking.mark_space_cells(slab, indicators, False, 1.0, 0.5)) == {0, 1, 2}

    def test_time_marked_slab_uses_the_smaller_fraction(self, slab):
        indicators = np.array([1.0, -2.0, 0.5])
        assert marked(marking.mark_space_cells(slab, indicators, False, 1.0, 0.3)) == {0, 1, 2}
        assert marked(marking.mark_space_cells(slab, indicators, True, 1.0, 0.3)) == {1}

    def test_equal_values_break_ties_by_index(self, refined_slab):
        # ceil(0.5 * 4) = 2 of three equal slab sums: the two lowest indices
        assert marked(marking.mark_time_slabs(estimate_of([1.0, 2.0, 2.0, 2.0]), 0.5)) == {1, 2}
        # |eta| ties between signs: ids ascending, whatever the sign
        indicators = on_active_cells(
            refined_slab, {6: 0.5, 3: -0.5, 5: 0.5, 1: 0.1, 2: -0.05, 4: 0.05}
        )
        marks = marking.mark_space_cells(refined_slab, indicators, False, 0.5, 0.5)
        assert marked(marks) == {3, 5, 6}
        marks = marking.mark_space_cells(refined_slab, indicators, False, 0.3, 0.3)
        assert marked(marks) == {3, 5}

    def test_skip_zero_with_all_zero_indicators(self, slab):
        zeros = np.array([0.0, -0.0, 0.0])
        assert marked(marking.mark_space_cells(slab, zeros, False, 1.0, 1.0, skip_zero=True)) == set()
        assert marked(marking.mark_space_cells(slab, zeros, False, 1.0, 1.0)) == {0, 1, 2}
        estimate = accumulate([zeros, zeros])
        assert marked(marking.mark_time_slabs(estimate, 1.0, skip_zero=True)) == set()
        assert marked(marking.mark_time_slabs(estimate, 1.0)) == {0, 1}

    @pytest.mark.parametrize(
        "field,value", [("theta_tau", 1.5), ("theta_h1", -0.1), ("theta_h2", 0.5),
                        ("tol", math.nan), ("tol", math.inf)]
    )
    def test_fractions_out_of_range_rejected(self, field, value):
        """A NaN tol would never be met and spend the loop budget; an infinite one is met at
        loop 1.  The error names the field."""
        with pytest.raises(ValueError, match=field):
            marking.AdaptParams(**{field: value})


def sorted_selection(values, fraction, skip_zero):
    """The selection rule as a sort of all positions by (-value, position)."""
    order = sorted(range(len(values)), key=lambda k: (-values[k], k))
    top = order[:math.ceil(fraction * len(values))]
    return [k for k in top if values[k] > 0.0] if skip_zero else top


# few distinct magnitudes, both zeros and both signs, so ties are frequent
tied_values = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300]) | st.floats(-4.0, 4.0),
    max_size=40,
)


@given(values=tied_values, fraction=st.floats(0.0, 1.0), skip_zero=st.booleans())
def test_selection_is_the_sort_by_value_then_position(values, fraction, skip_zero):
    picked = marking._top_fraction(np.array(values), fraction, skip_zero)
    assert picked.tolist() == sorted_selection(values, fraction, skip_zero)


def test_single_slab_adaptation(lshape):
    slabs = init_slabs(lshape, 0.0, 1.0, 1)
    marks = marking.mark_space_cells(slabs[0], np.array([3.0, 1.0, 2.0]), True, 0.5, 0.3)
    assert marked(marks) == {0}
    time_marks = marking.mark_time_slabs(estimate_of([0.2]), 0.5)
    assert marked(time_marks) == {0}
    marking.execute_adaptation(slabs, time_marks, {0: marks})
    assert len(slabs) == 2
    assert [(s.interval.t_m, s.interval.t_n) for s in slabs] == [(0.0, 0.5), (0.5, 1.0)]
    first, second = slabs
    assert first.mesh is second.mesh and first.primal is second.primal
    assert first.mesh.n_active_cells == 6
    assert lshape.n_active_cells == 3


@pytest.mark.parametrize("time_marks, space_marks, message", [
    ([1, 1], {0: {0}}, r"time mark 1 is repeated"),
    (np.array([2, 0, 2]), {}, r"time mark 2 is repeated"),
    ([-1], {0: {0}}, r"time mark -1 is not a slab index in \[0, 3\)"),
    ({0, 3}, {}, r"time mark 3 is not a slab index in \[0, 3\)"),
    ([], {7: [0]}, r"space-mark key 7 is not a slab index in \[0, 3\)"),
    ([1], {0: {0}, -1: {0}}, r"space-mark key -1 is not a slab index in \[0, 3\)"),
    ([1.0], {0: {0}}, r"time mark 1.0 is not a slab index in \[0, 3\)"),
    ([True], {0: {0}}, r"time mark True is not a slab index in \[0, 3\)"),
])
def test_marks_that_do_not_name_one_slab_each_fail_before_any_change(
        lshape, time_marks, space_marks, message):
    slabs = init_slabs(lshape, 0.0, 1.0, 3)
    u = slabs[0].attach_storage("u", np.zeros(slabs[0].primal.n_dofs))
    before = [(s.interval, s.mesh, s.primal) for s in slabs]
    with pytest.raises(ValueError, match=message):
        marking.execute_adaptation(slabs, time_marks, space_marks)
    assert [(s.interval, s.mesh, s.primal) for s in slabs] == before
    assert slabs[0].fetch_storage("u") is u


@pytest.mark.parametrize("marks", [[0, 1.5], [True], np.array(["1"])])
def test_space_marks_that_are_not_integers_fail_before_any_change(lshape, marks):
    slabs = init_slabs(lshape, 0.0, 1.0, 3)
    for slab in slabs:
        slab.attach_storage("u", np.zeros(slab.primal.n_dofs))
    with pytest.raises(ValueError, match=r"marked cell .* is not an integer cell id"):
        marking.execute_adaptation(slabs, [0], {0: [0], 2: marks})
    assert len(slabs) == 3 and all(s.mesh is slabs[0].mesh for s in slabs)
    assert all(s.fetch_storage("u") is not None for s in slabs)


@pytest.mark.parametrize("space_marks", [{1: [0.0, 2.0]}, {1: np.array([0, 2], dtype=np.int32)}])
def test_integer_valued_space_marks_refine_as_ints(lshape, space_marks):
    slabs = init_slabs(lshape, 0.0, 1.0, 3)
    marking.execute_adaptation(slabs, [], space_marks)
    assert slabs[1].mesh.active_cells() == make_lshape().refine([0, 2]).active_cells()


@pytest.mark.parametrize("time_marks", [{2, 0}, [0, 2], np.array([2, 0]), np.array([0, 2])])
def test_time_marks_as_a_set_a_list_or_an_index_array_split_the_same_slabs(lshape, time_marks):
    slabs = init_slabs(lshape, 0.0, 1.0, 3)
    marking.execute_adaptation(slabs, time_marks, {np.int64(1): np.array([0])})
    ends = [s.interval.t_n for s in slabs]
    assert ends == pytest.approx([1 / 6, 1 / 3, 2 / 3, 5 / 6, 1.0], rel=0.0, abs=1e-15)
    assert [s.mesh.n_active_cells for s in slabs] == [3, 3, 6, 3, 3]


def driver_block(slabs, estimate, adapt):
    """The marking the driver did inline before :func:`marking.adapt_slabs`: the oracle."""
    skip = adapt.skip_zero_indicators
    time_marks = marking.mark_time_slabs(estimate, adapt.theta_tau, skip_zero=skip)
    space_marks = {
        k: marking.mark_space_cells(slab, estimate.cell_indicators[k], k in time_marks,
                                    adapt.theta_h1, adapt.theta_h2, skip_zero=skip)
        for k, slab in slabs.iterate_forward()
    }
    marking.execute_adaptation(slabs, time_marks, space_marks)
    return time_marks, space_marks


def four_slabs():
    mesh = make_lshape()
    mesh.refine(mesh.active_ids())
    slabs = init_slabs(mesh, 0.0, 1.0, 4)
    slabs.refine({2: slabs[2].mesh.active_ids()[:2]})
    return slabs


@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("thetas", [(0.5, 0.3, 0.15), (1.0, 1.0, 0.0), (0.2, 0.6, 0.6)])
def test_adapt_slabs_marks_and_refines_as_the_driver_block_did(skip, thetas, rng, monkeypatch):
    params = marking.AdaptParams(*thetas, skip_zero_indicators=skip)
    expected, slabs = four_slabs(), four_slabs()
    # a zero slab and zero cells, so that skipping zeros changes the marks
    per_slab = [rng.standard_normal(s.mesh.n_active_cells) * (k > 0)
                * (rng.random(s.mesh.n_active_cells) < 0.7) for k, s in enumerate(expected)]
    estimate = accumulate(per_slab)
    time_marks, space_marks = driver_block(expected, estimate, params)
    seen, execute = [], marking.execute_adaptation
    monkeypatch.setattr(marking, "execute_adaptation",
                        lambda *args: seen.append(args[1:]) or execute(*args))
    marking.adapt_slabs(slabs, estimate, params, loop=3)
    [(got_time, got_space)] = seen
    assert marked(got_time) == marked(time_marks)
    assert got_space.keys() == space_marks.keys()
    assert all(marked(got_space[k]) == marked(space_marks[k]) for k in space_marks)
    assert [(s.interval.t_m, s.interval.t_n) for s in slabs] == [
        (s.interval.t_m, s.interval.t_n) for s in expected]
    assert [s.mesh.fingerprint() for s in slabs] == [s.mesh.fingerprint() for s in expected]


class TestSolverFailures:
    """A solver that stops after one CG iteration fails loudly, naming the march and the slab."""

    @pytest.fixture
    def setup(self):
        mesh = make_lshape()
        mesh.refine(set(mesh.active_cells()))
        mesh.refine(set(mesh.active_cells()))
        slabs = init_slabs(mesh, 0.0, 1.0, 5)  # the goal window (0.25, 1) reaches the last slab
        coeff = Coefficients()
        data = ProblemData(solution=ConeSolution(), coefficients=coeff)
        return slabs, coeff, data, ControlVolume()

    def test_primal(self, setup):
        slabs, coeff, data, _ = setup
        with pytest.raises(SolverError, match="primal solve failed on slab 0"):
            march_forward(slabs, coeff, data, ctrl=SolverControl(max_iterations=1))

    def test_dual(self, setup):
        slabs, coeff, data, cv = setup
        march_forward(slabs, coeff, data)
        err = goal_norm(slabs, data.solution, cv)
        ctx = GoalContext(norm=err, cv=cv, solution=data.solution)
        with pytest.raises(SolverError, match="dual solve failed on slab 4") as info:
            march_backward(slabs, coeff, ctx, ctrl=SolverControl(max_iterations=1))
        assert info.value.iterations == 1 and np.isfinite(info.value.residual)
