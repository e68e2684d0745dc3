from types import SimpleNamespace

import numpy as np
import pytest

from dwr_diffusion import dual, fem, primal
from dwr_diffusion.dual import GoalContext, march_backward
from dwr_diffusion.fem import FeFunction, interpolate
from dwr_diffusion.mesh import make_lshape
from dwr_diffusion.primal import goal_norm, march_forward, slab_goal_norm_sq
from dwr_diffusion.problem import Coefficients, ConeSolution, ControlVolume, ProblemData
from dwr_diffusion.slabs import init_slabs
from dwr_diffusion.sparse_la import SolverControl, SolverError

LSHAPE_AREA = 0.75


def stationary(u):
    """A time-constant exact solution with values ``u(x)``."""
    return SimpleNamespace(u=lambda x, t: u(x))


def constant(c):
    return stationary(lambda x: np.full(x.shape[:-1], c))


def bilinear(x):
    return 1.0 + 2.0 * x[..., 0] - 3.0 * x[..., 1] + 0.5 * x[..., 0] * x[..., 1]


@pytest.fixture
def slabs(lshape):
    """Three slabs over (0.1, 0.6), one of them refined to a 1-irregular mesh."""
    slabs = init_slabs(lshape, 0.1, 0.6, 3)
    slabs[1].refine({0})
    slabs[1].refine({slabs[1].mesh.cells[0].children[3]})
    return slabs


EVERYWHERE = SimpleNamespace(contains=lambda x, t: np.ones(x.shape[:-1], dtype=bool))


def test_goal_norm_of_a_zero_solution_against_a_constant(slabs):
    for slab in slabs:
        u_fn = FeFunction(slab.primal, np.zeros(slab.primal.n_dofs))
        assert slab_goal_norm_sq(slab, u_fn, constant(1.7), EVERYWHERE) == pytest.approx(
            1.7**2 * LSHAPE_AREA * slab.tau, rel=1e-14
        )


def test_goal_norm_of_an_interpolated_bilinear_is_zero(slabs):
    for slab in slabs:
        u_fn = interpolate(slab.primal, bilinear)
        assert slab_goal_norm_sq(slab, u_fn, stationary(bilinear), EVERYWHERE) == pytest.approx(
            0.0, abs=1e-26
        )


def test_goal_norm_masks_points_outside_the_control_volume(slabs):
    slab = slabs[1]
    u_fn = FeFunction(slab.primal, np.zeros(slab.primal.n_dofs))
    left_half = SimpleNamespace(contains=lambda x, t: x[..., 0] < 0.5)
    nowhere = SimpleNamespace(contains=lambda x, t: np.zeros(x.shape[:-1], dtype=bool))
    # the part of the L-shape left of x = 0.5 has area 0.5
    assert slab_goal_norm_sq(slab, u_fn, constant(2.0), left_half) == pytest.approx(
        4.0 * 0.5 * slab.tau, rel=1e-14
    )
    assert slab_goal_norm_sq(slab, u_fn, constant(2.0), nowhere) == 0.0


CONE = ProblemData(solution=ConeSolution(), coefficients=Coefficients())


def test_primal_residual_is_that_of_the_solved_system(slabs):
    """The reported residual is taken before the hanging slaves are distributed."""
    assert len(slabs[1].primal.constraints) > 0
    ctrl = SolverControl(max_iterations=5000, relative_tolerance=1e-300, absolute_tolerance=1e-10)
    reports = march_forward(slabs, CONE.coefficients, CONE, ctrl=ctrl)
    # the CG target is the absolute tolerance, as the relative one is negligible
    assert max(r.residual for r in reports) <= 10 * ctrl.absolute_tolerance


@pytest.fixture
def runs(lshape):
    """Five slabs on one coarse space, the second one split in time and the last one refined.

    Forward and backward, the runs of equal (space, tau) are [0], [1, 2],
    [3] and [4]: slabs 0 and 3 have equal spaces and taus but are not
    consecutive.
    """
    slabs = init_slabs(lshape, 0.0, 1.0, 4).split_slab_in_time(1)
    slabs[4].refine({0})
    assert [s.tau for s in slabs] == [0.25, 0.125, 0.125, 0.25, 0.25]
    assert slabs[3].primal is slabs[0].primal is not slabs[4].primal
    return slabs


def solve_both(slabs):
    cv = ControlVolume()
    err = goal_norm(march_forward(slabs, CONE.coefficients, CONE, cv=cv))
    march_backward(slabs, CONE.coefficients, GoalContext(norm=err, cv=cv, solution=CONE.solution))
    return [s.fetch_storage("u") for s in slabs], [s.fetch_storage("z_tm") for s in slabs]


def count_assemblies(monkeypatch):
    calls = {"mass": 0, "stiffness": 0}
    for name in calls:
        original = getattr(fem, f"assemble_{name}")

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(fem, f"assemble_{name}", counted)
    return calls


def test_one_assembly_per_run_of_equal_space_and_tau(runs, monkeypatch):
    calls = count_assemblies(monkeypatch)
    solve_both(runs)
    # four runs in each march
    assert calls == {"mass": 8, "stiffness": 8}


class RebuildEverySlab(primal.ImplicitStep):
    def matrices(self, space, tau):
        self._space = None
        return super().matrices(space, tau)


def test_reused_system_gives_the_rebuilt_solutions(runs, monkeypatch):
    u, z = solve_both(runs)
    monkeypatch.setattr(primal, "ImplicitStep", RebuildEverySlab)
    monkeypatch.setattr(dual, "ImplicitStep", RebuildEverySlab)
    calls = count_assemblies(monkeypatch)
    u_ref, z_ref = solve_both(runs)
    assert calls["stiffness"] == 2 * len(runs)
    assert all(np.array_equal(a, b) for a, b in zip(u, u_ref))
    assert all(np.array_equal(a, b) for a, b in zip(z, z_ref))


def zero(x, t=None):
    return np.zeros(x.shape[:-1])


def test_data_turning_nan_on_a_later_slab_fails_at_once(lshape):
    data = SimpleNamespace(
        rhs_f=lambda x, t: np.full(x.shape[:-1], np.nan if t > 0.5 else 0.0),
        neumann_h=zero, dirichlet_g=zero, initial=zero,
    )
    slabs = init_slabs(lshape, 0.0, 1.0, 4)
    with pytest.raises(SolverError) as exc:
        march_forward(slabs, CONE.coefficients, data)
    assert str(exc.value).startswith("primal solve failed on slab 2: ")
    assert exc.value.iterations == 0
    assert [s.fetch_storage("u") is not None for s in slabs] == [True, True, False, False]


def closed_form(u, dt, grad, laplacian):
    """``ProblemData`` derived from an analytic solution given by its derivatives."""
    return ProblemData(solution=SimpleNamespace(u=u, dt=dt, grad=grad, laplacian=laplacian),
                       coefficients=CONE.coefficients)


def goal_error(levels, n_slabs, data, time_rule):
    mesh = make_lshape()
    for _ in range(levels):
        mesh.refine(mesh.active_ids())
    slabs = init_slabs(mesh, 0.0, 1.0, n_slabs)
    reports = march_forward(slabs, CONE.coefficients, data, cv=EVERYWHERE, time_rule=time_rule)
    return goal_norm(reports)


def orders(errors):
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("time_rule", ["gauss", "right"])
def test_time_error_is_first_order(time_rule):
    # linear in space, so Q1 is exact there and only the time error remains
    data = closed_form(
        u=lambda x, t: np.exp(-t) * (1.0 + x[..., 0] + 2.0 * x[..., 1]),
        dt=lambda x, t: -np.exp(-t) * (1.0 + x[..., 0] + 2.0 * x[..., 1]),
        grad=lambda x, t: np.exp(-t) * np.broadcast_to([1.0, 2.0], x.shape),
        laplacian=zero,
    )
    errors = [goal_error(1, n, data, time_rule) for n in (4, 8, 16, 32)]
    assert all(0.95 <= p <= 1.05 for p in orders(errors)), orders(errors)


def test_space_error_is_second_order():
    # constant in time, so only the space error remains and both load time rules agree
    sx, cx = (lambda x: np.sin(2.0 * x[..., 0] + 1.0)), (lambda x: np.cos(2.0 * x[..., 0] + 1.0))
    sy, cy = (lambda x: np.sin(3.0 * x[..., 1])), (lambda x: np.cos(3.0 * x[..., 1]))
    data = closed_form(
        u=lambda x, t: sx(x) * cy(x),
        dt=zero,
        grad=lambda x, t: np.stack([2.0 * cx(x) * cy(x), -3.0 * sx(x) * sy(x)], axis=-1),
        laplacian=lambda x, t: -13.0 * sx(x) * cy(x),
    )
    errors = [goal_error(levels, 2, data, "gauss") for levels in (1, 2, 3, 4)]
    assert all(1.95 <= p <= 2.05 for p in orders(errors)), orders(errors)
