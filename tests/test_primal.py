from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from dwr_diffusion import dual, fem, primal, sparse_la
from dwr_diffusion.dual import GoalContext, march_backward
from dwr_diffusion.fem import FeFunction, FeSpace, interpolate
from dwr_diffusion.mesh import DIRICHLET, make_lshape
from dwr_diffusion.primal import ImplicitStep, goal_norm, march_forward, slab_goal_norm_sq
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
    slabs.refine({1: {0}})
    slabs.refine({1: {slabs[1].mesh.cells[0].children[3]}})
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
    slabs.refine({4: {0}})
    assert [s.tau for s in slabs] == [0.25, 0.125, 0.125, 0.25, 0.25]
    assert slabs[3].primal is slabs[0].primal is not slabs[4].primal
    return slabs


def solve_both(slabs):
    cv = ControlVolume()
    march_forward(slabs, CONE.coefficients, CONE)
    err = goal_norm(slabs, CONE.solution, cv)
    march_backward(slabs, CONE.coefficients, GoalContext(norm=err, cv=cv, solution=CONE.solution))
    return [s.fetch_storage("u") for s in slabs], [s.fetch_storage("z_tm") for s in slabs]


def test_dual_march_reports_every_slab_in_slab_order(runs):
    cv = ControlVolume()
    march_forward(runs, CONE.coefficients, CONE)
    err = goal_norm(runs, CONE.solution, cv)
    ctx = GoalContext(norm=err, cv=cv, solution=CONE.solution)
    reports = march_backward(runs, CONE.coefficients, ctx)
    assert len(reports) == len(runs)
    assert [r.slab_index for r in reports] == list(range(len(runs)))
    assert all(r.cg_iterations > 0 for r in reports)


@pytest.mark.parametrize("cv", [ControlVolume(), EVERYWHERE], ids=["cone", "everywhere"])
def test_goal_norm_is_the_slab_order_sum_bitwise(runs, cv):
    march_forward(runs, CONE.coefficients, CONE)
    total = 0
    for slab in runs:
        u_fn = FeFunction(slab.primal, slab.fetch_storage("u"))
        total += slab_goal_norm_sq(slab, u_fn, CONE.solution, cv)
    assert goal_norm(runs, CONE.solution, cv).hex() == float(np.sqrt(total)).hex()


def test_the_march_only_solves_and_the_goal_pass_calls_through_the_module(runs, monkeypatch):
    """``goal_norm`` looks ``slab_goal_norm_sq`` up on ``primal``, where a tracer replaces it."""
    calls = []
    monkeypatch.setattr(primal, "slab_goal_norm_sq", lambda *args: calls.append(args) or 1.0)
    reports = march_forward(runs, CONE.coefficients, CONE)
    assert calls == []
    assert all(list(vars(r)) == ["slab_index", "cg_iterations", "residual"] for r in reports)
    assert goal_norm(runs, CONE.solution, EVERYWHERE) == np.sqrt(len(runs))
    assert [args[0] for args in calls] == list(runs)


def count_assemblies(monkeypatch):
    """The list of spaces the marches assemble a step system on, one item per assembly."""
    calls, assemble = [], fem.assemble_csr

    def counted(*args, **kwargs):
        calls.append(args[0])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(fem, "assemble_csr", counted)
    return calls


def test_one_assembly_per_run_of_equal_space_and_tau(runs, monkeypatch):
    calls = count_assemblies(monkeypatch)
    solve_both(runs)
    # four runs in each march, each system scattered once, condensed on the way
    assert len(calls) == 8


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
    assert len(calls) == 2 * len(runs)
    assert all(np.array_equal(a, b) for a, b in zip(u, u_ref))
    assert all(np.array_equal(a, b) for a, b in zip(z, z_ref))


def condense_reference(P, A):
    """P^T A P as a scipy triple product: the condensation's oracle, with empty slave rows."""
    return (P.T @ A @ P).tocsr()


def pin_reference(A, slaves):
    """A plus unit diagonals on ``slaves``, as a scipy sum."""
    unit = np.zeros(A.shape[0])
    unit[slaves] = 1.0
    return (A + sp.diags(unit)).tocsr()


def eliminate_reference(A, dofs):
    """A copy of ``A`` with the rows and columns of ``dofs`` zeroed but for a unit diagonal.

    The Dirichlet elimination's oracle: a scipy CSR copy scaled entrywise plus a diagonal.
    """
    keep = np.ones(A.shape[0])
    keep[dofs] = 0.0
    A = sp.csr_matrix(A, copy=True)
    A.data *= keep[np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))] * keep[A.indices]
    return (A + sp.diags(1.0 - keep)).tocsr()


def reference_step(space, coeff, c, tau, load, x_prev, g, ctrl):
    """The step solved from condensed assemblies, pinned slaves and a condensed load."""
    cs = space.constraints
    M = fem.assemble_mass(space, coeff.rho)
    pinned = pin_reference(c * M + tau * fem.assemble_stiffness(space, coeff.epsilon), cs.slaves)
    dofs = space.boundary_dofs(DIRICHLET)
    rhs = tau * cs.condense_vector(load) + c * (M @ x_prev)
    rhs = sparse_la.lift_dirichlet(pinned, rhs, dofs, g)
    x0 = np.zeros(space.n_dofs)
    x0[dofs] = g
    x, _ = sparse_la.cg_solve(eliminate_reference(pinned, dofs), rhs, ctrl, x0=x0)
    return cs.distribute(x)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("c", [1.0, 2.0])
def test_step_matches_the_pinned_condensed_reference(sheared_irregular_lshape, degree, c, rng):
    """One condensation of the summed system and load solves the step of the condensed parts.

    ``x_prev`` is random, so it does not satisfy the hanging constraints.
    """
    space = FeSpace(sheared_irregular_lshape, degree)
    cs, dofs = space.constraints, space.boundary_dofs(DIRICHLET)
    assert len(cs) and len(dofs)
    tau, coeff = 0.1, Coefficients(epsilon=0.3, rho=1.5)
    load = fem.assemble_load_volume(space, lambda x: np.sin(3.0 * x[..., 0]) + x[..., 1],
                                    condense=False)
    x_prev = rng.standard_normal(space.n_dofs)
    g = 1.0 + space.support_points[dofs, 0] - 0.5 * space.support_points[dofs, 1]
    ctrl = SolverControl(relative_tolerance=1e-14)

    step = ImplicitStep(coeff, c, "primal")
    x, _, _ = step.solve(0, space, tau, load, x_prev, g, ctrl)
    x_ref = reference_step(space, coeff, c, tau, load, x_prev, g, ctrl)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    # the slave and Dirichlet rows and columns of the system are unit ones
    system = sparse_la.to_scipy(step.matrices(space, tau)[1]).toarray()
    fixed = np.union1d(dofs, cs.slaves)
    unit = np.eye(space.n_dofs)[fixed]
    assert np.array_equal(system[fixed], unit) and np.array_equal(system[:, fixed], unit.T)


def zero(x, t=None):
    return np.zeros(x.shape[:-1])


def test_data_turning_nan_on_a_later_slab_fails_at_once(lshape):
    data = SimpleNamespace(
        rhs_f=lambda x, t: np.where(t > 0.5, np.nan, 0.0) + np.zeros(x.shape[:-1]),
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
    both = lambda x, t: (dt(x, t), laplacian(x, t))
    return ProblemData(solution=SimpleNamespace(u=u, grad=grad, dt_and_laplacian=both),
                       coefficients=CONE.coefficients)


def goal_error(levels, n_slabs, data, time_rule):
    mesh = make_lshape()
    for _ in range(levels):
        mesh.refine(mesh.active_ids())
    slabs = init_slabs(mesh, 0.0, 1.0, n_slabs)
    march_forward(slabs, CONE.coefficients, data, time_rule=time_rule)
    return goal_norm(slabs, data.solution, EVERYWHERE)


def orders(errors):
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("time_rule", ["gauss", "right"])
def test_time_error_is_first_order(time_rule):
    # linear in space, so Q1 is exact there and only the time error remains
    data = closed_form(
        u=lambda x, t: np.exp(-t) * (1.0 + x[..., 0] + 2.0 * x[..., 1]),
        dt=lambda x, t: -np.exp(-t) * (1.0 + x[..., 0] + 2.0 * x[..., 1]),
        grad=lambda x, t: np.expand_dims(np.exp(-t), -1) * np.broadcast_to([1.0, 2.0], x.shape),
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


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("c", [1.0, 2.0])
def test_fused_system_matches_the_condensation_chain(sheared_irregular_lshape, degree, c):
    """One scatter of constraint-expanded cell matrices gives P^T (c M + tau A) P and its system.

    The reference is the chain of sparse operations: a raw scatter of each
    matrix, their sum, the triple product and the elimination copy.
    """
    space = FeSpace(sheared_irregular_lshape, degree)
    cs, dofs = space.constraints, space.boundary_dofs(DIRICHLET)
    assert len(cs) and len(dofs)
    tau, coeff = 0.1, Coefficients(epsilon=0.3, rho=1.5)
    K_raw, system_raw, _ = ImplicitStep(coeff, c, "primal").matrices(space, tau)
    K, system = sparse_la.to_scipy(K_raw), sparse_la.to_scipy(system_raw)
    M = fem.assemble_mass(space, coeff.rho, condense=False)
    A = fem.assemble_stiffness(space, coeff.epsilon, condense=False)
    K_ref = condense_reference(sparse_la.to_scipy(cs._P), c * M + tau * A)
    system_ref = eliminate_reference(K_ref, np.union1d(dofs, cs.slaves))
    tol = 1e-14 * np.max(np.abs(K_ref.data))
    for new, ref in ((K, K_ref), (system, system_ref)):
        assert np.max(np.abs((new - ref).toarray())) <= tol
        # equal patterns but for entries that cancel to zero in one sum and to roundoff in the
        # other (c = 2, Q2: exactly 0 against 1.7e-18)
        new, ref = (sp.csr_matrix(m.multiply(abs(m) > tol)) for m in (new, ref))
        assert np.array_equal(new.indptr, ref.indptr) and np.array_equal(new.indices, ref.indices)
    # the system is K's pattern with the whole diagonal stored
    assert system_raw.indices is K_raw.indices and system_raw.indptr is K_raw.indptr
    assert np.all(np.diff(K.indptr) > 0) and np.count_nonzero(K.diagonal() == 0) == len(cs)


@pytest.mark.parametrize("degree", [1, 2])
def test_cellwise_mass_product_is_the_assembled_product(sheared_irregular_lshape, degree, rng):
    space = FeSpace(sheared_irregular_lshape, degree)
    x = rng.standard_normal(space.n_dofs)
    expected = fem.assemble_mass(space, 1.5, condense=False) @ x
    got = fem.mass_product(space, 1.5, x)
    assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


def reference_goal_norm_sq(slab, u_fn, solution, cv):
    """The earlier goal norm, which evaluates u at every point of every Gauss time."""
    space = u_fn.space
    rule = fem.cell_rule(space, space.degree + 2)
    uh = rule.values(space, u_fn.coefficients)
    ts, ws = slab.interval.gauss_points(3)
    total = 0.0
    for t, wt in zip(ts, ws):
        mask = cv.contains(rule.phys, t)
        if not mask.any():
            continue
        diff = solution.u(rule.phys, t) - uh
        total += wt * float(np.sum(rule.JxW * np.where(mask, diff * diff, 0.0)))
    return total


def reference_goal_rhs(slab, ctx):
    """The earlier goal load, with its full-array ``np.where`` and ``np.add.at`` scatter."""
    space = slab.dual
    rule = fem.cell_rule(space, space.degree + 1)
    uh = rule.values(slab.primal, slab.fetch_storage("u"))
    ts, ws = slab.interval.gauss_points(3)
    density = np.zeros_like(uh)
    for t, wt in zip(ts, ws):
        mask = ctx.cv.contains(rule.phys, t)
        if mask.any():
            density += wt * np.where(mask, ctx.solution.u(rule.phys, t) - uh, 0.0)
    local = np.einsum("cq,qi->ci", rule.JxW * density, rule.basis(space.degree).N)
    b = np.zeros(space.n_dofs)
    np.add.at(b, space.cell_dofs, local)
    return b / (slab.tau * ctx.norm)


@pytest.mark.parametrize("degrees", [(1, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("volume", ["moving", "everywhere"])
def test_goal_integrals_are_bit_identical_to_the_reference(sheared_irregular_lshape, degrees,
                                                           volume, rng):
    from test_problem import ReferenceCone, reference_contains

    solution, reference_solution = ConeSolution(), ReferenceCone()
    if volume == "moving":
        cv = ControlVolume()
        reference_cv = SimpleNamespace(contains=lambda x, t: reference_contains(cv, x, t))
    else:
        cv = reference_cv = EVERYWHERE
    slabs = init_slabs(sheared_irregular_lshape, 0.0, 1.25, 10, *degrees)
    partial_cells, empty_slabs = 0, 0
    for slab in slabs:
        u = rng.standard_normal(slab.primal.n_dofs)
        slab.attach_storage("u", u)
        u_fn = FeFunction(slab.primal, u)
        got = slab_goal_norm_sq(slab, u_fn, solution, cv)
        assert got == reference_goal_norm_sq(slab, u_fn, reference_solution, reference_cv)
        ctx = GoalContext(norm=0.37, cv=cv, solution=solution)
        reference_ctx = GoalContext(norm=0.37, cv=reference_cv, solution=reference_solution)
        assert np.array_equal(dual.assemble_goal_rhs(slab, ctx),
                              reference_goal_rhs(slab, reference_ctx))
        empty_slabs += got == 0.0
        for t in slab.interval.gauss_points(3)[0]:
            inside = cv.contains(fem.cell_rule(slab.dual, 3).phys, t).sum(axis=1)
            partial_cells += np.count_nonzero((inside > 0) & (inside < 9))
    # the moving box cuts cells, and the slabs before t = 0.25 or after t = 1 see nothing
    assert (partial_cells > 0, empty_slabs) == ((True, 4) if volume == "moving" else (False, 0))


def test_goal_norm_names_the_slab_without_a_solution(lshape):
    slabs = init_slabs(lshape, 0.0, 1.25, 3)
    slabs[0].attach_storage("u", np.zeros(slabs[0].primal.n_dofs))
    with pytest.raises(ValueError, match=r"^slab 1 holds no stored 'u'$"):
        goal_norm(slabs, CONE.solution, ControlVolume())


def test_dual_march_names_the_slab_without_a_solution_before_solving(lshape):
    slabs = init_slabs(lshape, 0.0, 1.25, 3)
    slabs[2].attach_storage("u", np.zeros(slabs[2].primal.n_dofs))
    ctx = GoalContext(norm=1.0, cv=ControlVolume(), solution=CONE.solution)
    with pytest.raises(ValueError, match=r"^slab 0 holds no stored 'u'$"):
        march_backward(slabs, CONE.coefficients, ctx)
    assert all(s.fetch_storage("z_tm") is None for s in slabs)
