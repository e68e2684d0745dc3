"""The block passes over the problem data give every per-slab result bit for bit.

Each pass (the loads before the primal march, the goal residuals after it
and the estimator's data) evaluates the data of consecutive slabs in blocks
of at most ``problem.BLOCK_POINTS`` points.  The references below evaluate
them slab by slab and time by time with a scalar time, through the oracle
cone of ``test_problem``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from dwr_diffusion import dual, estimator, fem, primal, problem
from dwr_diffusion.dual import GoalContext
from dwr_diffusion.fem import FeFunction
from dwr_diffusion.problem import ConeSolution, ControlVolume, ProblemData
from dwr_diffusion.slabs import init_slabs
from test_estimator import stored_slabs
from test_primal import reference_goal_norm_sq, reference_goal_rhs
from test_problem import ReferenceCone, reference_contains

DATA = ProblemData()
CV = ControlVolume()
REFERENCE = ProblemData(solution=ReferenceCone())
REFERENCE_CV = SimpleNamespace(contains=lambda x, t: reference_contains(CV, x, t))
SMALL_BUDGET = 600  # a few slabs of the sheared mesh per block, so blocks end mid-list


def slab_list(mesh, degrees):
    """Nine slabs over (0, 1.25) on the sheared 1-irregular L-shape (with Neumann faces).

    Slab 3 is refined, so one block holds points of several meshes, and
    slab 5 is split in time.  Slab 0 and the last slab lie wholly outside
    the control window (0.25, 1).
    """
    slabs = init_slabs(mesh, 0.0, 1.25, 8, *degrees)
    slabs.refine({3: slabs[3].mesh.active_ids()[:3]})
    slabs.split_slab_in_time(5)
    return slabs


@pytest.fixture(params=[None, SMALL_BUDGET], ids=["budget", "small-budget"])
def budget(request, monkeypatch):
    """The module budget, or a small one that splits every pass into several blocks."""
    if request.param:
        monkeypatch.setattr(problem, "BLOCK_POINTS", request.param)
    return problem.BLOCK_POINTS


def reference_load(slab, data, time_rule):
    """The per-slab load: each time's data evaluated by its own scalar-time calls."""
    space = slab.primal
    if time_rule == "right":
        ts, ws = [slab.interval.t_n], [slab.tau]
    else:
        ts, ws = slab.interval.gauss_points(2)
    b = np.zeros(space.n_dofs)
    for t, w in zip(ts, ws):
        b += (w / slab.tau) * fem.assemble_load_volume(
            space, lambda x: data.rhs_f(x, t), condense=False)
        b += (w / slab.tau) * fem.assemble_load_neumann(
            space, lambda x: data.neumann_h(x, t), condense=False)
    return b


@pytest.mark.parametrize("time_rule", ["gauss", "right"])
@pytest.mark.parametrize("degrees", [(1, 2), (2, 2)])
def test_block_loads_are_the_per_slab_loads_bitwise(sheared_irregular_lshape, degrees, time_rule,
                                                    budget):
    slabs = slab_list(sheared_irregular_lshape, degrees)
    values = primal._load_data(slabs, DATA, time_rule)
    for slab in slabs:
        got = primal._averaged_load(slab, DATA, time_rule, next(values))
        alone = primal._averaged_load(slab, DATA, time_rule)
        expected = reference_load(slab, REFERENCE, time_rule)
        assert got.tobytes() == alone.tobytes() == expected.tobytes()
        neumann = fem.assemble_load_neumann(slab.primal, lambda x: np.ones(x.shape[:-1]), False)
        assert np.any(neumann)  # the Neumann faces take part


@pytest.mark.parametrize("degrees", [(1, 1), (1, 2), (2, 2)])
def test_goal_pass_is_the_per_slab_goal_bitwise(sheared_irregular_lshape, degrees, budget, rng):
    slabs = slab_list(sheared_irregular_lshape, degrees)
    for slab in slabs:
        slab.attach_storage("u", rng.standard_normal(slab.primal.n_dofs))
    parts = [(slab.interval, fem.cell_rule(slab.primal, slab.primal.degree + 2), slab.primal,
              slab.fetch_storage("u")) for slab in slabs]
    residuals = list(primal.goal_residuals(parts, DATA.solution, CV))
    norm, densities = primal.goal_pass(slabs, DATA.solution, CV)
    total = 0.0
    for slab, residual in zip(slabs, residuals):
        u_fn = FeFunction(slab.primal, slab.fetch_storage("u"))
        expected = reference_goal_norm_sq(slab, u_fn, REFERENCE.solution, REFERENCE_CV)
        got = primal.slab_goal_norm_sq(slab, u_fn, DATA.solution, CV, residual)
        alone = primal.slab_goal_norm_sq(slab, u_fn, DATA.solution, CV)
        assert got.hex() == alone.hex() == expected.hex()
        total += expected
    assert norm.hex() == primal.goal_norm(slabs, DATA.solution, CV).hex()
    assert norm.hex() == float(np.sqrt(total)).hex()
    outside = [k for k, residual in enumerate(residuals) if not residual.terms]
    assert outside == [0, 8] and all(len(densities[slabs[k]].cells) == 0 for k in outside)

    shared = GoalContext(norm=norm, cv=CV, solution=DATA.solution, densities=densities)
    alone = GoalContext(norm=norm, cv=CV, solution=DATA.solution)
    reference = GoalContext(norm=norm, cv=REFERENCE_CV, solution=REFERENCE.solution)
    for slab in slabs:
        got = dual.assemble_goal_rhs(slab, shared)
        assert got.tobytes() == dual.assemble_goal_rhs(slab, alone).tobytes()
        assert got.tobytes() == reference_goal_rhs(slab, reference).tobytes()


def test_a_goal_density_keeps_the_dense_time_sum(sheared_irregular_lshape, rng):
    """Only the cells the control volume reaches are kept; written into zeros they give the
    dense sum."""
    slab = slab_list(sheared_irregular_lshape, (1, 2))[4]
    rule = fem.cell_rule(slab.primal, 3)
    u = rng.standard_normal(slab.primal.n_dofs)
    (residual,) = primal.goal_residuals([(slab.interval, rule, slab.primal, u)],
                                        DATA.solution, CV)
    dense = np.zeros(rule.phys.shape[:2])
    for wt, points, values in residual.terms:
        r = np.zeros_like(dense)
        r.ravel()[points] = values
        dense += wt * r
    density = primal.GoalDensity.of(residual)
    assert len(residual.terms) == 3 and 0 < len(density.cells) < len(dense)
    assert np.array_equal(density.cells, np.flatnonzero(dense.any(axis=1)))
    kept = np.zeros_like(dense)
    kept[density.cells] = density.values
    assert kept.tobytes() == dense.tobytes()


@pytest.mark.parametrize("restriction", ["mean", "right"])
@pytest.mark.parametrize("degrees", [(1, 2), (2, 2)])
def test_block_indicators_are_the_per_slab_indicators_bitwise(sheared_irregular_lshape, degrees,
                                                              restriction, budget, rng):
    slabs = stored_slabs(slab_list(sheared_irregular_lshape, degrees), rng)
    etas = estimator.slab_indicators(slabs, DATA.coefficients, DATA, restriction)
    for slab, eta in zip(slabs, etas):
        u, u_prev, z_tm, z_tn = map(slab.fetch_storage, ("u", "u_prev", "z_tm", "z_tn"))
        w_tm, w_tn = estimator.dual_weights(slab, z_tm, z_tn, restriction)
        n = slab.dual.degree + 1
        rule, pieces = fem.cell_rule(slab.dual, n), fem.face_rule(slab.dual)
        ts = slab.interval.gauss_points(2)[0]
        values = ([REFERENCE.rhs_f(rule.phys, t) for t in ts],
                  [REFERENCE.neumann_h(pieces.neumann_points(n), t) for t in ts])
        assert len(pieces.neumann)
        expected = estimator.indicator_terms(slab, u, u_prev, w_tm, w_tn, DATA.coefficients,
                                             DATA, values)
        alone = estimator.indicator_terms(slab, u, u_prev, w_tm, w_tn, DATA.coefficients, DATA)
        assert eta.tobytes() == expected.tobytes() == alone.tobytes()


def counted(monkeypatch, owner, name, log):
    """Replace ``owner.name`` by a wrapper that logs (name, points, scalar time, result)."""
    fn = getattr(owner, name)

    def wrapper(self, x, t):
        out = fn(self, x, t)
        log.append((name, np.broadcast(np.asarray(x)[..., 0], t).size, np.ndim(t) == 0, out))
        return out

    monkeypatch.setattr(owner, name, wrapper)


def recorded_blocks(monkeypatch):
    """Wrap ``problem.blocks`` so that every block it yields is kept, in order."""
    seen, blocks = [], problem.blocks

    def wrapper(units):
        for block in blocks(units):
            seen.append(block)
            yield block

    monkeypatch.setattr(problem, "blocks", wrapper)
    return seen


def test_goal_data_run_once_per_block_and_the_dual_load_reuses_them(sheared_irregular_lshape,
                                                                    budget, rng, monkeypatch):
    slabs = slab_list(sheared_irregular_lshape, (1, 2))
    for slab in slabs:
        slab.attach_storage("u", rng.standard_normal(slab.primal.n_dofs))
    log, seen = [], recorded_blocks(monkeypatch)
    counted(monkeypatch, ControlVolume, "contains", log)
    counted(monkeypatch, ConeSolution, "u", log)
    norm, densities = primal.goal_pass(slabs, DATA.solution, CV)
    contains = [out for name, _, _, out in log if name == "contains"]
    assert len(contains) == len(seen) < 3 * len(slabs)
    assert sum(name == "u" for name, *_ in log) == sum(out.any() for out in contains) > 0
    if budget == SMALL_BUDGET:
        assert len(seen) > 1 and any(len(block.spans) > 1 for block in seen)

    log.clear()
    ctx = GoalContext(norm=norm, cv=CV, solution=DATA.solution, densities=densities)
    for slab in slabs:
        dual.assemble_goal_rhs(slab, ctx)
    assert log == []


def test_load_and_estimator_data_run_once_per_block(sheared_irregular_lshape, budget, rng,
                                                    monkeypatch):
    slabs = stored_slabs(slab_list(sheared_irregular_lshape, (1, 2)), rng)
    log, seen = [], recorded_blocks(monkeypatch)
    counted(monkeypatch, ProblemData, "rhs_f", log)
    counted(monkeypatch, ProblemData, "neumann_h", log)
    for pass_of in (lambda: list(primal._load_data(slabs, DATA, "gauss")),
                    lambda: estimator.slab_indicators(slabs, DATA.coefficients, DATA)):
        log.clear()
        seen.clear()
        pass_of()
        assert len(log) == len(seen) < 4 * len(slabs)


def test_no_data_call_sees_more_points_than_the_budget(sheared_irregular_lshape, rng,
                                                      monkeypatch):
    """Only a block of one slab and time, called with its scalar time, may exceed the budget."""
    monkeypatch.setattr(problem, "BLOCK_POINTS", 100)
    slabs = slab_list(sheared_irregular_lshape, (1, 2))
    log = []
    for owner, name in ((ProblemData, "rhs_f"), (ProblemData, "neumann_h"),
                        (ConeSolution, "u"), (ControlVolume, "contains")):
        counted(monkeypatch, owner, name, log)
    primal.march_forward(slabs, DATA.coefficients, DATA)
    norm, densities = primal.goal_pass(slabs, DATA.solution, CV)
    ctx = GoalContext(norm=norm, cv=CV, solution=DATA.solution, densities=densities)
    dual.march_backward(slabs, DATA.coefficients, ctx)
    estimator.slab_indicators(slabs, DATA.coefficients, DATA)
    sizes = [(points, scalar) for _, points, scalar, _ in log]
    assert all(points <= 100 or scalar for points, scalar in sizes)
    assert any(points > 100 for points, _ in sizes)  # single slab-times above the budget
    assert any(not scalar for _, scalar in sizes)  # and blocks of several
