from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dwr_diffusion import estimator, fem
from dwr_diffusion.fem import interpolate
from dwr_diffusion.mesh import (
    BOUNDARY, BOUNDARY_COLORS, COARSER, DIRICHLET, FINER, NEUMANN, SAME, QuadMesh,
)
from dwr_diffusion.problem import Coefficients, ConeSolution, ProblemData
from dwr_diffusion.slabs import Slab, SlabList, TimeInterval
from mesh_state_cases import build, cases


@pytest.fixture
def slab(sheared_irregular_lshape):
    return Slab(TimeInterval(0.1, 0.35), sheared_irregular_lshape, 1, 2)


def cone_inputs(slab):
    """Primal states from the rotating cone and smooth dual weights."""
    sol = ConeSolution()
    coeff = Coefficients()
    data = ProblemData(solution=sol, coefficients=coeff)
    u = interpolate(slab.primal, lambda x: sol.u(x, 0.35)).coefficients
    u_prev = interpolate(slab.primal, lambda x: sol.u(x, 0.1)).coefficients
    w_tm = interpolate(
        slab.dual, lambda x: np.sin(3.0 * x[..., 0] + 1.0) * np.cos(2.0 * x[..., 1])
    ).coefficients
    w_tn = interpolate(
        slab.dual, lambda x: np.cos(4.0 * x[..., 0] * x[..., 1] + 0.5)
    ).coefficients
    return u, u_prev, w_tm, w_tn, coeff, data


# signed indicators of cone_inputs on the sheared irregular L-shape, recorded
# from the per-face reference implementation
GOLDEN = {
    1: -0.0026038420915473716,
    2: -0.07117263037874486,
    4: -0.0034696566654809965,
    5: -0.0073827772147177775,
    6: -0.002975834598889356,
    7: 0.0006167078930689338,
    8: -0.0009714135851049305,
    9: 0.0022878523591111496,
    10: 0.0003385975249137799,
}


def test_mesh_has_every_face_piece_kind(slab):
    table = slab.mesh.face_topology()
    kinds = set(table.kind.tolist())
    colors = {BOUNDARY_COLORS[c] for c in table.color[table.kind == BOUNDARY].tolist()}
    assert kinds == {SAME, FINER, COARSER, BOUNDARY}
    assert colors == {NEUMANN, DIRICHLET}


def test_golden_indicators(slab):
    eta = estimator.indicator_terms(slab, *cone_inputs(slab))
    assert slab.mesh.active_cells() == sorted(GOLDEN)
    position = slab.mesh.active_position()
    for cid, ref in GOLDEN.items():
        assert eta[position[cid]] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_keys_are_active_ids_in_order(slab):
    """One float64 row per active cell, in ``active_ids()`` order.

    A dual weight on one cell's interior (bubble) dof is supported on that
    cell alone and vanishes on its faces, so only that cell's row can be
    nonzero.
    """
    u, u_prev, _, _, coeff, data = cone_inputs(slab)
    eta = estimator.indicator_terms(slab, *cone_inputs(slab))
    assert eta.dtype == np.float64 and eta.shape == (slab.mesh.n_active_cells,)
    space, position = slab.dual, slab.mesh.active_position()
    centres = slab.mesh.cell_corner_coords().mean(axis=1)
    for cid in GOLDEN:
        dofs = space.cell_dofs[position[cid]]
        distance = np.linalg.norm(space.support_points[dofs] - centres[position[cid]], axis=1)
        bubble = dofs[np.argmin(distance)]
        assert np.count_nonzero(space.cell_dofs == bubble) == 1 and distance.min() < 1e-12
        w = np.zeros(space.n_dofs)
        w[bubble] = 1.0
        eta = estimator.indicator_terms(slab, u, u_prev, w, w, coeff, data)
        assert np.flatnonzero(eta).tolist() == [position[cid]]


def reference_indicator_terms(slab, u, u_prev, w_tm, w_tn, coeff, data):
    """The earlier per-point einsum body of ``indicator_terms``, kept as the oracle.

    Face gradients are formed per face point from gathered reference rows,
    the dual weights per piece from the face rule's basis, and the reference
    Hessians by an einsum over the cell rule's table.
    """
    primal, dual = slab.primal, slab.dual
    rule = fem.cell_rule(dual, dual.degree + 1)
    pieces, n_q = fem.face_rule(dual), dual.degree + 1
    cells, faces, slots = pieces.flat // 12, pieces.flat // 3 % 4, pieces.flat % 3
    normal, JxW = pieces.normal, pieces.JxW(n_q)
    neumann = np.isin(np.arange(len(JxW)), pieces.neumann)
    lap = rule.invJ @ rule.invJ.transpose(0, 2, 1)
    at = np.repeat(cells.ravel(), n_q)
    ref_grad = fem._face_basis(primal.degree, n_q)[1]
    grad = ref_grad[faces, slots].reshape(-1, *ref_grad.shape[-2:])
    f_values, h_values = next(estimator._indicator_data([slab], data))
    eps = coeff.epsilon

    ts, wts = slab.interval.gauss_points(2)
    theta = np.array([slab.interval.unit_coord(t) for t in ts])
    w_at = np.stack([(1 - th) * w_tm + th * w_tn for th in theta])

    ref_hess = np.einsum("qief,ci->cqef", rule.basis(primal.degree).hess, u[primal.cell_dofs])
    lap_u = np.einsum("cqef,cef->cq", ref_hess, lap)
    du_jump = rule.values(primal, u - u_prev)
    eta = np.zeros(len(dual.active_ids))
    for (f, wt, w) in zip(f_values, wts, w_at):
        resid = f + eps * lap_u
        eta += wt * np.einsum("cq,cq->c", rule.JxW, resid * rule.values(dual, w))
    eta -= coeff.rho * np.einsum("cq,cq->c", rule.JxW, du_jump * rule.values(dual, w_tm))

    own, n_pc = cells[0], len(JxW)
    _, invJ = fem._cell_geometry(primal.mesh)
    ref = np.einsum("nie,ni->ne", grad, u[primal.cell_dofs[at]])
    grads = np.einsum("ned,ne->nd", invJ[at], ref).reshape(2, n_pc, n_q, 2)
    N = fem._face_basis(dual.degree, n_q)[0][faces[0], slots[0]]
    w_face = np.einsum("pqi,tpi->tpq", N, w_at[:, dual.cell_dofs[own]])
    resid = np.empty((len(ts), n_pc, n_q))
    resid[:] = eps * np.einsum("pqd,pd->pq", grads[0] - grads[1], normal)
    if neumann.any():
        flux = eps * np.einsum("pqd,pd->pq", grads[0, neumann], normal[neumann])
        for k, h in enumerate(h_values):
            resid[k, neumann] = h - flux
    inner = np.sum(JxW * resid * w_face, axis=-1)
    acc = sum(wt * row for wt, row in zip(wts, inner))
    np.add.at(eta, own, np.where(neumann, acc, -0.5 * acc))
    return eta


@pytest.mark.parametrize("degrees", [(1, 2), (2, 2)])
@pytest.mark.parametrize("name", list(cases()))
def test_indicators_match_the_per_point_oracle(name, degrees):
    """The per-cell reference tables change the summation order only."""
    slab = Slab(TimeInterval(0.1, 0.35), build(name), *degrees)
    inputs = cone_inputs(slab)
    eta = estimator.indicator_terms(slab, *inputs)
    expected = reference_indicator_terms(slab, *inputs)
    assert np.max(np.abs(eta - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.array_equal(estimator.indicator_terms(slab, *inputs), eta)


def test_recorded_cases_hold_hanging_and_neumann_faces():
    kinds, colors = set(), set()
    for name in cases():
        table = build(name).face_topology()
        kinds |= set(table.kind.tolist())
        colors |= {BOUNDARY_COLORS[c] for c in table.color[table.kind == BOUNDARY].tolist()}
    assert kinds == {SAME, FINER, COARSER, BOUNDARY} and NEUMANN in colors


@pytest.mark.parametrize("position", range(4))
def test_vectors_of_the_wrong_length_raise_naming_them(slab, position):
    inputs = list(cone_inputs(slab))
    names = ("u", "u_prev", "w_tm", "w_tn")
    n = len(inputs[position])
    inputs[position] = np.append(inputs[position], [0.0, 0.0])
    message = rf"^{names[position]} has shape \({n + 2},\), not \({n},\)"
    with pytest.raises(ValueError, match=message):
        estimator.indicator_terms(slab, *inputs)


def test_four_vectors_all_too_long_are_refused(slab):
    inputs = [np.append(v, [0.0, 0.0]) for v in cone_inputs(slab)[:4]]
    with pytest.raises(ValueError, match=r"^u has shape"):
        estimator.indicator_terms(slab, *inputs, *cone_inputs(slab)[4:])


def test_linear_solution_has_zero_indicators(slab, rng):
    """A linear u_h with matching data leaves no residual anywhere.

    u_prev = u_h removes the time jump, f = 0 matches the vanishing
    Laplacian, h = eps dn u_h on the sheared Neumann face cancels the
    boundary residual and the gradient is continuous across every
    (hanging) face, so every indicator vanishes for any weight w.
    """
    coeff = Coefficients(rho=0.8, epsilon=1.2)
    grad = np.array([1.7, -0.9])
    u = interpolate(slab.primal, lambda x: 0.3 + x @ grad).coefficients
    top = slab.mesh.points[6]  # the Neumann edge runs from the origin to (SHEAR, 1)
    normal = np.array([-top[1], top[0]]) / np.hypot(*top)  # outward on x = SHEAR * y
    flux = coeff.epsilon * float(grad @ normal)
    data = SimpleNamespace(
        rhs_f=lambda x, t: np.zeros(x.shape[:-1]),
        neumann_h=lambda x, t: np.full(x.shape[:-1], flux),
    )
    w_tm = rng.standard_normal(slab.dual.n_dofs)
    w_tn = rng.standard_normal(slab.dual.n_dofs)
    eta = estimator.indicator_terms(slab, u, u, w_tm, w_tn, coeff, data)
    assert eta.shape == (slab.mesh.n_active_cells,)
    assert np.abs(eta).max() <= 1e-14


def owns_its_data(arr):
    """Whether ``arr`` keeps no larger array alive through its base."""
    return arr.base is None or arr.base.nbytes <= arr.nbytes


def test_face_pieces_are_shared_and_read_only(slab):
    """The estimator reads its face pieces from one read-only face table and one read-only
    face rule per mesh state, each array owning its data and positions held as int32."""
    data = cone_inputs(slab)
    estimator.indicator_terms(slab, *data)
    table, rule = slab.mesh.face_topology(), fem.face_rule(slab.dual)
    assert set(table.half.tolist()) == {-1, 0, 1}
    assert table.owner.dtype == table.neighbor.dtype == np.int32
    assert rule.flat.dtype == rule.neumann.dtype == np.int32
    for arr in (*table, *rule):  # ``half`` included
        with pytest.raises(ValueError):
            arr.flat[0] = 0
    for arr in (*table[1:], *rule):  # ``cells`` is the active-id array, a view of the forest's
        assert owns_its_data(arr)
    estimator.indicator_terms(slab, *data)
    assert slab.mesh.face_topology() is table and fem.face_rule(slab.primal) is rule


def sequential_estimate(per_slab):
    """Slab sums and totals of a per-cell Python loop, ascending slab and cell."""
    eta_slabs, signed_slabs = [], []
    for eta in per_slab:
        total = signed = 0.0
        for value in eta:
            total += abs(value)
            signed += value
        eta_slabs.append(total)
        signed_slabs.append(signed)
    eta_total = eta_signed = 0.0
    for total, signed in zip(eta_slabs, signed_slabs):
        eta_total += total
        eta_signed += signed
    return eta_slabs, eta_total, eta_signed


# magnitudes far apart, so the summation order shows in the last bits
indicator_values = st.sampled_from([0.0, -0.0, 1e-17, -3e-9]) | st.floats(
    -1e3, 1e3, allow_subnormal=False
)


@given(per_slab=st.lists(st.lists(indicator_values, max_size=30), max_size=8))
def test_accumulate_is_the_sequential_loop_bitwise(per_slab):
    estimate = estimator.accumulate([np.array(eta, dtype=float) for eta in per_slab])
    eta_slabs, eta_total, eta_signed = sequential_estimate(per_slab)
    assert [v.hex() for v in estimate.eta_slabs] == [v.hex() for v in eta_slabs]
    assert estimate.eta_total.hex() == eta_total.hex()
    assert estimate.eta_signed.hex() == eta_signed.hex()


def stored_slabs(slabs, rng):
    """Attach random u, u_prev, z_tm and z_tn to every slab."""
    for slab in slabs:
        for tag, space in (("u", slab.primal), ("u_prev", slab.primal), ("z_tm", slab.dual),
                           ("z_tn", slab.dual)):
            slab.attach_storage(tag, rng.standard_normal(space.n_dofs))
    return slabs


def test_slab_indicators_are_the_per_slab_indicators_bitwise(slab, rng):
    """Runs of slabs on one dual space share one face rule and change no bit."""
    refined = Slab(TimeInterval(0.35, 0.5), slab.mesh.copy(), 1, 2)
    SlabList([refined]).refine({0: slab.mesh.active_ids()[:2]})
    shared = [slab._with_interval(TimeInterval(0.1 * k, 0.1 * k + 0.1)) for k in range(4)]
    slabs = stored_slabs([shared[0], shared[1], refined, shared[2], shared[3]], rng)
    assert slabs[0].dual is slabs[1].dual is slabs[3].dual and refined.dual is not slab.dual
    _, _, _, _, coeff, data = cone_inputs(slab)
    for restriction in ("mean", "right"):
        etas = estimator.slab_indicators(slabs, coeff, data, restriction)
        assert len(etas) == len(slabs)
        for s, eta in zip(slabs, etas):
            u, z_tm, z_tn, u_prev = map(s.fetch_storage, ("u", "z_tm", "z_tn", "u_prev"))
            w_tm, w_tn = estimator.dual_weights(s, z_tm, z_tn, time_restriction=restriction)
            expected = estimator.indicator_terms(s, u, u_prev, w_tm, w_tn, coeff, data)
            assert np.array_equal(eta, expected)


def test_one_face_rule_for_slabs_on_one_space(slab, rng, monkeypatch):
    """The primal Neumann load and the indicators of 5 slabs share one face rule build."""
    builds, calls = [], {"indicator_terms": 0}
    cached = QuadMesh.cached

    def counted_cache(mesh, name, build):
        def counted_build():
            builds.append(name)
            return build()

        return cached(mesh, name, counted_build)

    def counted_terms(*args, **kwargs):
        calls["indicator_terms"] += 1
        return terms(*args, **kwargs)

    terms = estimator.indicator_terms
    monkeypatch.setattr(QuadMesh, "cached", counted_cache)
    monkeypatch.setattr(estimator, "indicator_terms", counted_terms)
    slabs = stored_slabs(
        [slab._with_interval(TimeInterval(0.1 * k, 0.1 * k + 0.1)) for k in range(5)], rng)
    _, _, _, _, coeff, data = cone_inputs(slab)
    fem.assemble_load_neumann(slab.primal, lambda x: np.ones(x.shape[:-1]))
    estimator.slab_indicators(slabs, coeff, data)
    assert builds.count("face_rule") == 1 and calls == {"indicator_terms": 5}


@pytest.mark.parametrize("missing", ["u", "u_prev", "z_tm", "z_tn"])
def test_slab_indicators_name_the_slab_and_the_missing_vector(lshape, missing, rng):
    from dwr_diffusion.slabs import init_slabs

    slabs = stored_slabs(init_slabs(lshape, 0.0, 1.25, 3), rng)
    kept = {tag: slabs[1].fetch_storage(tag) for tag in ("u", "u_prev", "z_tm", "z_tn")}
    slabs[1].clear_storage()
    for tag, vector in kept.items():
        if tag != missing:
            slabs[1].attach_storage(tag, vector)
    with pytest.raises(ValueError, match=rf"^slab 1 holds no stored '{missing}'$"):
        estimator.slab_indicators(slabs, Coefficients(), ProblemData())
