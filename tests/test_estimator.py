import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dwr_diffusion import estimator
from dwr_diffusion.fem import interpolate
from dwr_diffusion.mesh import (
    BOUNDARY, BOUNDARY_COLORS, COARSER, DIRICHLET, FINER, NEUMANN, SAME,
)
from dwr_diffusion.problem import Coefficients, ConeSolution, ProblemData
from dwr_diffusion.slabs import Slab, TimeInterval


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


def test_face_pieces_are_shared_and_read_only(slab):
    """The estimator reads its face pieces from one read-only face table per mesh state."""
    data = cone_inputs(slab)
    estimator.indicator_terms(slab, *data)
    table = slab.mesh.face_topology()
    assert set(table.half.tolist()) == {-1, 0, 1}
    for arr in table:  # ``half`` included
        with pytest.raises(ValueError):
            arr[0] = 0
    estimator.indicator_terms(slab, *data)
    assert slab.mesh.face_topology() is table


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
    assert math.isnan(estimate.i_eff)


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
    refined.refine(slab.mesh.active_ids()[:2])
    shared = [slab._with_interval(TimeInterval(0.1 * k, 0.1 * k + 0.1)) for k in range(4)]
    slabs = stored_slabs([shared[0], shared[1], refined, shared[2], shared[3]], rng)
    assert slabs[0].dual is slabs[1].dual is slabs[3].dual and refined.dual is not slab.dual
    _, _, _, _, coeff, data = cone_inputs(slab)
    for restriction in ("mean", "right"):
        etas = estimator.slab_indicators(slabs, coeff, data, restriction)
        assert len(etas) == len(slabs)
        for s, eta in zip(slabs, etas):
            expected = estimator.compute_cell_indicators(
                s, *(s.fetch_storage(tag) for tag in ("u", "z_tm", "z_tn", "u_prev")),
                coeff, data, time_restriction=restriction)
            assert np.array_equal(eta, expected)


def test_one_face_rule_for_slabs_on_one_space(slab, rng, monkeypatch):
    calls = {"face_quadrature": 0, "indicator_terms": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(estimator.fem, "face_quadrature")
    counted(estimator, "indicator_terms")
    slabs = stored_slabs(
        [slab._with_interval(TimeInterval(0.1 * k, 0.1 * k + 0.1)) for k in range(5)], rng)
    _, _, _, _, coeff, data = cone_inputs(slab)
    estimator.slab_indicators(slabs, coeff, data)
    assert calls == {"face_quadrature": 1, "indicator_terms": 5}
