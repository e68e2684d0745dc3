from types import SimpleNamespace

import numpy as np
import pytest

from dwr_diffusion.fem import FeFunction, interpolate
from dwr_diffusion.primal import slab_goal_norm_sq
from dwr_diffusion.slabs import init_slabs

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
