import numpy as np
import pytest
from hypothesis import settings, HealthCheck

settings.register_profile(
    "fem",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fem")


@pytest.fixture
def lshape():
    from dwr_diffusion import make_lshape

    return make_lshape()


@pytest.fixture
def unit_square():
    from dwr_diffusion import make_unit_square

    return make_unit_square()


@pytest.fixture
def hanging_mesh():
    """Two unit cells side by side with the left one refined once."""
    from dwr_diffusion import QuadMesh

    pts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    mesh = QuadMesh(pts, [(0, 1, 3, 4), (1, 2, 4, 5)])
    mesh.refine({0})
    return mesh


@pytest.fixture
def sheared_irregular_lshape():
    """The L-shape sheared to parallelograms, refined to a 1-irregular mesh.

    The left boundary (x = y / 4) is Neumann, the rest Dirichlet.  The
    lower-left root is refined twice, so same-level, finer, coarser and
    Neumann face pieces all occur, and no face normal is axis-aligned
    except on the horizontal faces.
    """
    from mesh_state_cases import build

    return build("sheared")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
