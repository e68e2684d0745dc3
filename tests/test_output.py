import numpy as np
import pytest

from dwr_diffusion import fem
from dwr_diffusion.mesh import make_lshape
from dwr_diffusion.output import vtk_text, write_vtk_slabs
from dwr_diffusion.slabs import init_slabs


@pytest.mark.parametrize("primal_degree", [1, 2])
def test_vtk_files_of_slabs_sharing_a_space_equal_single_slab_exports(tmp_path, primal_degree):
    """The mesh block formatted once for a run of slabs sharing a primal space changes no byte."""
    slabs = init_slabs(make_lshape(), 0.0, 1.0, 4, primal_degree=primal_degree)
    slabs[2].refine({0})  # slabs 0-1 and 3 share the coarse space, slab 2 has its own
    for k, slab in enumerate(slabs):
        u = fem.interpolate(slab.primal, lambda x: x[..., 0] + k).coefficients
        slab.attach_storage("u", u)
        if k != 1:
            slab.attach_storage("z_tm", np.linspace(0.0, 1.0, slab.dual.n_dofs))
    write_vtk_slabs(slabs, tmp_path, loop=3)
    for k, slab in enumerate(slabs):
        expected = vtk_text(slab, u=slab.fetch_storage("u"), z=slab.fetch_storage("z_tm"))
        assert (tmp_path / f"solution_l03_n{k:04d}.vtk").read_text() == expected
