from pathlib import Path

import numpy as np
import pytest

from dwr_diffusion import fem
from dwr_diffusion.cli import main
from dwr_diffusion.mesh import make_lshape
from dwr_diffusion.output import atomic_write, vtk_text, write_vtk_slabs
from dwr_diffusion.slabs import init_slabs

PARAMETER_FILE = Path(__file__).resolve().parents[1] / "input" / "rotating_cone_2d.prm"


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


def test_failed_atomic_write_keeps_the_old_target_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "convergence.csv"
    atomic_write(target, "old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write(target, "new \ud800\n")  # a lone surrogate has no UTF-8 encoding
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["convergence.csv"]


def test_two_runs_write_byte_identical_outputs(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out in dirs:
        assert main([str(PARAMETER_FILE), "--max-loops", "2", "--out", str(out), "-q"]) == 2
    names = sorted(p.name for p in dirs[0].iterdir())
    assert "convergence.csv" in names and any(n.endswith(".vtk") for n in names)
    assert sorted(p.name for p in dirs[1].iterdir()) == names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
