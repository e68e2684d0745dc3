from pathlib import Path

import numpy as np
import pytest

from dwr_diffusion import fem, output
from dwr_diffusion.cli import main
from dwr_diffusion.mesh import make_lshape
from dwr_diffusion.output import atomic_write, vtk_text, write_vtk_slabs
from dwr_diffusion.slabs import init_slabs

PARAMETER_FILE = Path(__file__).resolve().parents[1] / "input" / "rotating_cone_2d.prm"


@pytest.mark.parametrize("primal_degree", [1, 2])
def test_vtk_files_of_slabs_sharing_a_space_equal_single_slab_exports(tmp_path, primal_degree):
    """The mesh block formatted once for a run of slabs sharing a primal space changes no byte."""
    slabs = init_slabs(make_lshape(), 0.0, 1.0, 4, primal_degree=primal_degree)
    slabs.refine({2: {0}})  # slabs 0-1 and 3 share the coarse space, slab 2 has its own
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


# signed zeros, non-finite values, subnormals and values that need 12 significant digits
SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1e-310,
                    2.2250738585072014e-308, 1.0 / 3.0, -123456789.123456789, 1e16, 1e-5, 0.1])


def genexpr_vtk_text(slab, u, z):
    """A Q1 slab's VTK file formatted with one f-string per line, the reference byte layout."""
    export = slab.primal
    pts, cells = export.support_points, export.cell_dofs[:, [0, 1, 3, 2]]
    z = fem.interpolate_same_mesh(fem.FeFunction(slab.dual, z), export).coefficients
    return "\n".join([
        "# vtk DataFile Version 3.0",
        f"space-time slab t in ({slab.interval.t_m:.12g}, {slab.interval.t_n:.12g})",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {pts.shape[0]} double",
        "\n".join(f"{x:.12g} {y:.12g} 0" for x, y in pts.tolist()),
        f"CELLS {len(cells)} {5 * len(cells)}",
        "\n".join(f"4 {a} {b} {c} {d}" for a, b, c, d in cells.tolist()),
        f"CELL_TYPES {len(cells)}",
        "\n".join(["9"] * len(cells)),
        f"POINT_DATA {export.n_dofs}",
        "SCALARS u double 1",
        "LOOKUP_TABLE default",
        "\n".join(f"{v:.12g}" for v in u.tolist()),
        "SCALARS z double 1",
        "LOOKUP_TABLE default",
        "\n".join(f"{v:.12g}" for v in z.tolist()),
    ]) + "\n"


def test_vtk_blocks_are_byte_identical_to_per_value_formatting():
    slabs = init_slabs(make_lshape(), 0.0, 1.0, 1)
    slabs.refine({0: {0}})
    slab = slabs[0]
    u = np.resize(SPECIAL, slab.primal.n_dofs)
    z = np.resize(SPECIAL[::-1], slab.dual.n_dofs)
    assert vtk_text(slab, u=u, z=z) == genexpr_vtk_text(slab, u, z)
    # the point block's format on the special values too
    pairs = np.resize(SPECIAL, (len(SPECIAL) + 1, 2))
    assert output._lines("%.12g %.12g 0", pairs) == "\n".join(
        f"{x:.12g} {y:.12g} 0" for x, y in pairs.tolist())
    assert output._lines("%.12g", SPECIAL[:0]) == ""
