"""Report files: convergence CSV, interval-length and indicator TSVs, VTK fields.

All files are written atomically (temp file in the target directory, then
rename), so partial files never appear even if a run is interrupted.
"""

from __future__ import annotations

import math
import os
import tempfile

from . import fem
from .fem import FeFunction, FeSpace


def atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return f"{value:.6e}"


def write_convergence_csv(records, path):
    """One row per adaptation loop: loop,n_slabs,max_cells,goal_error,eta,i_eff."""
    lines = ["loop,n_slabs,max_cells,goal_error,eta,i_eff"]
    for r in records:
        i_eff = "nan" if r.i_eff is None or math.isnan(r.i_eff) else f"{r.i_eff:.4f}"
        lines.append(
            f"{r.loop},{r.n_slabs},{r.max_cells},{_fmt(r.goal_error)},{_fmt(r.eta)},{i_eff}"
        )
    atomic_write(path, "\n".join(lines) + "\n")


def write_tau_tsv(slabs, path):
    """Per-slab interval bounds and lengths."""
    lines = ["t_m\tt_n\ttau"]
    for slab in slabs:
        iv = slab.interval
        lines.append(f"{iv.t_m:.12g}\t{iv.t_n:.12g}\t{iv.tau:.12g}")
    atomic_write(path, "\n".join(lines) + "\n")


def write_eta_tsv(slabs, eta_slabs, path):
    """Per-slab indicator sums."""
    lines = ["slab\tt_m\tt_n\teta"]
    for k, (slab, eta) in enumerate(zip(slabs, eta_slabs)):
        iv = slab.interval
        lines.append(f"{k}\t{iv.t_m:.12g}\t{iv.t_n:.12g}\t{eta:.6e}")
    atomic_write(path, "\n".join(lines) + "\n")


def vtk_text(slab, u=None, z=None):
    """Legacy ASCII VTK unstructured grid of one slab's mesh.

    Points are the nodes of a bilinear space on the slab mesh; the primal
    value on the interval and, when available, the dual value at the left
    endpoint are attached as point scalars.  Cells are emitted as VTK
    quads (type 9, counterclockwise corner order).
    """
    mesh = slab.mesh
    export = slab.primal if slab.primal.degree == 1 else FeSpace(mesh, 1)
    export._check_current()
    pts = export.support_points
    n_pts = pts.shape[0]
    # local corner order LL LR UL UR -> VTK quad LL LR UR UL
    cells = export.cell_dofs[:, [0, 1, 3, 2]]
    n_cells = cells.shape[0]

    lines = [
        "# vtk DataFile Version 3.0",
        "space-time slab t in "
        f"({slab.interval.t_m:.12g}, {slab.interval.t_n:.12g})",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n_pts} double",
        "\n".join(f"{x:.12g} {y:.12g} 0" for x, y in pts.tolist()),
        f"CELLS {n_cells} {5 * n_cells}",
        "\n".join(f"4 {a} {b} {c} {d}" for a, b, c, d in cells.tolist()),
        f"CELL_TYPES {n_cells}",
        "\n".join(["9"] * n_cells),
    ]

    fields = []
    if u is not None:
        u_fn = FeFunction(slab.primal, u)
        vals = (
            u_fn.coefficients
            if export is slab.primal
            else fem.interpolate_same_mesh(u_fn, export).coefficients
        )
        fields.append(("u", vals))
    if z is not None:
        z_fn = FeFunction(slab.dual, z)
        fields.append(("z", fem.interpolate_same_mesh(z_fn, export).coefficients))
    if fields:
        lines.append(f"POINT_DATA {n_pts}")
        for name, vals in fields:
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.append("\n".join(f"{v:.12g}" for v in vals.tolist()))
    return "\n".join(lines) + "\n"


def write_vtk_slabs(slabs, out_dir, loop):
    for k, slab in enumerate(slabs):
        text = vtk_text(slab, u=slab.fetch_storage("u"), z=slab.fetch_storage("z_tm"))
        atomic_write(os.path.join(out_dir, f"solution_l{loop:02d}_n{k:04d}.vtk"), text)


class OutputWriter:
    """Per-loop callback bundling all report files for a run directory."""

    def __init__(self, out_dir, vtk_every=0):
        self.out_dir = out_dir
        self.vtk_every = vtk_every
        os.makedirs(out_dir, exist_ok=True)

    def on_loop(self, loop, slabs, estimate, record, final):
        write_tau_tsv(slabs, os.path.join(self.out_dir, f"tau_distribution_l{loop:02d}.tsv"))
        if estimate is not None:
            write_eta_tsv(
                slabs, estimate.eta_slabs, os.path.join(self.out_dir, f"eta_l{loop:02d}.tsv")
            )
        wants_vtk = final or (self.vtk_every > 0 and loop % self.vtk_every == 0)
        if wants_vtk:
            write_vtk_slabs(slabs, self.out_dir, loop)

    def finish(self, records):
        write_convergence_csv(records, os.path.join(self.out_dir, "convergence.csv"))
