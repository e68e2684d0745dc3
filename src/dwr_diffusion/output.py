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
    if math.isnan(value):
        return "nan"
    return f"{value:.6e}"


def write_convergence_csv(records, path):
    """One row per adaptation loop: loop,n_slabs,max_cells,goal_error,eta,i_eff."""
    lines = ["loop,n_slabs,max_cells,goal_error,eta,i_eff"]
    for r in records:
        i_eff = "nan" if math.isnan(r.i_eff) else f"{r.i_eff:.4f}"
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


def _mesh_block(primal):
    """(export space, POINTS/CELLS/CELL_TYPES text) of a primal space; Q1 exports itself."""
    export = primal if primal.degree == 1 else FeSpace(primal.mesh, 1)
    export._check_current()
    pts = export.support_points
    # local corner order LL LR UL UR -> VTK quad LL LR UR UL
    cells = export.cell_dofs[:, [0, 1, 3, 2]]
    n_cells = cells.shape[0]
    return export, "\n".join([
        f"POINTS {pts.shape[0]} double",
        _lines("%.12g %.12g 0", pts),
        f"CELLS {n_cells} {5 * n_cells}",
        _lines("4 %d %d %d %d", cells),
        f"CELL_TYPES {n_cells}",
        "\n".join(["9"] * n_cells),
    ])


def _lines(fmt, rows):
    """One ``fmt`` line per row of a 1-D or 2-D array, all formatted by one ``%`` operation."""
    return ((fmt + "\n") * len(rows) % tuple(rows.ravel().tolist()))[:-1]


def vtk_text(slab, u=None, z=None, block=None):
    """Legacy ASCII VTK unstructured grid of one slab's mesh.

    Points are the nodes of a bilinear space on the slab mesh; the primal
    value on the interval and, when available, the dual value at the left
    endpoint are attached as point scalars.  Cells are emitted as VTK
    quads (type 9, counterclockwise corner order).  ``block`` is
    ``_mesh_block(slab.primal)`` when the caller holds it already.
    """
    export, mesh_text = block or _mesh_block(slab.primal)
    lines = [
        "# vtk DataFile Version 3.0",
        "space-time slab t in "
        f"({slab.interval.t_m:.12g}, {slab.interval.t_n:.12g})",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        mesh_text,
    ]

    fields = []
    for name, x in (("u", u), ("z", z)):
        if x is not None:
            space = slab.primal if name == "u" else slab.dual  # the dual only when z is given
            fn = FeFunction(space, x)
            fn = fn if space is export else fem.interpolate_same_mesh(fn, export)
            fields.append((name, fn.coefficients))
    if fields:
        lines.append(f"POINT_DATA {export.n_dofs}")
        for name, vals in fields:
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.append(_lines("%.12g", vals))
    return "\n".join(lines) + "\n"


def write_vtk_slabs(slabs, out_dir, loop):
    """One VTK file per slab; consecutive slabs on one primal space format its mesh once."""
    primal = block = None
    for k, slab in enumerate(slabs):
        if slab.primal is not primal:
            primal, block = slab.primal, _mesh_block(slab.primal)
        text = vtk_text(slab, u=slab.fetch_storage("u"), z=slab.fetch_storage("z_tm"), block=block)
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
