"""Benchmark workloads: how each run configuration is built and checked.

Every workload starts from the shipped ``input/rotating_cone_2d.prm`` and
applies its overrides with ``dataclasses.replace``, so the solver sees only
public configuration objects.  The solver inputs are fixed: a workload is a
deterministic batch solve whose convergence table is compared with
``reference.json`` (recorded from the seed code) to ``REL_TOL``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PARAMETER_FILE = ROOT / "input" / "rotating_cone_2d.prm"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"  # scratch output and BENCH_*.json records

REL_TOL = 1e-10
TABLE_COLUMNS = ("loop", "n_slabs", "max_cells", "goal_error", "eta", "i_eff")


@dataclass(frozen=True)
class Workload:
    """One run configuration: overrides of the shipped parameter file.

    ``levels`` uniform refinements are applied to the L-shaped coarse mesh
    before the loop starts; ``n_slabs`` of ``None`` keeps the file's value;
    ``adapt`` holds :class:`AdaptParams` field overrides.  ``expect`` names
    the end state the run must reach: ``converged`` (goal met within the
    loop budget), ``goal_at_loop_1`` or ``finite_estimate`` (the last loop
    has a finite eta and I_eff).
    """

    name: str
    levels: int = 0
    n_slabs: int | None = None
    adapt: dict = field(default_factory=dict)
    expect: str = "converged"


WORKLOADS = {
    # The real adaptive path to a stated accuracy: per-slab meshes differ,
    # so point-location transfer, the estimator, marking and refinement run.
    "cone_to_tol": Workload("cone_to_tol", adapt={"tol": 0.15}),
    # A forward sweep on identical fine meshes: space builds, face topology
    # and assembly; no dual, estimator or point location.
    "uniform_forward": Workload(
        "uniform_forward",
        levels=4,
        n_slabs=20,
        adapt={"tol_mode": "absolute", "tol": 1.0},
        expect="goal_at_loop_1",
    ),
    # One primal + dual + estimate on identical conforming meshes: only
    # same-level faces, no hanging faces and no transfer cost.
    "uniform_estimate": Workload(
        "uniform_estimate",
        levels=3,
        n_slabs=5,
        adapt={"max_loops": 1},
        expect="finite_estimate",
    ),
}


def prepare(workload):
    """Import the package, parse the parameter file, apply the overrides and
    build the input mesh."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dwr_diffusion as dd

    config = dd.parse_parameter_file(PARAMETER_FILE)
    adapt = dataclasses.replace(config.adapt, **workload.adapt)
    disc = config.discretization
    if workload.n_slabs is not None:
        disc = dataclasses.replace(disc, n_slabs=workload.n_slabs)
    config = dataclasses.replace(config, adapt=adapt, discretization=disc)
    mesh = dd.make_lshape()
    for _ in range(workload.levels):
        mesh.refine(mesh.active_cells())
    return config, mesh


def table_rows(records):
    """The convergence table as lists of plain numbers, in ``TABLE_COLUMNS`` order."""
    return [
        [r.loop, r.n_slabs, r.max_cells, float(r.goal_error), float(r.eta), float(r.i_eff)]
        for r in records
    ]


def solve(config, mesh, out_dir):
    """One batch solve exactly as the CLI does it; returns the result and its wall time."""
    from dwr_diffusion import driver
    from dwr_diffusion.output import OutputWriter

    start = time.perf_counter()
    writer = OutputWriter(out_dir, vtk_every=config.output.vtk_every)
    result = driver.dwr_loop(config, on_loop=writer.on_loop, mesh_factory=lambda: mesh)
    writer.finish(result.records)
    return result, time.perf_counter() - start


def output_problems(result, out_dir):
    """Check the files the writer left: one CSV row per loop, one VTK file per slab."""
    problems = []
    csv_path = os.path.join(out_dir, "convergence.csv")
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != ",".join(TABLE_COLUMNS) or len(lines) != len(result.records) + 1:
        problems.append("convergence.csv does not hold one row per loop")
    last = result.records[-1].loop
    vtk = [f for f in os.listdir(out_dir) if f.startswith(f"solution_l{last:02d}_")]
    if len(vtk) != len(result.slabs):
        problems.append(f"{len(vtk)} final VTK files for {len(result.slabs)} slabs")
    return problems


def load_reference(name):
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)[name]


def _same(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def table_problems(rows, reference):
    """Differences between a convergence table and its reference, as messages."""
    if len(rows) != len(reference):
        return [f"{len(rows)} loops, reference has {len(reference)}"]
    problems = []
    for row, ref in zip(rows, reference):
        for col, a, b in zip(TABLE_COLUMNS, row, ref):
            if not _same(a, b):
                problems.append(f"loop {row[0]} {col}: {a!r} != reference {b!r}")
    return problems


def end_state_problems(workload, report):
    """Whether the run reached the end state its workload promises."""
    rows = report["table"]
    if workload.expect == "converged" and not report["converged"]:
        return ["goal tolerance not reached within the loop budget"]
    if workload.expect == "goal_at_loop_1" and not (report["converged"] and len(rows) == 1):
        return [f"goal not met at loop 1 ({len(rows)} loops, converged={report['converged']})"]
    if workload.expect == "finite_estimate":
        eta, i_eff = rows[-1][4], rows[-1][5]
        if not (math.isfinite(eta) and math.isfinite(i_eff)):
            return [f"last loop has eta={eta!r}, i_eff={i_eff!r}"]
    return []
