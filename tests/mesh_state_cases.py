"""Recorded mesh states: the meshes, what is observed on them, and the recorder.

Each case is a mesh built from a fixed sequence of refinement marks.  On
every case :func:`observe` records the refined cell lists, the face-table
rows off the Dirichlet boundary (the estimator's face pieces) and, for the
Q1 and Q2 spaces, the dof numbering, support points, constraint rows,
boundary dofs, a Neumann load and the bytes of the VTK file of a slab with
that primal degree.
``tests/data/mesh_state.npz`` holds these observations; ``test_mesh_state``
requires the current code to reproduce them.  ``tests/data/golden_fingerprints.json``
holds the slab meshes' :meth:`QuadMesh.fingerprint` per loop of the
three-loop golden run of the shipped parameter file (``test_driver``).
Every recorded fixture of the tests is written by this script; re-record
with::

    PYTHONPATH=src python tests/mesh_state_cases.py [case ...]
    PYTHONPATH=src python tests/mesh_state_cases.py fingerprints
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from dwr_diffusion import fem
from dwr_diffusion.fem import FeSpace
from dwr_diffusion.mesh import DIRICHLET, FINER, NEUMANN, OPPOSITE_FACE, QuadMesh, make_lshape
from dwr_diffusion.output import vtk_text
from dwr_diffusion.slabs import Slab, TimeInterval

FIXTURE_FILE = Path(__file__).resolve().parent / "data" / "mesh_state.npz"
FINGERPRINT_FILE = FIXTURE_FILE.parent / "golden_fingerprints.json"
PARAMETER_FILE = Path(__file__).resolve().parents[1] / "input" / "rotating_cone_2d.prm"

SHEAR = 0.25
RANDOM_SEEDS = (11, 12, 13)
COPY_SEEDS = (14, 15, 16)  # the trunk, then the original and the copied branch
COLOR_CODES = {DIRICHLET: 0, NEUMANN: 1}


def sheared_lshape():
    """The L-shape sheared to parallelograms; the left boundary x = SHEAR * y is Neumann."""
    base = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.0, 0.5), (0.5, 0.5), (1.0, 0.5),
            (0.0, 1.0), (0.5, 1.0)]
    pts = [(x + SHEAR * y, y) for x, y in base]

    def colorize(a, b):
        on_left = all(abs(p[0] - SHEAR * p[1]) < 1e-12 for p in (a, b))
        return NEUMANN if on_left else DIRICHLET

    return QuadMesh(pts, [(0, 1, 3, 4), (1, 2, 4, 5), (3, 4, 6, 7)], colorize)


def random_refine(mesh, seed, rounds=4, fraction=0.35):
    """Refine ``mesh`` at random; returns the marks, one sorted id list per round."""
    rng = np.random.default_rng(seed)
    marks = []
    for _ in range(rounds):
        picked = sorted(c for c in mesh.active_cells() if rng.random() < fraction)
        marks.append(picked)
        mesh.refine(picked)
    return marks


def random_marks(seed, rounds=4, fraction=0.35):
    """Mark sequence of a random refinement of the L-shape."""
    return random_refine(make_lshape(), seed, rounds, fraction)


def copy_trunk():
    """The L-shape after two random rounds, the state that the copy cases copy."""
    mesh = make_lshape()
    random_refine(mesh, COPY_SEEDS[0], rounds=2)
    return mesh


def copied(branch):
    """Factory of one branch of the copied trunk: 0 the original, 1 the copy.

    The other branch is refined first, with its own random marks, so the
    vertex numbering of the observed branch must not see its refinements.
    """

    def factory():
        branches = [copy_trunk()]
        branches.append(branches[0].copy())
        random_refine(branches[1 - branch], COPY_SEEDS[2 - branch], rounds=3)
        return branches[branch]

    return factory


def cases():
    """Case name -> (coarse mesh factory, mark sequence)."""
    out = {"sheared": (sheared_lshape, [[0], [3]])}
    for seed in RANDOM_SEEDS:
        out[f"lshape{seed}"] = (make_lshape, random_marks(seed))
    for branch in (0, 1):
        marks = random_refine(copy_trunk(), COPY_SEEDS[1 + branch], rounds=3)
        out[f"copy{branch}"] = (copied(branch), marks)
    return out


def build(name, marks=None):
    factory, default = cases()[name]
    mesh = factory()
    for picked in default if marks is None else marks:
        mesh.refine(picked)
    return mesh


def neumann_data(x):
    return np.sin(3.0 * x[..., 0]) + x[..., 1] ** 2


def dual_data(x):
    return np.cos(2.0 * x[..., 0] * x[..., 1]) - x[..., 0]


def vtk_bytes(mesh, primal_degree):
    """The VTK file of a slab on ``mesh`` carrying interpolated u and z, as uint8."""
    slab = Slab(TimeInterval(0.25, 0.5), mesh, primal_degree, 2)
    u = fem.interpolate(slab.primal, neumann_data).coefficients
    z = fem.interpolate(slab.dual, dual_data).coefficients
    return np.frombuffer(vtk_text(slab, u=u, z=z).encode(), dtype=np.uint8)


def observe(mesh):
    """Everything recorded on one mesh state, as a dict of arrays."""
    n = len(mesh.cells)
    colors = np.full((n, 4), -1)
    for (cid, f), color in mesh.boundary_color.items():
        colors[cid, f] = COLOR_CODES[color]
    out = {
        "points": mesh.points,
        "vertices": np.array([c.vertices for c in mesh.cells]),
        "parent": np.array([-1 if c.parent is None else c.parent for c in mesh.cells]),
        "children": np.array([c.children or (-1,) * 4 for c in mesh.cells]),
        "level": np.array([c.level for c in mesh.cells]),
        "boundary_color": colors,
    }
    table = mesh.face_topology()
    keep = ~table.on_boundary(DIRICHLET)
    rule = fem.face_rule(FeSpace(mesh, 1))
    out["pieces_own"], out["pieces_nbr"] = rule.flat // 12
    out["pieces_face"] = rule.flat[0] // 3 % 4
    # the piece is the finer side's edge: the neighbor's on a FINER row
    finer = table.kind[keep] == FINER
    out["pieces_seg_cell"] = np.where(finer, table.neighbor[keep], table.owner[keep])
    out["pieces_seg_face"] = np.where(finer, OPPOSITE_FACE[table.face[keep]], table.face[keep])
    out["pieces_neumann"] = np.zeros(len(rule.length), dtype=bool)
    out["pieces_neumann"][rule.neumann] = True
    for degree in (1, 2):
        space = FeSpace(mesh, degree)
        cs = space.constraints
        rows = [cs.weights(s) for s in cs.slaves]
        q = f"q{degree}_"
        out[q + "cell_dofs"] = space.cell_dofs
        out[q + "support_points"] = space.support_points
        out[q + "slaves"] = np.array(cs.slaves, dtype=int)
        out[q + "row_length"] = np.array([len(r) for r in rows], dtype=int)
        out[q + "masters"] = np.array([m for r in rows for m, _ in r], dtype=int)
        out[q + "weights"] = np.array([w for r in rows for _, w in r], dtype=float)
        out[q + "dirichlet_dofs"] = space.boundary_dofs(DIRICHLET)
        out[q + "neumann_dofs"] = space.boundary_dofs(NEUMANN)
        out[q + "neumann_load"] = fem.assemble_load_neumann(space, neumann_data, condense=False)
        out[q + "vtk"] = vtk_bytes(mesh, degree)
    return out


def record(names=None, path=FIXTURE_FILE):
    """Record the named cases (default: all); the file keeps every other case."""
    names = set(cases() if not names else names)
    arrays = {}
    if path.exists():
        with np.load(path) as old:
            arrays = {k: old[k] for k in old.files if k.split("/", 1)[0] not in names}
    for name, (_, marks) in cases().items():
        if name not in names:
            continue
        for k, picked in enumerate(marks):
            arrays[f"{name}/marks{k}"] = np.array(picked, dtype=int)
        for key, value in observe(build(name, marks)).items():
            arrays[f"{name}/{key}"] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


def golden_fingerprints():
    """The slab meshes' fingerprints, in slab order, of each loop of the golden three-loop run."""
    from dwr_diffusion import dwr_loop, parse_parameter_file

    config = parse_parameter_file(PARAMETER_FILE)
    config = dataclasses.replace(config, adapt=dataclasses.replace(config.adapt, max_loops=3))
    loops = []
    dwr_loop(config, on_loop=lambda loop, slabs, *_: loops.append(
        [slab.mesh.fingerprint() for slab in slabs]))
    return loops


if __name__ == "__main__":
    if sys.argv[1:] == ["fingerprints"]:
        FINGERPRINT_FILE.write_text(json.dumps(golden_fingerprints(), indent=1) + "\n")
    else:
        record(sys.argv[1:])
