"""The benchmark's span tracer must find every name it wraps on the package.

``perfbench/spans.py`` replaces module functions and class methods by name
for ``--trace 1`` runs; a name deleted or renamed in the package would
break those runs, so it fails here instead.  A name that still resolves but
is no longer called through its module would read 0 in every per-layer
metric, so a traced two-loop solve must call each live name.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from dwr_diffusion import driver, parse_parameter_file
from dwr_diffusion.output import OutputWriter

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"

# Spans the solve path no longer reaches; ROADMAP item 1 repoints or deletes them.
# ``mesh.refine`` is the one-mesh case of ``mesh.refine_meshes``, which the adaptation calls.
KNOWN_ZERO = {"fem.assemble_mass", "fem.assemble_stiffness", "sparse_la.apply_dirichlet",
              "mesh.fingerprint", "mesh.refine"}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    targets = spans._targets()
    assert targets
    missing = [name for name, owner, attr in targets if not callable(owner.__dict__.get(attr))]
    assert missing == []


def test_tracer_installs_and_restores_every_target(spans):
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in spans._targets()]
    with spans.Tracer():
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_a_traced_solve_reaches_every_live_span(spans, tmp_path):
    """A refactor that stops calling a traced name through its module zeroes a metric."""
    config = parse_parameter_file(ROOT / "input" / "rotating_cone_2d.prm")
    config = dataclasses.replace(config, adapt=dataclasses.replace(config.adapt, max_loops=2))
    tracer = spans.Tracer()
    with tracer:
        writer = OutputWriter(tmp_path, vtk_every=config.output.vtk_every)
        result = driver.dwr_loop(config, on_loop=writer.on_loop)
        writer.finish(result.records)
    assert len(result.records) == 2
    calls = {name: count for name, (count, _, _) in tracer.self_times().items()}
    reached = {name for name, _, _ in spans._targets() if calls.get(name, 0) > 0}
    assert {name for name, _, _ in spans._targets()} - reached == KNOWN_ZERO
