"""The benchmark's span tracer must find every name it wraps on the package.

``perfbench/spans.py`` replaces module functions and class methods by name
for ``--trace 1`` runs; a name deleted or renamed in the package would
break those runs, so it fails here instead.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
