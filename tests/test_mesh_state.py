"""The mesh state, dof numbering, constraints and face pieces match their recording.

The recording (see ``mesh_state_cases``) was taken from the per-cell and
per-face implementations that the array code replaced; integers must be
equal and floats agree to 1e-15.
"""

import functools
import itertools

import numpy as np
import pytest

from mesh_state_cases import FIXTURE_FILE, build, cases, observe

RECORDED = np.load(FIXTURE_FILE)


def recorded_marks(name):
    marks = []
    for k in itertools.count():
        key = f"{name}/marks{k}"
        if key not in RECORDED.files:
            return marks
        marks.append(RECORDED[key].tolist())


@functools.cache
def observed(name):
    return observe(build(name, recorded_marks(name)))


def recorded_keys(name):
    keys = [k.split("/", 1)[1] for k in RECORDED.files if k.startswith(name + "/")]
    return sorted(k for k in keys if not k.startswith("marks"))


@pytest.mark.parametrize("name", list(cases()))
def test_every_recorded_quantity_is_observed(name):
    assert sorted(observed(name)) == recorded_keys(name)


@pytest.mark.parametrize(
    "name,key", [(name, key) for name in cases() for key in recorded_keys(name)]
)
def test_matches_recording(name, key):
    ref = RECORDED[f"{name}/{key}"]
    got = np.asarray(observed(name)[key])
    assert got.shape == ref.shape
    if ref.dtype.kind == "f":
        assert np.all(np.abs(got - ref) <= 1e-15)
    else:
        assert got.dtype.kind == ref.dtype.kind
        np.testing.assert_array_equal(got, ref)
