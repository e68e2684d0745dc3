"""Space-time slabs: one spatial mesh plus a time interval each.

A slab holds a mesh, the primal and dual spatial discretizations on it,
and a small dictionary of storage handles to solution vectors.  The slab
list partitions the whole time interval exactly.  Only the current
adaptation loop's slabs exist; earlier loops are not kept.

A mesh and its two spaces are one shared value: all initial slabs hold
one copy of the coarse mesh and one space pair, and a time split hands
both halves the parent's.  Only :meth:`Slab.refine` changes a slab's
mesh, and it refines a fresh ``copy()``, so no refinement reaches another
slab.  Every slab mesh thus refines one coarse mesh, which
:func:`fem.transfer` relies on to walk the refinement forests down from
the shared root cells.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .fem import FeSpace, gauss_1d


@dataclass(frozen=True)
class TimeInterval:
    t_m: float
    t_n: float

    def __post_init__(self):
        if not self.t_m < self.t_n:
            raise ValueError(f"degenerate interval ({self.t_m}, {self.t_n})")

    @property
    def tau(self):
        return self.t_n - self.t_m

    def gauss_points(self, n):
        """n-point Gauss rule mapped onto the interval; returns (points, weights)."""
        x, w = gauss_1d(n)
        return self.t_m + x * self.tau, w * self.tau

    def unit_coord(self, t):
        return (t - self.t_m) / self.tau


# storage tags and the space whose dof count they must match
_TAG_KIND = {
    "u": "primal",
    "u_prev": "primal",
    "z_tm": "dual",
    "z_tn": "dual",
}


class Slab:
    """One space-time cell layer: mesh x interval, with both discretizations."""

    def __init__(self, interval, mesh, primal_degree=1, dual_degree=2):
        self.interval = interval
        self.mesh = mesh
        self.primal_degree = primal_degree
        self.dual_degree = dual_degree
        self._storage = {}
        self.rebuild_spaces()

    @property
    def tau(self):
        return self.interval.tau

    def rebuild_spaces(self):
        """Refresh both spaces after a mesh refinement; drops all storage."""
        self.primal = FeSpace(self.mesh, self.primal_degree)
        self.dual = FeSpace(self.mesh, self.dual_degree)
        self._storage.clear()

    def refine(self, marks):
        """Refine the given cells on a private copy of the mesh, then rebuild the spaces.

        Slabs sharing the old mesh keep it and their spaces unchanged.
        """
        self.mesh = self.mesh.copy()
        self.mesh.refine(marks)
        self.rebuild_spaces()

    def _with_interval(self, interval):
        """A slab over ``interval`` sharing this slab's mesh and spaces, with empty storage."""
        other = copy.copy(self)
        other.interval = interval
        other._storage = {}
        return other

    def _expected_length(self, tag):
        kind = _TAG_KIND.get(tag)
        if kind is None:
            raise KeyError(f"unknown storage tag {tag!r}")
        return self.primal.n_dofs if kind == "primal" else self.dual.n_dofs

    def attach_storage(self, tag, vector):
        """Register a shared handle; the data itself is not copied."""
        vector = np.atleast_1d(np.asarray(vector, dtype=float))
        expected = self._expected_length(tag)
        if vector.shape[0] != expected:
            raise ValueError(
                f"storage {tag!r} expects length {expected}, got {vector.shape[0]}"
            )
        self._storage[tag] = vector
        return vector

    def fetch_storage(self, tag):
        """Return the attached vector, or None if the tag was never attached."""
        if tag not in _TAG_KIND:
            raise KeyError(f"unknown storage tag {tag!r}")
        return self._storage.get(tag)

    def clear_storage(self):
        self._storage.clear()


class SlabList:
    """Ordered slabs partitioning (t0, T) exactly."""

    def __init__(self, slabs):
        self.slabs = list(slabs)
        self._check_partition()

    def _check_partition(self):
        for a, b in zip(self.slabs, self.slabs[1:]):
            if a.interval.t_n != b.interval.t_m:
                raise ValueError("slab intervals do not partition the time domain")

    def __len__(self):
        return len(self.slabs)

    def __getitem__(self, k):
        return self.slabs[k]

    def __iter__(self):
        return iter(self.slabs)

    @property
    def t0(self):
        return self.slabs[0].interval.t_m

    @property
    def T(self):
        return self.slabs[-1].interval.t_n

    def iterate_forward(self):
        """Yield (index, slab) by ascending t_m."""
        return enumerate(self.slabs)

    def iterate_backward(self):
        """Yield (index, slab) by descending t_n."""
        return ((k, self.slabs[k]) for k in range(len(self.slabs) - 1, -1, -1))

    def split_slab_in_time(self, k):
        """Bisect slab k; both halves share its mesh and spaces, with empty storage."""
        old = self.slabs[k]
        t_m, t_n = old.interval.t_m, old.interval.t_n
        t_mid = 0.5 * (t_m + t_n)
        self.slabs[k : k + 1] = [
            old._with_interval(TimeInterval(t_m, t_mid)),
            old._with_interval(TimeInterval(t_mid, t_n)),
        ]
        return self


def init_slabs(coarse_mesh, t0, T, n_slabs, primal_degree=1, dual_degree=2):
    """Uniform initial slab list sharing one copy of the coarse mesh and one space pair.

    The caller's mesh is never refined.  Interval endpoints are computed as
    ``t0 + k (T - t0) / n`` so that consecutive slabs share endpoints
    exactly.
    """
    if n_slabs < 1:
        raise ValueError("need at least one slab")
    if not t0 < T:
        raise ValueError("empty time interval")
    ends = [t0 + k * (T - t0) / n_slabs for k in range(n_slabs + 1)]
    ends[-1] = T
    shared = Slab(TimeInterval(t0, T), coarse_mesh.copy(), primal_degree, dual_degree)
    return SlabList(shared._with_interval(TimeInterval(a, b)) for a, b in zip(ends, ends[1:]))
