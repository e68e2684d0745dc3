"""Space-time slabs: one spatial mesh plus a time interval each.

A slab holds a mesh, the primal and dual spatial discretizations on it,
and a small dictionary of storage handles to solution vectors.  The slab
list partitions the whole time interval exactly.  Only the current
adaptation loop's slabs exist; earlier loops are not kept.

A mesh and its two spaces are one shared value: all initial slabs hold
one copy of the coarse mesh and one space pair, and a time split hands
both halves the parent's.  The dual space lives in a one-entry list that
those slabs share, empty until the dual march builds every missing dual
space in one :func:`fem.build_spaces` call
(:meth:`SlabList.build_dual_spaces`), or :attr:`Slab.dual` builds its own
on first use.  So they share one dual space too, and a loop that never
runs the dual builds none.  Only :meth:`SlabList.refine` changes a slab's
mesh: it checks every mark before any slab changes, then gives each marked
slab a new mesh (:func:`mesh.refine_meshes`), so no refinement reaches
another slab, and builds their new primal spaces in one call.  Every slab
mesh thus refines one coarse mesh, which :func:`fem.transfer_plans` relies
on to walk the refinement forests down from the shared root cells.
"""

from __future__ import annotations

import copy
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import FeSpace, gauss_1d
from .mesh import checked_marks, refine_meshes


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
        self.primal_degree = primal_degree
        self.dual_degree = dual_degree
        self._storage = {}
        self._set_mesh(mesh, FeSpace(mesh, primal_degree))

    @property
    def tau(self):
        return self.interval.tau

    @property
    def dual(self):
        """The dual space, shared with this slab's time-split copies; built here on first use
        unless :meth:`SlabList.build_dual_spaces` built it first."""
        if not self._dual:
            self._dual.append(FeSpace(self.mesh, self.dual_degree))
        return self._dual[0]

    def _set_mesh(self, mesh, primal):
        """Take ``mesh`` and its primal space, with no dual space yet; drops all storage."""
        self.mesh, self.primal = mesh, primal
        self._dual = []  # the dual space once built, one list shared with time-split copies
        self._storage.clear()

    def _release(self):
        """A copy of the mesh, without the caches of its state; this slab drops its state."""
        mesh = self.mesh.copy(cache=False)
        self._set_mesh(None, None)
        return mesh

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
        """Register a shared handle; the data itself is not copied.

        The vector must have the shape ``(n_dofs,)`` of the tag's space, or
        ValueError names the tag and the shape.
        """
        vector = np.atleast_1d(np.asarray(vector, dtype=float))
        expected = self._expected_length(tag)
        if vector.shape != (expected,):
            raise ValueError(f"storage {tag!r} expects shape ({expected},), got {vector.shape}")
        self._storage[tag] = vector
        return vector

    def fetch_storage(self, tag):
        """Return the attached vector, or None if the tag was never attached."""
        if tag not in _TAG_KIND:
            raise KeyError(f"unknown storage tag {tag!r}")
        return self._storage.get(tag)

    def clear_storage(self):
        self._storage.clear()


def stored(slabs, tag):
    """Every slab's vector under ``tag``, in slab order.

    ValueError names the first slab index with nothing attached under the tag.
    """
    vectors = [slab.fetch_storage(tag) for slab in slabs]
    for n, vector in enumerate(vectors):
        if vector is None:
            raise ValueError(f"slab {n} holds no stored {tag!r}")
    return vectors


class SlabList:
    """Ordered slabs partitioning (t0, T) exactly.

    ``refine_s`` adds up the wall seconds of the one-pass refinements of
    :meth:`refine`, and ``spaces_s`` those of the one-pass space builds of
    :meth:`refine` and :meth:`build_dual_spaces`.
    """

    def __init__(self, slabs):
        self.slabs = list(slabs)
        self.refine_s = self.spaces_s = 0.0
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

    def iterate_forward(self):
        """Yield (index, slab) by ascending t_m."""
        return enumerate(self.slabs)

    def iterate_backward(self):
        """Yield (index, slab) by descending t_n."""
        return ((k, self.slabs[k]) for k in range(len(self.slabs) - 1, -1, -1))

    def split_slab_in_time(self, k):
        """Bisect slab k; both halves share its mesh and spaces, with empty storage.

        A k outside [0, len) raises IndexError before the list is touched; a
        negative k is not counted from the end.
        """
        if not 0 <= k < len(self.slabs):
            raise IndexError(f"slab index {k} is not in [0, {len(self.slabs)})")
        old = self.slabs[k]
        t_m, t_n = old.interval.t_m, old.interval.t_n
        t_mid = 0.5 * (t_m + t_n)
        self.slabs[k : k + 1] = [
            old._with_interval(TimeInterval(t_m, t_mid)),
            old._with_interval(TimeInterval(t_mid, t_n)),
        ]
        return self

    def refine(self, space_marks):
        """Refine slab k's cells ``space_marks[k]`` for each key k; build the new primal spaces.

        Before any slab changes, ValueError names the first key that is not
        a slab index in [0, n), n slabs, or else the mark that
        :func:`mesh.checked_marks` refuses.  A slab whose marks are empty
        keeps its mesh and spaces.  One :func:`mesh.refine_meshes` call
        refines the other slab meshes in passes of at most
        :data:`mesh.BLOCK_CELLS` active cells into new meshes, each with
        its face table; slabs sharing an old mesh keep it.  Each slab drops
        its old state (mesh caches, spaces and storage) as the pass reads a
        copy of its mesh, so that the memory of the old states serves the
        new ones.  Then one :func:`fem.build_spaces` pass builds all the
        new primal spaces, with the face rule and the cell rules that the
        next march reads.
        """
        check_slab_indices(space_marks, len(self.slabs), "space-mark key")
        ids = checked_marks([self.slabs[k].mesh for k in space_marks], space_marks.values())
        keys = [k for k, picked in zip(space_marks, ids) if len(picked)]
        with timed(self, "refine_s"):
            meshes = list(refine_meshes((self.slabs[k]._release() for k in keys),
                                        [picked for picked in ids if len(picked)]))
        with timed(self, "spaces_s"):
            spaces = _build_spaces([(mesh, self.slabs[k].primal_degree)
                                    for k, mesh in zip(keys, meshes)])
        for k, mesh, space in zip(keys, meshes, spaces):
            self.slabs[k]._set_mesh(mesh, space)

    def build_dual_spaces(self):
        """Build every dual space not built yet in one :func:`fem.build_spaces` pass.

        Time-split copies of a slab share one dual space, built once.
        """
        todo = list({id(slab._dual): slab for slab in self.slabs if not slab._dual}.values())
        with timed(self, "spaces_s"):
            spaces = _build_spaces([(slab.mesh, slab.dual_degree) for slab in todo])
        for slab, space in zip(todo, spaces):
            slab._dual.append(space)


def check_slab_indices(keys, n, kind):
    """Refuse the first of ``keys`` that is not an integer in [0, n) (a bool or a float is not):
    ValueError names ``kind``, the key and the range."""
    for k in keys:
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 0 <= k < n:
            raise ValueError(f"{kind} {k} is not a slab index in [0, {n})")


@contextmanager
def timed(obj, field):
    """Add the wall seconds of the block to ``obj.<field>``."""
    start = time.perf_counter()
    yield
    setattr(obj, field, getattr(obj, field) + time.perf_counter() - start)


def _build_spaces(pairs):
    """The spaces of ``(mesh, degree)`` pairs: one :func:`fem.build_spaces` pass per degree."""
    spaces = {}
    for degree in {degree for _, degree in pairs}:
        meshes = [mesh for mesh, d in pairs if d == degree]
        spaces.update(zip([(id(mesh), degree) for mesh in meshes],
                          fem.build_spaces(meshes, degree)))
    return [spaces[id(mesh), degree] for mesh, degree in pairs]


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
