"""Span tracing of the solver's layers from outside the package.

:meth:`Tracer.install` replaces public module functions and class methods
with wrappers that record a span (name, start, end, parent span) per call,
kept in memory.  The attribute replaced is the one the caller looks up:
``driver`` imports ``march_forward``/``march_backward`` by name, so those are
wrapped on ``driver``; everything else is called through its module or
class.  ``QuadMesh.locate_point`` is counted, not timed, so that
``fem.transfer`` keeps the point-location time in its self time.
"""

from __future__ import annotations

import time
from collections import Counter


def _targets():
    from dwr_diffusion import (
        driver, dual, estimator, fem, marking, mesh, output, primal, slabs, sparse_la,
    )

    return [
        ("driver.dwr_loop", driver, "dwr_loop"),
        ("primal.march_forward", driver, "march_forward"),
        ("dual.march_backward", driver, "march_backward"),
        ("primal.slab_goal_norm_sq", primal, "slab_goal_norm_sq"),
        ("dual.assemble_goal_rhs", dual, "assemble_goal_rhs"),
        ("fem.transfer", fem, "transfer"),
        ("fem.assemble_mass", fem, "assemble_mass"),
        ("fem.assemble_stiffness", fem, "assemble_stiffness"),
        ("fem.assemble_load_volume", fem, "assemble_load_volume"),
        ("fem.assemble_load_neumann", fem, "assemble_load_neumann"),
        ("fem.FeSpace", fem.FeSpace, "__init__"),
        ("fem.hanging_constraints", fem.FeSpace, "hanging_constraints"),
        ("mesh.face_topology", mesh.QuadMesh, "face_topology"),
        ("mesh.fingerprint", mesh.QuadMesh, "fingerprint"),
        ("mesh.copy", mesh.QuadMesh, "copy"),
        ("mesh.refine", mesh.QuadMesh, "refine"),
        ("estimator.dual_weights", estimator, "dual_weights"),
        ("estimator.indicator_terms", estimator, "indicator_terms"),
        ("sparse_la.cg_solve", sparse_la, "cg_solve"),
        ("sparse_la.apply_dirichlet", sparse_la, "apply_dirichlet"),
        ("marking.execute_adaptation", marking, "execute_adaptation"),
        ("slabs.split_slab_in_time", slabs.SlabList, "split_slab_in_time"),
        ("output.on_loop", output.OutputWriter, "on_loop"),
        ("output.finish", output.OutputWriter, "finish"),
    ]


class Tracer:
    """In-memory span recorder plus counters taken at the same boundaries."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(None)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            self._observe(name, out)
            return out

        return traced

    def _observe(self, name, out):
        if name == "sparse_la.cg_solve":
            self.counts["sparse_la.cg_iterations"] += out[1]
        elif name == "estimator.indicator_terms":
            self.counts["estimator.cells"] += len(out)

    def _count_locate(self, fn):
        def counted(*args, **kwargs):
            self.counts["mesh.locate_point.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_transfer(self, fn):
        def transfer(*args, **kwargs):
            before = self.counts["mesh.locate_point.calls"]
            out = fn(*args, **kwargs)
            if self.counts["mesh.locate_point.calls"] == before:
                self.counts["fem.transfer.fastpath"] += 1
            return out

        return transfer

    def install(self):
        from dwr_diffusion import mesh

        for name, owner, attr in _targets():
            fn = getattr(owner, attr)
            if name == "fem.transfer":
                fn = self._count_transfer(fn)
            self._replace(owner, attr, self.wrap(name, fn))
        self._replace(
            mesh.QuadMesh, "locate_point", self._count_locate(mesh.QuadMesh.locate_point)
        )
        return self

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def records(self):
        """Every span as ``[name, start, end, parent index]``, in call order.

        Times are seconds from the first span's start; a top-level span has
        parent ``-1``.
        """
        t0 = self.starts[0] if self.starts else 0.0
        return [
            [name, start - t0, end - t0, parent]
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
        ]

    def self_times(self):
        """Per span name: (calls, total duration, self time) in seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        child = [0.0] * len(self.names)
        for k, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[k] - self.starts[k]
        out = {}
        for k, name in enumerate(self.names):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            dur = self.ends[k] - self.starts[k]
            out[name] = (calls + 1, total + dur, own + dur - child[k])
        return out


def layer_metrics(tracer, result, wall_s):
    """Per-layer metrics of one traced solve: ``name -> (value, unit)``.

    Times are self times in seconds with their share of the traced wall
    time; counts are exact.  ``work.*`` describes the final loop's slabs.
    """
    spans = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name, _, _ in _targets():
        if name in ("fem.FeSpace", "mesh.copy"):  # reported as a total and a count below
            continue
        own = spans.get(name, (0, 0.0, 0.0))[2]
        out[f"{name}.self_s"] = (own, "s")
        out[f"{name}.share"] = (own / wall_s, "fraction")
    builds, build_s, _ = spans.get("fem.FeSpace", (0, 0.0, 0.0))
    out["fem.FeSpace.build_s"] = (build_s, "s")
    out["fem.FeSpace.share"] = (build_s / wall_s, "fraction")
    out["fem.FeSpace.builds"] = (builds, "count")
    transfers = spans.get("fem.transfer", (0,))[0]
    out["fem.transfer.calls"] = (transfers, "count")
    out["fem.transfer.fastpath_share"] = (
        counts["fem.transfer.fastpath"] / max(transfers, 1), "fraction"
    )
    out["mesh.locate_point.calls"] = (counts["mesh.locate_point.calls"], "count")
    out["mesh.copy.calls"] = (spans.get("mesh.copy", (0,))[0], "count")
    out["estimator.cells"] = (counts["estimator.cells"], "count")
    out["sparse_la.cg_iterations"] = (counts["sparse_la.cg_iterations"], "count")

    slabs = list(result.slabs)
    prints = [s.mesh.fingerprint() for s in slabs]
    same = sum(a == b for a, b in zip(prints, prints[1:]))
    out["work.identical_mesh_share"] = (same / max(len(slabs) - 1, 1), "fraction")
    out["work.loops"] = (len(result.records), "count")
    out["work.slabs_final"] = (len(slabs), "count")
    out["work.st_dofs_primal"] = (sum(s.primal.n_dofs for s in slabs), "count")
    out["work.st_dofs_dual"] = (sum(s.dual.n_dofs for s in slabs), "count")
    return out
