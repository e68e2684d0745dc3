"""Two-fraction marking and execution of space-time adaptation.

Slabs whose indicator sum lies in the top fraction theta_tau are marked
for time refinement; within each slab the cells in the top fraction
theta_h1 (slab not time-marked) or theta_h2 (time-marked) of largest
absolute indicators are marked for spatial refinement.  Fractions are
count-based (ceil of fraction times population) with stable index
tie-breaking, so identical inputs always produce identical marks.
Indicators are arrays in ``active_ids()`` order; marks are index arrays.
Every mark is checked before any slab changes, so a refused one leaves
the whole list as it was.  Spatial refinement runs first, then the time
splits, whose halves share the refined meshes; the refined meshes' primal
spaces are built in one pass (:meth:`SlabList.refine`), their dual spaces
by the next dual march.  :func:`adapt_slabs` is one loop's whole step; a
loop that marks nothing would repeat itself, so it raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import check_integers
from .slabs import check_slab_indices


@dataclass(frozen=True)
class AdaptParams:
    theta_tau: float = 0.5
    theta_h1: float = 0.3
    theta_h2: float = 0.15
    tol_mode: str = "relative"
    tol: float = 1e-2
    max_loops: int = 25
    skip_zero_indicators: bool = True

    def __post_init__(self):
        check_integers(self, "max_loops")
        if not 0.0 <= self.theta_tau <= 1.0:
            raise ValueError("theta_tau must lie in [0, 1]")
        if not 0.0 <= self.theta_h2 <= self.theta_h1 <= 1.0:
            raise ValueError("need 0 <= theta_h2 <= theta_h1 <= 1")
        if self.tol_mode not in ("absolute", "relative"):
            raise ValueError("tol_mode must be 'absolute' or 'relative'")
        if not math.isfinite(self.tol):
            raise ValueError(f"AdaptParams.tol must be finite, got {self.tol!r}")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_loops < 1:
            raise ValueError("max_loops must be >= 1")


def _top_fraction(values, fraction, skip_zero):
    """Positions of the ceil(fraction * n) largest values, ties to the lower position."""
    values = np.asarray(values, dtype=float)
    top = np.argsort(-values, kind="stable")[:math.ceil(fraction * len(values))]
    return top[values[top] > 0.0] if skip_zero else top


def mark_time_slabs(estimate, theta_tau, skip_zero=False):
    """Indices of slabs in the top fraction of per-slab indicator sums."""
    return _top_fraction(estimate.eta_slabs, theta_tau, skip_zero)


def mark_space_cells(slab, indicators, time_marked, theta_h1, theta_h2,
                     skip_zero=False):
    """Cell ids of one slab in the top fraction of absolute indicators.

    ``indicators`` is aligned with ``slab.mesh.active_ids()``.  The smaller
    fraction applies when the slab is already marked for time refinement.
    """
    theta = theta_h2 if time_marked else theta_h1
    return slab.mesh.active_ids()[_top_fraction(np.abs(indicators), theta, skip_zero)]


def execute_adaptation(slabs, time_marks, space_marks):
    """Refine slab meshes, then split the time-marked slabs.

    ``space_marks`` maps slab index to an array (or set) of cell ids.  The
    marked slabs' meshes are refined on private copies (with 1-irregularity
    closure) and their primal spaces built in one pass, by
    :meth:`SlabList.refine`; every slab drops its storage.  Afterwards each
    time-marked slab is bisected, both halves sharing the already-refined
    mesh and spaces.
    Before any slab changes, ValueError names a time mark that is not an
    integer in [0, n), n slabs, or is repeated, and then whatever
    :meth:`SlabList.refine` refuses: a space-mark key that is not a slab
    index, or a space mark that is not an active cell id.
    """
    time_marks = sorted(time_marks, reverse=True)
    check_slab_indices(time_marks, len(slabs), "time mark")
    for k, lower in zip(time_marks, time_marks[1:]):
        if k == lower:
            raise ValueError(f"time mark {k} is repeated; a slab is split at most once per loop")
    slabs.refine(space_marks)
    for slab in slabs:
        slab.clear_storage()
    for k in time_marks:
        slabs.split_slab_in_time(k)
    return slabs


def adapt_slabs(slabs, estimate, params, loop):
    """Mark by the :class:`AdaptParams` ``params`` and adapt; errors name ``loop``."""
    skip = params.skip_zero_indicators
    time_marks = mark_time_slabs(estimate, params.theta_tau, skip_zero=skip)
    space_marks = {
        k: mark_space_cells(slab, estimate.cell_indicators[k], k in time_marks,
                            params.theta_h1, params.theta_h2, skip_zero=skip)
        for k, slab in slabs.iterate_forward()
    }
    if not any(map(len, [time_marks, *space_marks.values()])):
        raise ValueError(
            f"loop {loop}: no slab and no cell is marked "
            f"(theta_tau = {params.theta_tau:g}, theta_h1 = {params.theta_h1:g}, "
            f"theta_h2 = {params.theta_h2:g}, skip_zero_indicators = "
            f"{str(skip).lower()}), so every later loop would repeat this one")
    execute_adaptation(slabs, time_marks, space_marks)
