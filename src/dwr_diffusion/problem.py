"""Rotating-cone benchmark: analytic solution, derived data and control volume.

The analytic solution is a product of a moving rational bump (a cone of
width ~ 1/sqrt(a) circling the domain center once per unit time) and a
1-periodic arctan height profile with kinks at the half-period.  Forcing,
boundary and initial data are derived from it in closed form, so the
discrete solution can be compared against the exact one.

One time contract holds for every data method: points ``x`` have shape
(..., 2), and ``t`` is a scalar or an array that broadcasts against
``x.shape[:-1]``; the result has the broadcast shape.  The time-only
factors (the center m, its velocity m', the height u2 and du2/dt, the
control volume's trajectory) are evaluated once per run of equal
consecutive entries of ``t``, in Python floats, and repeated over the run;
only the spatial part runs over the points.  So a time per point costs a
copy per factor, not a cosine per point.  ``ConeSolution.u2`` and
``du2_dt`` and ``ControlVolume.trajectory`` take ``t`` alone.  Where no entry of ``t``
lies inside its time window, ``contains`` returns an all-False mask
without evaluating the points.

:func:`blocks` is the one block evaluator of the solver's data passes: it
gathers consecutive (points, time) units, a slab's cell rule or Neumann
faces at one quadrature time each, into blocks of at most
:data:`BLOCK_POINTS` points (:class:`Block` gives the layouts), so that a
pass over all slabs of a loop makes one data call per block of small
slabs.  Every value comes from the same elementwise operations as a call
per unit, so it is bitwise the same.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import mesh

TWO_PI = 2.0 * math.pi
BLOCK_POINTS = 2 ** 12  # points per data call of a block pass, bounding its temporaries


def _per_run(fn, t):
    """``fn`` once per run of bit-equal consecutive entries of ``t``, repeated over the run.

    ``fn`` maps a float time to a tuple of floats; the result is that tuple
    for a scalar ``t`` and a tuple of arrays shaped like ``t`` otherwise.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return fn(float(t))
    flat = t.ravel()
    if not flat.size:
        return tuple(np.empty(t.shape) for _ in fn(0.0))
    bits = flat.view(np.int64)
    first = np.flatnonzero(np.concatenate([[True], bits[1:] != bits[:-1]]))
    values = np.array([fn(time) for time in flat[first].tolist()], dtype=float).T
    if len(first) < flat.size:
        values = np.repeat(values, np.diff(first, append=flat.size), axis=1)
    return tuple(column.reshape(t.shape) for column in values)


def _cone_time_factors(s, t):
    """m_x, m_y, m'_x, m'_y, u2 and du2/dt of the cone with height scale ``s`` at the float ``t``."""
    cos, sin = float(np.cos(TWO_PI * t)), float(np.sin(TWO_PI * t))
    u2, du2 = _cone_height(s, float(t - np.floor(t)))
    return (0.5 + 0.25 * cos, 0.5 + 0.25 * sin, -0.5 * math.pi * sin, 0.5 * math.pi * cos,
            float(u2), du2)


def _cone_height(s, th):
    """u2 and du2/dt of height scale ``s`` at the fractional times ``th``.

    nu1 is -1 before the half period and 1 from it on; nu2 is linear over
    each half period.
    """
    first = th < 0.5
    nu1 = 1.0 - 2.0 * first
    nu2 = 5 * math.pi * (4 * th - (3.0 - 2.0 * first))
    scale = nu1 * s
    return scale * np.arctan(nu2), scale * 20 * math.pi / (1 + nu2 * nu2)


def _require_finite(obj, *names):
    """ValueError naming the first field of ``obj`` among ``names`` with a non-finite entry."""
    for name in names:
        value = getattr(obj, name)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Coefficients:
    """Mass density and permeability; both strictly positive."""

    rho: float = 0.8
    epsilon: float = 1.2

    def __post_init__(self):
        _require_finite(self, "rho", "epsilon")
        if self.rho <= 0 or self.epsilon <= 0:
            raise ValueError("coefficients must be positive")


@dataclass(frozen=True)
class ConeSolution:
    """Analytic rotating cone with time-dependent height.

    u(x, t) = u1(x, t) * u2(t) with
      u1 = 1 / (1 + a |x - m(t)|^2),   m(t) = (1/2 + cos(2 pi t)/4,
                                               1/2 + sin(2 pi t)/4)
      u2 = nu1 * s * arctan(nu2),  branchwise linear nu2 over each half
           period (kinks at fractional times 0 and 1/2; the right-limit
           branch is used on the kinks themselves).
    """

    a: float = 50.0
    s: float = -0.3333

    def __post_init__(self):
        _require_finite(self, "a", "s")
        if self.a <= 0:
            raise ValueError("cone sharpness a must be positive")

    def _time_factors(self, t):
        """m_x, m_y, m'_x, m'_y, u2 and du2/dt at the times ``t``, shaped like ``t``."""
        return _per_run(functools.partial(_cone_time_factors, self.s), t)

    def _bump(self, x, m):
        """u1 = 1 / (1 + a r^2) at points ``x`` for the center ``m``, with x - m and r^2."""
        dx, dy = x[..., 0] - m[0], x[..., 1] - m[1]
        r2 = dx ** 2 + dy ** 2
        return 1.0 / (1.0 + self.a * r2), dx, dy, r2

    def center(self, t):
        """Cone center m(t) as two arrays shaped like ``t``."""
        return self._time_factors(t)[:2]

    def u1(self, x, t):
        return self._bump(np.asarray(x, dtype=float), self.center(t))[0]

    def u2(self, t):
        t = np.asarray(t, dtype=float)
        return _cone_height(self.s, t - np.floor(t))[0]

    def du2_dt(self, t):
        t = np.asarray(t, dtype=float)
        return _cone_height(self.s, t - np.floor(t))[1]

    def u(self, x, t):
        m_x, m_y, _, _, u2, _ = self._time_factors(t)
        return self._bump(np.asarray(x, dtype=float), (m_x, m_y))[0] * u2

    def grad(self, x, t):
        """Spatial gradient, shape (..., 2)."""
        m_x, m_y, _, _, u2, _ = self._time_factors(t)
        w1, dx, dy, _ = self._bump(np.asarray(x, dtype=float), (m_x, m_y))
        common = -2.0 * self.a * w1 * w1 * u2
        return np.stack([common * dx, common * dy], axis=-1)

    def dt(self, x, t):
        """Time derivative; on the temporal kinks the right-limit branch is used."""
        return self.dt_and_laplacian(x, t)[0]

    def laplacian(self, x, t):
        return self.dt_and_laplacian(x, t)[1]

    def dt_and_laplacian(self, x, t):
        """:meth:`dt` and :meth:`laplacian` from one time-factor pass and one bump."""
        m_x, m_y, v1, v2, u2, du2 = self._time_factors(t)
        w1, dx, dy, r2 = self._bump(np.asarray(x, dtype=float), (m_x, m_y))
        du1 = 2.0 * self.a * w1 * w1 * (dx * v1 + dy * v2)
        lap_u1 = -4.0 * self.a * w1 * w1 * (1.0 - 2.0 * self.a * w1 * r2)
        return du1 * u2 + w1 * du2, lap_u1 * u2


@dataclass(frozen=True)
class ControlVolume:
    """Axis-aligned box translating on a circle around the domain center.

    Membership is ``t`` strictly inside the time window and
    ``x - center - m(t)`` inside the box, half-open (lower bounds closed,
    upper bounds open).  Construction corner-samples the swept box against
    the bounding box of the domain.
    """

    box: tuple = (-0.1, 0.1, -0.1, 0.1)  # x_min, x_max, y_min, y_max
    r1: float = 0.25
    omega: float = TWO_PI
    t_start: float = 0.25
    t_end: float = 1.0
    center: tuple = (0.5, 0.5)
    domain_bounds: tuple = (0.0, 1.0, 0.0, 1.0)

    def __post_init__(self):
        _require_finite(self, "box", "r1", "omega", "t_start", "t_end", "center", "domain_bounds")
        x_min, x_max, y_min, y_max = self.box
        if not (x_min < x_max and y_min < y_max):
            raise ValueError("degenerate control-volume box")
        if not self.t_start < self.t_end:
            raise ValueError("degenerate control-volume time window")
        dx_min, dx_max, dy_min, dy_max = self.domain_bounds
        for t in np.linspace(self.t_start, self.t_end, 65):
            mx, my = self.trajectory(t)
            lo_x, hi_x = self.center[0] + mx + x_min, self.center[0] + mx + x_max
            lo_y, hi_y = self.center[1] + my + y_min, self.center[1] + my + y_max
            if lo_x < dx_min - 1e-12 or hi_x > dx_max + 1e-12:
                raise ValueError(f"control volume leaves the domain bounds at t={t}")
            if lo_y < dy_min - 1e-12 or hi_y > dy_max + 1e-12:
                raise ValueError(f"control volume leaves the domain bounds at t={t}")

    def trajectory(self, t):
        t = np.asarray(t, dtype=float)
        return self.r1 * np.cos(self.omega * t), self.r1 * np.sin(self.omega * t)

    def contains(self, x, t):
        """Boolean membership, broadcast over points; see the module docstring."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        inside_t = (t > self.t_start) & (t < self.t_end)
        if not inside_t.any():
            return np.zeros(np.broadcast(x[..., 0], t).shape, dtype=bool)
        mx, my = _per_run(self.trajectory, t)
        dx = x[..., 0] - self.center[0] - mx
        dy = x[..., 1] - self.center[1] - my
        x_min, x_max, y_min, y_max = self.box
        inside_x = (dx >= x_min) & (dx < x_max) & (dy >= y_min) & (dy < y_max)
        return inside_t & inside_x


def in_control_volume(x, t, cv):
    return cv.contains(x, t)


@dataclass(frozen=True)
class ProblemData:
    """Forcing, boundary and initial data derived from an analytic solution.

    The solution provides ``u``, ``grad`` and ``dt_and_laplacian`` (the time
    derivative and the Laplacian from one call).  The Neumann flux is the
    outward co-normal derivative on the x = 0 boundary part (outward normal
    (-1, 0)).
    """

    solution: ConeSolution = field(default_factory=ConeSolution)
    coefficients: Coefficients = field(default_factory=Coefficients)
    t0: float = 0.0

    def __post_init__(self):
        _require_finite(self, "t0")

    def rhs_f(self, x, t):
        c = self.coefficients
        dt, laplacian = self.solution.dt_and_laplacian(x, t)
        return c.rho * dt - c.epsilon * laplacian

    def dirichlet_g(self, x, t):
        return self.solution.u(x, t)

    def neumann_h(self, x, t):
        return -self.coefficients.epsilon * self.solution.grad(x, t)[..., 0]

    def initial(self, x):
        return self.solution.u(x, self.t0)


class Block(NamedTuple):
    """The points and times of consecutive units for one data call.

    A block of one unit holds its points and its scalar time.  A block of
    several units concatenates their rows of points in ``x`` (rows, q, 2)
    and gives each point its unit's time in ``t`` (rows, q), so that every
    elementwise operation of the data runs over arrays of one shape (a
    (rows, 1) time would make numpy loop over rows of q points, at twice
    the cost).  The data still evaluate their time factors once per run of
    equal times.  Results are (rows, q), and ``spans`` holds each unit's
    ``(start, stop)`` rows.
    """

    x: np.ndarray
    t: np.ndarray
    spans: list

    def evaluate(self, fn):
        """``fn(x, t)`` as (rows, q); no call where the block holds no point."""
        shape = self.x.shape[:-1]
        if not self.x.size:
            return np.zeros(shape)
        values = fn(self.x, self.t)
        if np.shape(values) != shape:  # data constant in x or t
            values = np.broadcast_to(values, shape)
        return values

    def at(self, points):
        """The coordinates (n, 2) and times of the given points of the flattened result."""
        flat = self.x.reshape(-1, 2)
        return flat[points], self.t if self.t.ndim == 0 else self.t.ravel()[points]


def blocks(units):
    """Consecutive ``(x, t)`` units gathered into :class:`Block` values of at most
    :data:`BLOCK_POINTS` points.

    Each unit's ``x`` holds rows of points, shape (rows, q, 2), all at the
    scalar time ``t``.  Each run of units of one q is cut by
    :func:`mesh.blocks`, so a unit over the budget is a block of its own.
    """
    for _, run in itertools.groupby(units, lambda unit: unit[0].shape[1:]):
        yield from map(_block, mesh.blocks(run, lambda unit: unit[0].size // 2, BLOCK_POINTS))


def _block(units):
    if len(units) == 1:
        x, t = units[0]
        return Block(x, np.asarray(t, dtype=float), [(0, len(x))])
    lengths = [len(x) for x, _ in units]
    rows = np.cumsum([0] + lengths).tolist()
    x = np.concatenate([x for x, _ in units])
    times = np.array([t for _, t in units], dtype=float)
    t = np.repeat(times, x.shape[1] * np.array(lengths)).reshape(x.shape[:-1])
    return Block(x, t, list(zip(rows[:-1], rows[1:])))


def evaluate_in_blocks(fn, units):
    """``fn(x, t)`` at each ``(x, t)`` unit's points, (rows, q) per unit in unit order.

    One call per block of :func:`blocks`; each unit's values are a view of
    its block's result.
    """
    for block in blocks(units):
        values = block.evaluate(fn)
        yield from (values[a:b] for a, b in block.spans)


def forcing_in_blocks(data, parts):
    """``data.rhs_f`` and ``data.neumann_h`` of each ``(cell points, Neumann points, times)`` part.

    Yields one pair per part, in order: the lists over its times of f at
    its cell points and of h at its Neumann points, from one
    :func:`evaluate_in_blocks` pass per data function.
    """
    parts = list(parts)
    f = evaluate_in_blocks(data.rhs_f, ((cells, t) for cells, _, ts in parts for t in ts))
    h = evaluate_in_blocks(data.neumann_h, ((faces, t) for _, faces, ts in parts for t in ts))
    for _, _, ts in parts:
        yield [next(f) for _ in ts], [next(h) for _ in ts]
