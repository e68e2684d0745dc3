"""Rotating-cone benchmark: analytic solution, derived data and control volume.

The analytic solution is a product of a moving rational bump (a cone of
width ~ 1/sqrt(a) circling the domain center once per unit time) and a
1-periodic arctan height profile with kinks at the half-period.  Forcing,
boundary and initial data are derived from it in closed form, so the
discrete solution can be compared against the exact one.

Points ``x`` have shape (..., 2) everywhere.  Time is handled two ways:

- ``ConeSolution.u``, ``u1``, ``grad``, ``dt``, ``laplacian`` and
  ``center``, and so ``ProblemData.rhs_f``, ``dirichlet_g`` and
  ``neumann_h``, take one scalar ``t``.  Each call evaluates the time-only
  factors (the center m, its velocity m', the height u2 and du2/dt) once,
  in Python floats through numpy's scalar ufuncs, and only the spatial part
  runs over the points.
- ``ConeSolution.u2`` and ``du2_dt``, and ``ControlVolume.trajectory`` and
  ``contains``, broadcast ``t`` against the points.  For a scalar ``t``
  outside its time window, ``contains`` returns an all-False mask without
  evaluating the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Coefficients:
    """Mass density and permeability; both strictly positive."""

    rho: float = 0.8
    epsilon: float = 1.2

    def __post_init__(self):
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
        if self.a <= 0:
            raise ValueError("cone sharpness a must be positive")

    def _time_factors(self, t):
        """Center m, center velocity m', u2 and du2/dt at one scalar time, as floats."""
        t = float(t)
        cos, sin = float(np.cos(TWO_PI * t)), float(np.sin(TWO_PI * t))
        u2, du2 = self._height(float(t - np.floor(t)))
        m = (0.5 + 0.25 * cos, 0.5 + 0.25 * sin)
        velocity = (-0.5 * math.pi * sin, 0.5 * math.pi * cos)
        return m, velocity, float(u2), du2

    def _height(self, th):
        """u2 and du2/dt at the fractional time ``th``, a float or an array.

        nu1 is -1 before the half period and 1 from it on; nu2 is linear
        over each half period.
        """
        first = th < 0.5
        nu1 = 1.0 - 2.0 * first
        nu2 = 5 * math.pi * (4 * th - (3.0 - 2.0 * first))
        scale = nu1 * self.s
        return scale * np.arctan(nu2), scale * 20 * math.pi / (1 + nu2 * nu2)

    def _bump(self, x, m):
        """u1 = 1 / (1 + a r^2) at points ``x`` for the center ``m``, with x - m and r^2."""
        dx, dy = x[..., 0] - m[0], x[..., 1] - m[1]
        r2 = dx ** 2 + dy ** 2
        return 1.0 / (1.0 + self.a * r2), dx, dy, r2

    def center(self, t):
        """Cone center m(t) as two floats."""
        return self._time_factors(t)[0]

    def u1(self, x, t):
        return self._bump(np.asarray(x, dtype=float), self.center(t))[0]

    def u2(self, t):
        t = np.asarray(t, dtype=float)
        return self._height(t - np.floor(t))[0]

    def du2_dt(self, t):
        t = np.asarray(t, dtype=float)
        return self._height(t - np.floor(t))[1]

    def u(self, x, t):
        m, _, u2, _ = self._time_factors(t)
        return self._bump(np.asarray(x, dtype=float), m)[0] * u2

    def grad(self, x, t):
        """Spatial gradient, shape (..., 2)."""
        m, _, u2, _ = self._time_factors(t)
        w1, dx, dy, _ = self._bump(np.asarray(x, dtype=float), m)
        common = -2.0 * self.a * w1 * w1 * u2
        return np.stack([common * dx, common * dy], axis=-1)

    def dt(self, x, t):
        """Time derivative; on the temporal kinks the right-limit branch is used."""
        m, (v1, v2), u2, du2 = self._time_factors(t)
        w1, dx, dy, _ = self._bump(np.asarray(x, dtype=float), m)
        du1 = 2.0 * self.a * w1 * w1 * (dx * v1 + dy * v2)
        return du1 * u2 + w1 * du2

    def laplacian(self, x, t):
        m, _, u2, _ = self._time_factors(t)
        w1, _, _, r2 = self._bump(np.asarray(x, dtype=float), m)
        lap_u1 = -4.0 * self.a * w1 * w1 * (1.0 - 2.0 * self.a * w1 * r2)
        return lap_u1 * u2


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
        if t.ndim == 0 and not inside_t:
            return np.zeros(x.shape[:-1], dtype=bool)
        mx, my = self.trajectory(t)
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

    The Neumann flux is the outward co-normal derivative on the x = 0
    boundary part (outward normal (-1, 0)).
    """

    solution: ConeSolution = field(default_factory=ConeSolution)
    coefficients: Coefficients = field(default_factory=Coefficients)
    t0: float = 0.0

    def rhs_f(self, x, t):
        c = self.coefficients
        return c.rho * self.solution.dt(x, t) - c.epsilon * self.solution.laplacian(x, t)

    def dirichlet_g(self, x, t):
        return self.solution.u(x, t)

    def neumann_h(self, x, t):
        return -self.coefficients.epsilon * self.solution.grad(x, t)[..., 0]

    def initial(self, x):
        return self.solution.u(x, self.t0)
