import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwr_diffusion import problem
from dwr_diffusion.problem import (
    Coefficients,
    ConeSolution,
    ControlVolume,
    ProblemData,
    in_control_volume,
)

SOL = ConeSolution(a=50.0, s=-0.3333)
DATA = ProblemData()


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def fd_gradient(u, x, t, h=1e-6):
    out = np.zeros(2)
    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        out[d] = (u(x + e, t) - u(x - e, t)) / (2 * h)
    return out


def fd_laplacian(u, x, t, h=2e-4):
    val = u(x, t)
    total = 0.0
    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        total += (u(x + e, t) - 2 * val + u(x - e, t)) / h**2
    return total


def smooth_random_samples(rng, n):
    """Random (x, t) away from the temporal kinks of the height profile."""
    pts = []
    while len(pts) < n:
        x = rng.uniform(0.05, 0.95, size=2)
        t = rng.uniform(0.0, 2.0)
        frac = t - math.floor(t)
        if min(abs(frac), abs(frac - 0.5), abs(frac - 1.0)) > 1e-2:
            pts.append((x, t))
    return pts


class TestExactSolution:
    def test_cone_center_value_at_t0(self):
        # at the cone center only the height factor remains
        val = SOL.u(np.array([0.75, 0.5]), 0.0)
        expected = (-1.0) * (-0.3333) * math.atan(-5 * math.pi)
        assert val == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.5024, abs=5e-4)

    def test_height_continuous_at_half_period(self):
        left = (-1.0) * SOL.s * math.atan(5 * math.pi * (4 * 0.4999999 - 1))
        right = SOL.u2(0.5)
        assert right == pytest.approx((1.0) * SOL.s * math.atan(-5 * math.pi), abs=1e-15)
        assert right == pytest.approx(left, abs=1e-5)

    def test_far_field_bump_value(self):
        u1 = SOL.u1(np.array([0.0, 0.0]), 0.0)
        assert u1 == pytest.approx(1.0 / (1.0 + 50.0 * (0.5625 + 0.25)), abs=1e-15)
        assert u1 == pytest.approx(0.02402, abs=5e-6)

    def test_periodicity(self, rng):
        for _ in range(25):
            x = rng.uniform(0, 1, size=2)
            t = rng.uniform(0, 1)
            assert SOL.u(x, t + 1.0) == pytest.approx(SOL.u(x, t), abs=1e-14)

    def test_boundedness(self, rng):
        xs = rng.uniform(-2, 2, size=(500, 2))
        ts = rng.uniform(0, 3, size=500)
        u1 = np.array([SOL.u1(x, t) for x, t in zip(xs, ts)])
        u2 = SOL.u2(ts)
        assert np.all(np.abs(u1) <= 1.0 + 1e-15)
        assert np.all(np.abs(u2) <= abs(SOL.s) * math.pi / 2 + 1e-15)

    def test_temporal_continuity_at_kinks(self, rng):
        eps = 1e-13
        for tk in (0.5, 1.0):
            for _ in range(10):
                x = rng.uniform(0, 1, size=2)
                assert SOL.u(x, tk - eps) == pytest.approx(SOL.u(x, tk), abs=1e-11)

    def test_vectorized_evaluation_matches_scalar(self, rng):
        xs = rng.uniform(0, 1, size=(20, 2))
        t = 0.37
        vals = SOL.u(xs, t)
        for k in range(20):
            assert vals[k] == pytest.approx(SOL.u(xs[k], t), abs=1e-15)


class TestDerivatives:
    def test_gradient_vanishes_at_cone_center(self):
        m = np.array(SOL.center(0.2))
        assert np.allclose(SOL.grad(m, 0.2), 0.0, atol=1e-14)

    def test_gradient_against_finite_differences(self, rng):
        for x, t in smooth_random_samples(rng, 100):
            exact = SOL.grad(x, t)
            approx = fd_gradient(SOL.u, x, t)
            assert np.allclose(exact, approx, rtol=1e-5, atol=1e-7)

    def test_time_derivative_against_finite_differences(self, rng):
        for x, t in smooth_random_samples(rng, 100):
            exact = SOL.dt(x, t)
            approx = central_diff(lambda s: SOL.u(x, s), t)
            assert exact == pytest.approx(approx, rel=1e-5, abs=1e-6)

    def test_laplacian_against_finite_differences(self, rng):
        for x, t in smooth_random_samples(rng, 50):
            exact = SOL.laplacian(x, t)
            approx = fd_laplacian(SOL.u, x, t)
            assert exact == pytest.approx(approx, rel=2e-4, abs=2e-4)


class TestDerivedData:
    def test_rhs_consistency_with_fd_oracle(self, rng):
        c = DATA.coefficients
        for x, t in smooth_random_samples(rng, 100):
            lhs = c.rho * central_diff(lambda s: SOL.u(x, s), t) - c.epsilon * fd_laplacian(
                SOL.u, x, t
            )
            assert lhs == pytest.approx(float(DATA.rhs_f(x, t)), rel=1e-3, abs=1e-4)

    def test_dirichlet_matches_solution(self, rng):
        for _ in range(20):
            x = np.array([rng.uniform(0, 1), 0.0])
            t = rng.uniform(0, 1.25)
            assert DATA.dirichlet_g(x, t) == SOL.u(x, t)

    def test_neumann_sign_convention(self):
        # flux through x = 0 with outward normal (-1, 0): compare against a
        # one-sided finite difference of u along -x
        x = np.array([0.0, 0.5])
        t = 0.1
        h = 1e-6
        du_dx = (SOL.u(np.array([h, 0.5]), t) - SOL.u(np.array([-h, 0.5]), t)) / (2 * h)
        expected = DATA.coefficients.epsilon * (-du_dx)
        assert float(DATA.neumann_h(x, t)) == pytest.approx(expected, rel=1e-6, abs=1e-9)

    def test_initial_value(self, rng):
        xs = rng.uniform(0, 1, size=(10, 2))
        assert np.allclose(DATA.initial(xs), SOL.u(xs, 0.0), atol=1e-15)


class TestCoefficients:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            Coefficients(rho=0.0)
        with pytest.raises(ValueError):
            Coefficients(epsilon=-1.0)


class TestControlVolume:
    def test_before_window(self):
        cv = ControlVolume()
        assert not cv.contains(np.array([0.5, 0.75]), 0.2)

    def test_on_trajectory_inside(self):
        cv = ControlVolume()
        t = 0.5
        mx, my = cv.trajectory(t)
        x = np.array([0.5 + mx, 0.5 + my])
        assert cv.contains(x, t)

    def test_after_window(self):
        cv = ControlVolume()
        assert not cv.contains(np.array([0.5, 0.5]), 1.1)

    def test_half_open_box(self):
        # power-of-two geometry so corner coordinates are exact floats
        cv = ControlVolume(box=(-0.125, 0.125, -0.125, 0.125), r1=0.25, omega=0.0)
        t = 0.5
        lower = np.array([0.5 + 0.25 - 0.125, 0.5 - 0.125])
        upper = np.array([0.5 + 0.25 + 0.125, 0.5 + 0.125])
        assert cv.contains(lower, t)        # closed lower bound
        assert not cv.contains(upper, t)    # open upper bound

    def test_function_alias(self):
        cv = ControlVolume()
        assert bool(in_control_volume(np.array([0.5, 0.25]), 0.75, cv)) == bool(
            cv.contains(np.array([0.5, 0.25]), 0.75)
        )

    def test_leaving_domain_bounds_rejected(self):
        with pytest.raises(ValueError):
            ControlVolume(r1=0.5)  # swings outside the unit square

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            ControlVolume(box=(0.1, -0.1, -0.1, 0.1))

    def test_vectorized_membership(self, rng):
        cv = ControlVolume()
        xs = rng.uniform(0, 1, size=(50, 2))
        mask = cv.contains(xs, 0.6)
        for k in range(50):
            assert mask[k] == cv.contains(xs[k], 0.6)


# -- bit-identity against the per-call numpy evaluation ------------------------


class ReferenceCone(ConeSolution):
    """The earlier implementation, kept verbatim as the oracle: every time factor
    is recomputed by 0-d numpy operations in each call."""

    def center(self, t):
        t = np.asarray(t, dtype=float)
        return (
            0.5 + 0.25 * np.cos(2.0 * math.pi * t),
            0.5 + 0.25 * np.sin(2.0 * math.pi * t),
        )

    def _center_velocity(self, t):
        t = np.asarray(t, dtype=float)
        return (
            -0.5 * math.pi * np.sin(2.0 * math.pi * t),
            0.5 * math.pi * np.cos(2.0 * math.pi * t),
        )

    def _branch(self, t):
        th = np.asarray(t, dtype=float)
        th = th - np.floor(th)
        first = th < 0.5
        nu1 = np.where(first, -1.0, 1.0)
        nu2 = np.where(first, 5 * math.pi * (4 * th - 1), 5 * math.pi * (4 * th - 3))
        return nu1, nu2

    def u1(self, x, t):
        x = np.asarray(x, dtype=float)
        m1, m2 = self.center(t)
        r2 = (x[..., 0] - m1) ** 2 + (x[..., 1] - m2) ** 2
        return 1.0 / (1.0 + self.a * r2)

    def u2(self, t):
        nu1, nu2 = self._branch(t)
        return nu1 * self.s * np.arctan(nu2)

    def du2_dt(self, t):
        nu1, nu2 = self._branch(t)
        return nu1 * self.s * 20 * math.pi / (1 + nu2 * nu2)

    def u(self, x, t):
        return self.u1(x, t) * self.u2(t)

    def grad(self, x, t):
        x = np.asarray(x, dtype=float)
        m1, m2 = self.center(t)
        w1 = self.u1(x, t)
        common = -2.0 * self.a * w1 * w1 * self.u2(t)
        return np.stack(
            [common * (x[..., 0] - m1), common * (x[..., 1] - m2)], axis=-1
        )

    def dt(self, x, t):
        x = np.asarray(x, dtype=float)
        m1, m2 = self.center(t)
        v1, v2 = self._center_velocity(t)
        w1 = self.u1(x, t)
        du1 = 2.0 * self.a * w1 * w1 * ((x[..., 0] - m1) * v1 + (x[..., 1] - m2) * v2)
        return du1 * self.u2(t) + w1 * self.du2_dt(t)

    def laplacian(self, x, t):
        x = np.asarray(x, dtype=float)
        m1, m2 = self.center(t)
        r2 = (x[..., 0] - m1) ** 2 + (x[..., 1] - m2) ** 2
        w1 = 1.0 / (1.0 + self.a * r2)
        lap_u1 = -4.0 * self.a * w1 * w1 * (1.0 - 2.0 * self.a * w1 * r2)
        return lap_u1 * self.u2(t)

    def dt_and_laplacian(self, x, t):
        return self.dt(x, t), self.laplacian(x, t)


def reference_contains(cv, x, t):
    """The earlier ``ControlVolume.contains``, which evaluates every point at every t."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    inside_t = (t > cv.t_start) & (t < cv.t_end)
    mx, my = cv.trajectory(t)
    dx = x[..., 0] - cv.center[0] - mx
    dy = x[..., 1] - cv.center[1] - my
    x_min, x_max, y_min, y_max = cv.box
    inside_x = (dx >= x_min) & (dx < x_max) & (dy >= y_min) & (dy < y_max)
    return inside_t & inside_x


def oracle_times(rng):
    """2000 random times in [-1, 3], the kinks, the window ends and the quadrature
    times of the 5 initial slabs of the shipped file (load, goal and estimator rules)."""
    from dwr_diffusion.slabs import init_slabs
    from dwr_diffusion import make_lshape

    times = [*rng.uniform(-1.0, 3.0, 2000), 0.0, 0.5, 1.0, 1.5, 0.25, 1.0]
    for slab in init_slabs(make_lshape(), 0.0, 1.25, 5):
        times += [slab.interval.t_n]
        for n in (2, 3):
            times += list(slab.interval.gauss_points(n)[0])
    return times


def test_cone_functions_are_bit_identical_to_the_reference(rng):
    x = rng.uniform(-0.5, 1.5, size=(16, 9, 2))
    ref = ReferenceCone(a=SOL.a, s=SOL.s)
    ref_data = ProblemData(solution=ref)
    for t in oracle_times(rng):
        for name in ("u", "grad", "dt", "laplacian"):
            got, expected = getattr(SOL, name)(x, t), getattr(ref, name)(x, t)
            assert got.shape == expected.shape and np.array_equal(got, expected), (name, t)
        for name in ("rhs_f", "neumann_h", "dirichlet_g"):
            got, expected = getattr(DATA, name)(x, t), getattr(ref_data, name)(x, t)
            assert got.shape == expected.shape and np.array_equal(got, expected), (name, t)


def test_height_profile_broadcasts_bit_identically(rng):
    ts = np.array(oracle_times(rng))
    ref = ReferenceCone(a=SOL.a, s=SOL.s)
    assert np.array_equal(SOL.u2(ts), ref.u2(ts))
    assert np.array_equal(SOL.du2_dt(ts), ref.du2_dt(ts))
    assert np.array_equal(SOL.u2(ts.reshape(-1, 2)), ref.u2(ts.reshape(-1, 2)))


def test_control_volume_membership_is_bit_identical_to_the_reference(rng):
    cv = ControlVolume()
    x = rng.uniform(0.0, 1.0, size=(40, 9, 2))
    for t in oracle_times(rng)[:300] + [0.25, 1.0, np.nextafter(0.25, 1), np.nextafter(1.0, 0)]:
        got = cv.contains(x, t)
        assert got.dtype == bool and np.array_equal(got, reference_contains(cv, x, t)), t
    ts = rng.uniform(0.0, 1.25, size=(40, 9))
    assert np.array_equal(cv.contains(x, ts), reference_contains(cv, x, ts))


@pytest.mark.parametrize("t", [-1.0, 0.1, 0.25, 1.0, 1.1, np.float64(3.0)])
@pytest.mark.parametrize("shape", [(7, 9), (5,), ()])
def test_membership_outside_the_window_evaluates_no_point(monkeypatch, t, shape):
    cv = ControlVolume()

    def refuse(self, t):
        raise AssertionError("trajectory evaluated outside the time window")

    monkeypatch.setattr(ControlVolume, "trajectory", refuse)
    mask = cv.contains(np.full(shape + (2,), 0.5), t)
    assert mask.shape == shape and mask.dtype == bool and not mask.any()


@pytest.mark.parametrize("layout", ["rows", "units", "points"])
def test_time_arrays_are_bit_identical_to_the_reference(rng, layout):
    """One time per row of points, per time over one array of points, or per point:
    the values equal the reference's, which evaluates every entry of t alone."""
    x = rng.uniform(-0.5, 1.5, size=(12, 9, 2))
    times = np.array([0.0, -0.0, 0.5, 0.25, 1.0, *rng.uniform(-1.0, 3.0, 7)])
    t = {"rows": np.repeat(times, 1)[:, None],  # runs of one row
         "units": times[:, None, None],  # x broadcast against each time
         "points": np.repeat(times[:4], 27).reshape(12, 9)}[layout]
    ref = ReferenceCone(a=SOL.a, s=SOL.s)
    ref_data = ProblemData(solution=ref)
    for name in ("u", "grad", "dt", "laplacian"):
        got, expected = getattr(SOL, name)(x, t), getattr(ref, name)(x, t)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name
    for name in ("rhs_f", "neumann_h", "dirichlet_g"):
        got, expected = getattr(DATA, name)(x, t), getattr(ref_data, name)(x, t)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name
    cv = ControlVolume()
    assert np.array_equal(cv.contains(x, t), reference_contains(cv, x, t))


def test_repeated_times_evaluate_the_time_factors_once_per_run(monkeypatch):
    calls = []
    cv = ControlVolume()
    trajectory = ControlVolume.trajectory
    monkeypatch.setattr(ControlVolume, "trajectory",
                        lambda self, t: calls.append(t) or trajectory(self, t))
    t = np.repeat([0.3, 0.3, 0.6, 0.3], 5)[:, None]
    cv.contains(np.full((20, 4, 2), 0.5), t)
    assert calls == [0.3, 0.6, 0.3]


@pytest.mark.parametrize("layout", ["scalar", "block"])
def test_forcing_takes_one_time_factor_pass_and_keeps_every_bit(rng, monkeypatch, layout):
    """rho dt - eps lap from one pass, equal to the two separate reference calls."""
    x = rng.uniform(-0.5, 1.5, size=(12, 9, 2))
    t = {"scalar": 0.3, "block": np.repeat([0.3, 0.3, 0.6, 0.3], 27).reshape(12, 9)}[layout]
    ref, c = ReferenceCone(a=SOL.a, s=SOL.s), DATA.coefficients
    expected = c.rho * ref.dt(x, t) - c.epsilon * ref.laplacian(x, t)
    calls = []
    factors = problem._cone_time_factors
    monkeypatch.setattr(problem, "_cone_time_factors",
                        lambda s, time: calls.append(time) or factors(s, time))
    got = DATA.rhs_f(x, t)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert calls == ([0.3] if layout == "scalar" else [0.3, 0.6, 0.3])


def test_membership_of_time_arrays_outside_the_window_evaluates_no_point(monkeypatch):
    cv = ControlVolume()

    def refuse(self, t):
        raise AssertionError("trajectory evaluated outside the time window")

    monkeypatch.setattr(ControlVolume, "trajectory", refuse)
    mask = cv.contains(np.full((7, 9, 2), 0.5), np.array([0.1, 1.0, 2.0])[:, None, None])
    assert mask.shape == (3, 7, 9) and mask.dtype == bool and not mask.any()


@pytest.mark.parametrize("make, field", [
    (lambda v: ConeSolution(a=v), "a"),
    (lambda v: ConeSolution(s=v), "s"),
    (lambda v: Coefficients(rho=v), "rho"),
    (lambda v: Coefficients(epsilon=v), "epsilon"),
    (lambda v: ControlVolume(r1=v), "r1"),
    (lambda v: ControlVolume(omega=v), "omega"),
    (lambda v: ControlVolume(t_start=v), "t_start"),
    (lambda v: ControlVolume(t_end=v), "t_end"),
    (lambda v: ControlVolume(box=(-0.1, v, -0.1, 0.1)), "box"),
    (lambda v: ControlVolume(center=(v, 0.5)), "center"),
    (lambda v: ProblemData(t0=v), "t0"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_fields_are_refused_by_name(make, field, value):
    with pytest.raises(ValueError, match=rf"\.{field} must be finite"):
        make(value)


def blocked(fn, units):
    return [v.copy() for v in problem.evaluate_in_blocks(fn, units)]


def test_blocks_keep_unit_order_and_the_budget(rng, monkeypatch):
    monkeypatch.setattr(problem, "BLOCK_POINTS", 100)
    shared = rng.random((5, 4, 2))
    rows = [6, 6, 6, 7, 30, 2, None, None, 6, 6, 6]
    units = [(shared if n is None else rng.random((n, 4, 2)), 0.1 * k) for k, n in enumerate(rows)]
    units.append((rng.random((2, 9, 2)), 1.5))
    blocks = list(problem.blocks(iter(units)))
    # 3 x 24 + 28 points fill the budget; 120 points exceed it alone; 8 + 20 + 20 + 24 + 24
    # points fill it again, so the last unit of 24 starts a block; another q starts one too
    assert [len(b.spans) for b in blocks] == [4, 1, 5, 1, 1]
    single = blocks[1]
    assert single.x is units[4][0] and single.t.ndim == 0 and single.spans == [(0, 30)]
    assert blocks[0].t.shape == (25, 4) and blocks[0].spans == [(0, 6), (6, 12), (12, 18), (18, 25)]
    assert np.array_equal(blocks[0].t, np.repeat(0.1 * np.arange(4), [24, 24, 24, 28]).reshape(25, 4))
    # units on one array of points are concatenated like any others
    assert blocks[2].x.shape == (24, 4, 2) and blocks[2].spans[1:3] == [(2, 7), (7, 12)]
    for fn in (DATA.rhs_f, DATA.neumann_h, SOL.u, ControlVolume().contains):
        got = blocked(fn, units)
        assert all(g.tobytes() == fn(x, t).tobytes() for g, (x, t) in zip(got, units))


def test_a_block_gives_each_point_its_unit_and_time(rng):
    x = rng.random((6, 4, 2))
    (block,) = problem.blocks([(x, 0.1), (x, 0.2), (x, 0.3)])
    assert block.x.shape == (18, 4, 2) and block.t.shape == (18, 4)
    assert block.spans == [(0, 6), (6, 12), (12, 18)]
    values = block.evaluate(SOL.u)
    assert values.shape == (18, 4)
    assert values[6:12].tobytes() == SOL.u(x, 0.2).tobytes()
    coords, times = block.at(np.array([1, 30, 71]))
    assert np.array_equal(coords, x.reshape(-1, 2)[[1, 6, 23]])
    assert np.array_equal(times, [0.1, 0.2, 0.3])
    # data constant in x and t are broadcast to every point
    assert block.evaluate(lambda x, t: 1.0).shape == (18, 4)


def test_a_block_without_points_calls_nothing():
    (block,) = problem.blocks([(np.zeros((0, 3, 2)), 0.1), (np.zeros((0, 3, 2)), 0.2)])

    def refuse(x, t):
        raise AssertionError("called on no points")

    assert block.evaluate(refuse).shape == (0, 3)
