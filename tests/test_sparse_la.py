import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, strategies as st
from scipy.sparse._compressed import _cs_matrix

from dwr_diffusion import fem, sparse_la
from dwr_diffusion.fem import FeSpace
from dwr_diffusion.primal import ImplicitStep
from dwr_diffusion.problem import Coefficients
from dwr_diffusion.sparse_la import (
    SolverControl,
    SolverError,
    ConstraintCycleError,
    ConstraintSet,
    csr_from_triplets,
    spmv,
    cg_solve,
    apply_dirichlet,
    condense_hanging,
    distribute_constraints,
)
from test_primal import condense_reference, eliminate_reference, pin_reference

TIGHT = SolverControl(max_iterations=500, relative_tolerance=1e-13, absolute_tolerance=1e-16)


def tridiagonal(n):
    """The SPD 1D Laplacian stencil (-1, 2, -1)."""
    return sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()


def spd_random(n, seed):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    return R.T @ R + n * np.eye(n)


class TestTriplets:
    def test_duplicates_are_summed(self):
        A = csr_from_triplets(1, 1, [(0, 0, 1.0), (0, 0, 2.0)])
        assert A.shape == (1, 1)
        assert A[0, 0] == 3.0

    def test_empty_matrix(self):
        A = csr_from_triplets(2, 2, [])
        assert A.nnz == 0
        assert A.shape == (2, 2)

    def test_symmetric_pair(self):
        A = csr_from_triplets(2, 2, [(0, 1, 2.0), (1, 0, 2.0)])
        assert A[0, 1] == A[1, 0] == 2.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            csr_from_triplets(2, 2, [(2, 0, 1.0)])
        with pytest.raises(ValueError):
            csr_from_triplets(2, 2, [(0, -1, 1.0)])

    def test_pattern_is_canonical(self):
        A = csr_from_triplets(3, 3, [(2, 2, 1.0), (0, 2, 1.0), (0, 0, 1.0), (0, 1, 1.0)])
        assert np.all(np.diff(A.indptr) >= 0)
        for i in range(3):
            row = A.indices[A.indptr[i]:A.indptr[i + 1]]
            assert np.all(np.diff(row) > 0)


def csr_fields(A):
    """The index and value arrays of a CSR matrix, raw or scipy, with the shape."""
    return A.indptr, A.indices, A.data, A.shape


def assert_bitwise(got, expected):
    """Equal arrays with equal dtypes, compared by their bytes (so -0.0 differs from 0.0)."""
    for a, b in zip(csr_fields(got), csr_fields(expected)):
        if isinstance(a, tuple):
            assert a == b
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def triplets(draw):
    """COO triplets with many duplicates, unsorted columns, empty rows and explicit zeros.

    ``layout`` picks the branch of scipy's canonicalisation the triplets take:
    shuffled (sort and sum), row-major with duplicates (sum only) or
    row-major and distinct (already canonical).
    """
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nnz = draw(st.integers(0, 80))
    # few distinct rows and columns, so entries repeat and some rows stay empty
    rows = rng.choice(rng.choice(n_rows, rng.integers(1, n_rows + 1)), nnz)
    cols = rng.choice(rng.choice(n_cols, rng.integers(1, n_cols + 1)), nnz)
    vals = rng.choice([0.0, -0.0, 1.0, -1.0, 0.1, 1e-17, 3.0], nnz) * rng.random(nnz).round(1)
    layout = draw(st.sampled_from(["shuffled", "sorted", "distinct"]))
    if layout != "shuffled":
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
    if layout == "distinct":
        first = np.ones(nnz, dtype=bool)
        first[1:] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
        rows, cols, vals = rows[first], cols[first], vals[first]
    return rows, cols, vals, (n_rows, n_cols)


class TestCooToCsr:
    """The raw builder gives scipy's ``csr_matrix((v, (r, c)), shape)`` arrays bitwise."""

    @given(triplets(), st.sampled_from([np.int64, np.int32]))
    def test_arrays_and_dtypes_are_scipy_s(self, coo, index_dtype):
        rows, cols, vals, shape = coo
        rows, cols = rows.astype(index_dtype), cols.astype(index_dtype)
        expected = sp.csr_matrix((vals, (rows, cols)), shape=shape)
        got = sparse_la.coo_to_csr(rows, cols, vals, shape)
        assert got.indices.dtype == np.int32
        assert_bitwise(got, expected)

    def test_a_shape_past_int32_takes_int64_indices_as_scipy_does(self):
        rows, cols, vals = np.array([1, 0, 1]), np.array([2**31, 5, 2**31]), np.ones(3)
        shape = (2, 2**31 + 1)
        expected = sp.csr_matrix((vals, (rows, cols)), shape=shape)
        got = sparse_la.coo_to_csr(rows, cols, vals, shape)
        assert got.indices.dtype == np.int64
        assert_bitwise(got, expected)

    @pytest.mark.parametrize("rows, cols", [([0, 2], [0, 0]), ([0, -1], [0, 0]),
                                            ([0, 0], [0, 2]), ([0, 0], [-1, 0])])
    def test_out_of_range_indices_are_refused(self, rows, cols):
        with pytest.raises(ValueError, match="out of range"):
            sparse_la.coo_to_csr(np.array(rows), np.array(cols), np.ones(2), (2, 2))

    def test_scipy_wrapping_shares_the_arrays(self, rng):
        rows, cols = rng.integers(0, 6, 30), rng.integers(0, 6, 30)
        raw = sparse_la.coo_to_csr(rows, cols, rng.standard_normal(30), (6, 6))
        A = sparse_la.to_scipy(raw)
        assert A.format == "csr" and A.shape == raw.shape
        assert all(np.shares_memory(a, b) for a, b in zip(csr_fields(A)[:3], raw[:3]))


class TestSpmv:
    def test_identity(self):
        I = csr_from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
        assert np.allclose(spmv(I, np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_hand_multiplication(self):
        A = csr_from_triplets(2, 2, [(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)])
        assert np.allclose(spmv(A, np.array([1.0, 0.0])), [4.0, 1.0])

    def test_zero_matrix(self):
        Z = csr_from_triplets(3, 3, [])
        assert np.all(spmv(Z, np.arange(3.0)) == 0.0)

    def test_dimension_mismatch(self):
        A = csr_from_triplets(2, 2, [(0, 0, 1.0)])
        with pytest.raises(ValueError):
            spmv(A, np.zeros(3))


class TestCg:
    def test_identity_one_iteration(self):
        I = csr_from_triplets(4, 4, [(i, i, 1.0) for i in range(4)])
        b = np.array([1.0, -2.0, 0.5, 3.0])
        x, iters = cg_solve(I, b, TIGHT)
        assert iters <= 1
        assert np.allclose(x, b, atol=1e-14)

    def test_two_by_two(self):
        A = csr_from_triplets(2, 2, [(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)])
        x, _ = cg_solve(A, np.array([1.0, 2.0]), TIGHT)
        assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-12)

    def test_manufactured_solution(self):
        n = 50
        A_dense = spd_random(n, seed=7)
        x_star = np.random.default_rng(8).standard_normal(n)
        A = csr_from_triplets(
            n, n, [(i, j, A_dense[i, j]) for i in range(n) for j in range(n)]
        )
        b = A @ x_star
        x, _ = cg_solve(A, b, SolverControl(2000, 1e-12, 1e-16))
        assert np.linalg.norm(x - x_star) < 1e-8

    def test_zero_rhs_returns_exact_zero(self):
        A = csr_from_triplets(3, 3, [(i, i, 2.0) for i in range(3)])
        x, iters = cg_solve(A, np.zeros(3), TIGHT)
        assert iters == 0
        assert np.all(x == 0.0)

    def test_nonconvergence_reports_residual(self):
        A_dense = spd_random(30, seed=3)
        A = csr_from_triplets(
            30, 30, [(i, j, A_dense[i, j]) for i in range(30) for j in range(30)]
        )
        b = np.ones(30)
        with pytest.raises(SolverError) as exc:
            cg_solve(A, b, SolverControl(max_iterations=1, relative_tolerance=1e-14,
                                         absolute_tolerance=1e-16))
        assert exc.value.residual > 0.0
        assert exc.value.iterations == 1

    @pytest.mark.parametrize("bad", ["rhs", "x0"])
    def test_non_finite_input_fails_before_the_first_iteration(self, bad):
        A = tridiagonal(2000)
        b, x0 = np.ones(2000), np.zeros(2000)
        if bad == "rhs":
            b[5] = np.nan
        else:
            x0[5] = np.inf
        with pytest.raises(SolverError) as exc:
            cg_solve(A, b, SolverControl(max_iterations=5000), x0=x0)
        assert exc.value.iterations == 0
        assert not np.isfinite(exc.value.residual)

    def test_non_finite_residual_fails_at_its_iteration(self, monkeypatch):
        kernel, good = sparse_la._csr_matvec, 3

        def nan_after(n_row, n_col, indptr, indices, data, v, out):
            """The kernel, writing NaN from the ``good + 1``-th product on."""
            nonlocal good
            good -= 1
            if good >= 0:
                kernel(n_row, n_col, indptr, indices, data, v, out)
            else:
                out[:] = np.nan

        monkeypatch.setattr(sparse_la, "_csr_matvec", nan_after)
        # one product for the initial residual, one per iteration
        with pytest.raises(SolverError) as exc:
            cg_solve(tridiagonal(50), np.ones(50), TIGHT)
        assert exc.value.iterations == 3
        assert "not finite at iteration 3" in str(exc.value)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**30))
    def test_small_spd_matches_dense_elimination(self, n, seed):
        A_dense = spd_random(n, seed=seed)
        b = np.random.default_rng(seed + 1).standard_normal(n)
        A = csr_from_triplets(
            n, n, [(i, j, A_dense[i, j]) for i in range(n) for j in range(n)]
        )
        x, _ = cg_solve(A, b, SolverControl(200, 1e-14, 1e-16))
        assert np.linalg.norm(x - np.linalg.solve(A_dense, b)) < 1e-10

    def test_invalid_control_rejected(self):
        with pytest.raises(ValueError):
            SolverControl(max_iterations=0)
        with pytest.raises(ValueError):
            SolverControl(relative_tolerance=0.0)

    @pytest.mark.parametrize("name", ["relative_tolerance", "absolute_tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, name, value):
        """A NaN tolerance would run CG to its iteration limit, an infinite one would
        accept the initial guess."""
        with pytest.raises(ValueError, match=rf"^SolverControl\.{name} must be finite"):
            SolverControl(**{name: value})


def reference_cg(A, b, ctrl=SolverControl(), x0=None):
    """Jacobi-PCG on ``A @ p`` with fresh vectors per update: :func:`cg_solve`'s reference."""
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"system shape mismatch: {A.shape} vs rhs {n}")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    diag = A.diagonal().copy()
    diag[diag == 0.0] = 1.0
    inv_diag = 1.0 / diag

    b_norm = np.linalg.norm(b)
    target = max(ctrl.relative_tolerance * b_norm, ctrl.absolute_tolerance)

    r = b - A @ x
    res = np.linalg.norm(r)
    if not (math.isfinite(b_norm) and math.isfinite(res)):
        raise SolverError("CG got a non-finite right-hand side or initial residual "
                          f"(|b| {b_norm:.3e}, residual {res:.3e})", iterations=0, residual=res)
    if res <= target:
        return x, 0
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for k in range(1, ctrl.max_iterations + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        res = np.linalg.norm(r)
        if res <= target:
            return x, k
        if not math.isfinite(res):
            raise SolverError(f"CG residual is not finite at iteration {k}",
                              iterations=k, residual=res)
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"CG did not converge in {ctrl.max_iterations} iterations "
        f"(residual {res:.3e}, target {target:.3e})",
        iterations=ctrl.max_iterations,
        residual=res,
    )


def step_system(mesh, degree, c, rng):
    """A step system of the solver with a random lifted load and Dirichlet values in ``x0``."""
    space = FeSpace(mesh, degree)
    K, system, dofs = ImplicitStep(Coefficients(rho=1.5, epsilon=0.3), c, "primal").matrices(
        space, 0.1)
    assert len(space.constraints) and len(dofs)
    g = rng.standard_normal(dofs.size)
    b = sparse_la.lift_dirichlet(
        K, space.constraints.condense_vector(rng.standard_normal(space.n_dofs)), dofs, g)
    x0 = np.zeros(space.n_dofs)
    x0[dofs] = g
    return system, b, x0


class TestCgBitIdentity:
    """:func:`cg_solve` performs the reference loop's operations exactly, in place."""

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_step_systems_match_the_reference_loop(self, sheared_irregular_lshape, rng,
                                                   degree, c):
        A, b, x0 = step_system(sheared_irregular_lshape, degree, c, rng)
        for ctrl in (SolverControl(), TIGHT):
            x, iters = cg_solve(A, b, ctrl, x0=x0)
            x_ref, iters_ref = reference_cg(sparse_la.to_scipy(A), b, ctrl, x0=x0)
            assert iters == iters_ref > 0
            assert np.array_equal(x, x_ref)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_early_stop_reports_the_reference_residual(self, sheared_irregular_lshape, rng,
                                                       degree, c):
        A, b, x0 = step_system(sheared_irregular_lshape, degree, c, rng)
        A_ref = sparse_la.to_scipy(A)
        stop = reference_cg(A_ref, b, TIGHT, x0=x0)[1] // 2
        ctrl = dataclasses.replace(TIGHT, max_iterations=stop)
        with pytest.raises(SolverError) as exc:
            cg_solve(A, b, ctrl, x0=x0)
        with pytest.raises(SolverError) as ref:
            reference_cg(A_ref, b, ctrl, x0=x0)
        assert exc.value.iterations == ref.value.iterations == stop
        assert exc.value.residual == ref.value.residual
        assert str(exc.value) == str(ref.value)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_raw_kernel_is_the_scipy_product(self, rng, index_dtype):
        dense = rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.2)
        A = sp.csr_matrix(dense)
        A.indptr, A.indices = A.indptr.astype(index_dtype), A.indices.astype(index_dtype)
        v = rng.standard_normal(40)
        out = np.zeros(40)
        sparse_la._csr_matvec(40, 40, A.indptr, A.indices, A.data, v, out)
        assert A.indices.dtype == A.indptr.dtype == index_dtype
        assert np.array_equal(out, A @ v)


class TestCgRawInput:
    """A :class:`sparse_la.Csr` and the scipy matrix on its arrays solve alike, bit for bit."""

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_iterates_and_iterations_are_equal(self, sheared_irregular_lshape, rng, monkeypatch,
                                               degree, c):
        A, b, x0 = step_system(sheared_irregular_lshape, degree, c, rng)
        assert isinstance(A, sparse_la.Csr)
        kernel, products = sparse_la._csr_matvec, []

        def recorded(n_row, n_col, indptr, indices, data, v, out):
            products.append(v.copy())  # the initial guess, then every search direction
            kernel(n_row, n_col, indptr, indices, data, v, out)

        monkeypatch.setattr(sparse_la, "_csr_matvec", recorded)
        runs = []
        for matrix in (A, sparse_la.to_scipy(A)):
            products.clear()
            x, iters = cg_solve(matrix, b, TIGHT, x0=x0)
            runs.append((x, iters, list(products)))
        (x, iters, raw), (x_sp, iters_sp, scipy_run) = runs
        assert iters == iters_sp > 0 and len(raw) == len(scipy_run) == iters + 1
        assert all(p.tobytes() == q.tobytes() for p, q in zip(raw, scipy_run))
        assert x.tobytes() == x_sp.tobytes()

    def test_the_residual_product_is_the_scipy_product(self, sheared_irregular_lshape, rng):
        A, b, _ = step_system(sheared_irregular_lshape, 2, 1.0, rng)
        assert spmv(A, b).tobytes() == (sparse_la.to_scipy(A) @ b).tobytes()
        with pytest.raises(ValueError, match="dimension mismatch"):
            spmv(A, b[:-1])


class TestCgInputs:
    """Checks made before the raw kernel, which does no bounds checks, runs."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        kernel = sparse_la._csr_matvec

        def counted(*args):
            calls.append(args)
            kernel(*args)

        monkeypatch.setattr(sparse_la, "_csr_matvec", counted)
        return calls

    @pytest.mark.parametrize("bad", ["rhs", "x0"])
    def test_wrong_length_is_refused_before_any_product(self, spy, bad):
        b, x0 = np.ones(10), np.zeros(10)
        if bad == "rhs":
            b = np.ones(11)
        else:
            x0 = np.zeros(9)
        with pytest.raises(ValueError):
            cg_solve(tridiagonal(10), b, TIGHT, x0=x0)
        assert spy == []

    @pytest.mark.parametrize("fmt", ["csc", "coo", "ndarray"])
    def test_other_formats_are_refused(self, spy, fmt):
        A = tridiagonal(10)
        A = A.toarray() if fmt == "ndarray" else A.asformat(fmt)
        with pytest.raises(TypeError, match=fmt):
            cg_solve(A, np.ones(10), TIGHT)
        assert spy == []

    def test_inputs_are_left_untouched(self, sheared_irregular_lshape, rng, spy):
        A, b, x0 = step_system(sheared_irregular_lshape, 1, 1.0, rng)
        spy.clear()  # the Dirichlet lift in step_system runs the kernel too
        saved = b.copy(), x0.copy(), A.data.copy()
        x, iters = cg_solve(A, b, SolverControl(), x0=x0)
        assert len(spy) == iters + 1
        for array, before in zip((b, x0, A.data), saved):
            assert np.array_equal(array, before)
            assert not np.shares_memory(x, array)


class TestApplyDirichlet:
    def test_single_dof_system(self):
        A = csr_from_triplets(1, 1, [(0, 0, 5.0)])
        A2, b2 = apply_dirichlet(A, np.array([1.0]), {0: 7.5})
        x, _ = cg_solve(A2, b2, TIGHT, x0=b2)
        assert x[0] == 7.5

    def test_hand_elimination(self):
        A = csr_from_triplets(2, 2, [(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)])
        A2, b2 = apply_dirichlet(A, np.array([1.0, 2.0]), {0: 1.0})
        # remaining equation: 3 x1 = 2 - 1
        assert A2[1, 1] == 3.0 and A2[1, 0] == 0.0 and A2[0, 1] == 0.0
        assert b2[1] == 1.0 and b2[0] == 1.0

    def test_empty_constraints_unchanged(self):
        A = csr_from_triplets(2, 2, [(0, 0, 2.0), (1, 1, 2.0)])
        b = np.array([1.0, 2.0])
        A2, b2 = apply_dirichlet(A, b, {})
        assert np.allclose(A2.toarray(), A.toarray())
        assert np.allclose(b2, b)

    def test_matrix_stays_symmetric(self):
        A_dense = spd_random(15, seed=11)
        A = csr_from_triplets(
            15, 15, [(i, j, A_dense[i, j]) for i in range(15) for j in range(15)]
        )
        A2, _ = apply_dirichlet(A, np.ones(15), {0: 1.0, 7: -2.0, 14: 0.5})
        diff = (A2 - A2.T).tocoo()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    def test_constrained_values_bit_exact_after_cg(self):
        A_dense = spd_random(12, seed=5)
        A = csr_from_triplets(
            12, 12, [(i, j, A_dense[i, j]) for i in range(12) for j in range(12)]
        )
        bc = {0: 1.25, 5: -3.5}
        A2, b2 = apply_dirichlet(A, np.ones(12), bc)
        x0 = np.zeros(12)
        for d, v in bc.items():
            x0[d] = v
        x, _ = cg_solve(A2, b2, TIGHT, x0=x0)
        assert x[0] == 1.25
        assert x[5] == -3.5


class TestCondenseHanging:
    def test_no_constraints_is_identity(self):
        A = csr_from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 1.0)])
        b = np.array([1.0, 2.0])
        A2, b2 = condense_hanging(A, b, {})
        assert np.allclose(A2.toarray(), A.toarray())
        assert np.allclose(b2, b)

    def test_midpoint_slave_on_identity(self):
        A = csr_from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
        rows = {2: [(0, 0.5), (1, 0.5)]}
        A2, b2 = condense_hanging(A, np.array([0.0, 0.0, 1.0]), rows)
        x, _ = cg_solve(A2, b2, TIGHT)
        x = distribute_constraints(x, rows)
        assert x[2] == 0.5 * (x[0] + x[1])

    def test_two_slaves_against_dense_oracle(self):
        n = 5
        A_dense = spd_random(n, seed=13)
        b = np.arange(1.0, n + 1.0)
        rows = {3: [(0, 0.5), (1, 0.5)], 4: [(1, 0.25), (2, 0.75)]}
        A = csr_from_triplets(
            n, n, [(i, j, A_dense[i, j]) for i in range(n) for j in range(n)]
        )
        A2, b2 = condense_hanging(A, b, rows)
        x = distribute_constraints(cg_solve(A2, b2, TIGHT)[0], rows)
        # dense elimination oracle: solve the reduced system in the masters
        T = np.zeros((n, 3))  # free dofs 0, 1, 2
        T[0, 0] = T[1, 1] = T[2, 2] = 1.0
        T[3, 0] = T[3, 1] = 0.5
        T[4, 1], T[4, 2] = 0.25, 0.75
        y = np.linalg.solve(T.T @ A_dense @ T, T.T @ b)
        assert np.allclose(x, T @ y, atol=1e-11)
        assert x[3] == 0.5 * (x[0] + x[1])
        assert x[4] == 0.25 * x[1] + 0.75 * x[2]

    def test_chained_slaves_are_closed(self):
        A = csr_from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
        rows = {1: [(0, 1.0)], 2: [(1, 0.5), (0, 0.5)]}
        A2, b2 = condense_hanging(A, np.ones(3), rows)
        x = distribute_constraints(cg_solve(A2, b2, TIGHT)[0], rows)
        assert x[1] == x[0]
        assert x[2] == x[0]

    def test_chained_offsets_are_closed(self):
        rows = {1: [(0, 1.0)], 2: [(1, 0.5), (0, 0.5)]}
        x = distribute_constraints(np.array([1.0, 0.0, 0.0]), rows, {1: 2.0, 2: 1.0})
        # x1 = x0 + 2, x2 = (x1 + x0) / 2 + 1
        np.testing.assert_array_equal(x, [1.0, 3.0, 3.0])

    def test_cycle_detected(self):
        A = csr_from_triplets(2, 2, [(i, i, 1.0) for i in range(2)])
        with pytest.raises(ConstraintCycleError):
            condense_hanging(A, np.zeros(2), {0: [(1, 1.0)], 1: [(0, 1.0)]})

    def test_row_without_masters_is_rejected(self):
        A = csr_from_triplets(2, 2, [(i, i, 1.0) for i in range(2)])
        with pytest.raises(ValueError, match="master"):
            condense_hanging(A, np.zeros(2), {1: []})

    def test_self_reference_detected(self):
        A = csr_from_triplets(2, 2, [(i, i, 1.0) for i in range(2)])
        with pytest.raises(ConstraintCycleError, match="dof 0"):
            condense_hanging(A, np.zeros(2), {0: [(0, 1.0)], 1: [(0, 0.5)]})

    @pytest.mark.parametrize("rows, entry", [
        ({2: [(-3, 1.0)]}, "slave 2, master -3"),
        ({2: [(0, 0.5), (3, 0.5)]}, "slave 2, master 3"),
        ({-1: [(0, 1.0)]}, "slave -1, master 0"),
        ({3: [(0, 1.0)]}, "slave 3, master 0")])
    def test_out_of_range_dofs_are_refused(self, rows, entry):
        A = csr_from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
        message = rf"\({entry}\) has a dof outside \[0, 3\)"
        with pytest.raises(ValueError, match=message):
            distribute_constraints(np.array([1.0, 2.0, 3.0]), rows)
        with pytest.raises(ValueError, match=message):
            condense_hanging(A, np.ones(3), rows)

    @pytest.mark.parametrize("key", [-1, 3, 1.5])
    def test_inhomogeneity_keys_outside_the_dofs_are_refused(self, key):
        A = csr_from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
        rows = {2: [(0, 1.0)]}
        message = rf"inhomogeneity key {key} is not a dof in \[0, 3\)"
        with pytest.raises(ValueError, match=message):
            distribute_constraints(np.array([1.0, 2.0, 3.0]), rows, {key: 5.0})
        with pytest.raises(ValueError, match=message):
            condense_hanging(A, np.ones(3), rows, {key: 5.0})

    @pytest.mark.parametrize("rows, name", [({2: [(1.7, 1.0)]}, r"row 2: \[\(1\.7, 1\.0\)\]"),
                                            ({2.5: [(0, 1.0)]}, r"row 2\.5: \[\(0, 1\.0\)\]")])
    def test_non_integer_dofs_are_refused(self, rows, name):
        A = csr_from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
        message = rf"constraint {name} has a dof that is not an integer"
        with pytest.raises(ValueError, match=message):
            distribute_constraints(np.array([1.0, 2.0, 3.0]), rows)
        with pytest.raises(ValueError, match=message):
            condense_hanging(A, np.ones(3), rows)

    def test_integer_valued_dofs_of_any_type_are_taken(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = distribute_constraints(x, {2: [(0, 1.0), (1, 0.5)]}, {2: 5.0})
        assert expected.tolist() == [1.0, 2.0, 7.0]
        for rows, inhom in (({np.int64(2): [(np.int32(0), 1.0), (1.0, 0.5)]}, {2.0: 5.0}),
                            ({2.0: [(0.0, 1.0), (np.int64(1), 0.5)]}, {np.int64(2): 5.0})):
            assert np.array_equal(distribute_constraints(x, rows, inhom), expected)


def spgemm_closure(n, owner, masters, weights, offsets):
    """The closure as a power of a CSR matrix, kept as the oracle of :func:`sparse_la._closure`.

    Q = diag(free) + W substitutes each slave by its raw row W, the entries
    (``owner``, ``masters``, ``weights``), so P = Q^k and c = sum_{j<k} Q^j g
    once Q^k has no slave column left, g being the slaves' ``offsets``.  A
    cycle among the slaves raises :class:`ConstraintCycleError` first.
    """
    slaves = np.unique(owner)
    is_slave = np.zeros(n, dtype=bool)
    is_slave[slaves] = True
    # peel off the slaves whose masters are all settled; one that never settles reaches a cycle
    pending = is_slave.copy()
    while pending.any():
        blocked = np.zeros(n, dtype=bool)
        blocked[owner[pending[masters]]] = True
        if not (pending & ~blocked).any():
            raise ConstraintCycleError(f"cyclic constraint through dof {pending.argmax()}")
        pending &= blocked
    W = sp.csr_matrix((weights, (owner, masters)), shape=(n, n))
    Q = (sp.diags((~is_slave).astype(float)) + W).tocsr()
    g = np.zeros(n)
    if offsets is not None:
        g[slaves] = offsets[slaves]
    P, c = Q, g
    while is_slave[P.indices].any():
        P, c = P @ Q, Q @ c + g
    P.sort_indices()
    return P, c, slaves


def layered_constraints(rng, n=40, depth=3):
    """Raw constraint entries whose chains reach ``depth``, in shuffled order, with offsets.

    Level-k slaves take 1-3 distinct masters among the dofs of lower
    levels, level 0 being the free dofs, and at least one of level k - 1.
    """
    levels = np.array_split(rng.permutation(n), depth + 1)
    owner, masters = [], []
    for k in range(1, depth + 1):
        lower = np.concatenate(levels[:k])
        for s in levels[k]:
            picked = {rng.choice(levels[k - 1])}
            picked |= set(rng.choice(lower, rng.integers(0, 3)).tolist())
            owner += [s] * len(picked)
            masters += sorted(picked)
    order = rng.permutation(len(owner))
    return (np.array(owner)[order], np.array(masters)[order],
            rng.uniform(-1.0, 1.0, len(owner)), rng.standard_normal(n))


class TestClosureOracle:
    """The entry-array closure gives the SpGEMM power's P, c and slaves."""

    @staticmethod
    def check(n, owner, masters, weights, offsets):
        (indptr, indices, data, shape), c, slaves = sparse_la._closure(
            n, owner, masters, weights, offsets)
        P_ref, c_ref, slaves_ref = spgemm_closure(n, owner, masters, weights, offsets)
        assert shape == (n, n)
        assert indptr.shape == (n + 1,) and indptr[0] == 0 and indptr[-1] == len(indices)
        assert np.all(np.diff(indptr) >= 0)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        assert np.all((np.diff(rows) > 0) | (np.diff(indices) > 0))  # sorted, distinct in each row
        assert np.all(data != 0.0)
        P = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        assert np.array_equal(slaves, slaves_ref)
        assert np.max(np.abs(P.toarray() - P_ref.toarray())) <= 1e-15
        assert np.max(np.abs(c - c_ref)) <= 1e-15 * max(1.0, np.max(np.abs(c_ref)))
        return P, c

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("with_offsets", [True, False])
    def test_random_chains_up_to_depth_three(self, seed, with_offsets):
        rng = np.random.default_rng(seed)
        owner, masters, weights, offsets = layered_constraints(rng)
        self.check(40, owner, masters, weights, offsets if with_offsets else None)

    def test_two_paths_to_one_master_are_summed(self):
        # 3 -> {1, 2}, 1 -> 0, 2 -> 0: dof 3 reaches dof 0 twice
        owner, masters = np.array([3, 3, 1, 2]), np.array([1, 2, 0, 0])
        weights, offsets = np.array([0.25, 0.75, 0.5, 2.0]), np.array([0.0, 1.0, -1.0, 0.5])
        P, c = self.check(4, owner, masters, weights, offsets)
        assert P[3].toarray().tolist() == [[0.25 * 0.5 + 0.75 * 2.0, 0.0, 0.0, 0.0]]
        assert c[3] == 0.5 + 0.25 * 1.0 + 0.75 * -1.0

    def test_cycle_names_a_dof(self):
        # 4 -> 2 -> 3 -> 2 never settles; 1 -> 0 does
        owner, masters = np.array([1, 4, 2, 3]), np.array([0, 2, 3, 2])
        weights = np.ones(4)
        for closure in (sparse_la._closure, spgemm_closure):
            with pytest.raises(ConstraintCycleError, match=r"cyclic constraint through dof \d"):
                closure(5, owner, masters, weights, None)


class TestConstraintProducts:
    """The raw kernels on P's arrays are scipy's ``P @ x + c`` and ``P.T @ b`` bitwise."""

    @pytest.mark.parametrize("seed", range(6))
    def test_distribute_and_condense_vector_are_the_scipy_products(self, seed):
        rng = np.random.default_rng(seed)
        owner, masters, weights, offsets = layered_constraints(rng)
        cs = ConstraintSet(40, owner, masters, weights, offsets)
        P = sparse_la.to_scipy(cs._P)
        x, b = rng.standard_normal(40), rng.standard_normal(40)
        assert np.array_equal(cs.distribute(x), P @ x + cs._c)
        assert np.array_equal(cs.condense_vector(b), P.T @ b)

    def test_wrong_length_is_refused_before_the_kernel(self, rng):
        owner, masters, weights, offsets = layered_constraints(rng)
        cs = ConstraintSet(40, owner, masters, weights, offsets)
        for product in (cs.distribute, cs.condense_vector):
            with pytest.raises(ValueError, match="does not match 40 dofs"):
                product(np.ones(39))


@st.composite
def constrained_systems(draw):
    """A square scipy matrix, a load and chained inhomogeneous constraint rows.

    The matrix is CSR, CSC or COO, with duplicate entries left in place and
    random entries, so most diagonal entries are missing.  The constraint
    rows chain up to depth three (:func:`layered_constraints`); returned
    with their entry arrays and offsets for the oracle.
    """
    n, depth = draw(st.integers(4, 14)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nnz = draw(st.integers(0, 4 * n))
    rows, cols, vals = rng.integers(0, n, nnz), rng.integers(0, n, nnz), rng.uniform(-1, 1, nnz)
    fmt = draw(st.sampled_from(["csr", "csc", "coo"]))
    if fmt == "coo":
        A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    else:  # compressed from its arrays, so the duplicates stay
        major, minor = (rows, cols) if fmt == "csr" else (cols, rows)
        order = np.argsort(major, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(major, minlength=n))])
        A = sp.csr_matrix if fmt == "csr" else sp.csc_matrix
        A = A((vals[order], minor[order], indptr), shape=(n, n))
    owner, masters, weights, offsets = layered_constraints(rng, n, depth)
    owner, masters = owner.astype(int), masters.astype(int)
    constraint_rows = {}
    for slave, master, weight in zip(owner.tolist(), masters.tolist(), weights.tolist()):
        constraint_rows.setdefault(slave, []).append((master, weight))
    inhom = {s: float(offsets[s]) for s in constraint_rows if rng.random() < 0.7}
    offsets = np.zeros(n)
    offsets[list(inhom)] = list(inhom.values())
    return A, rng.standard_normal(n), constraint_rows, inhom, (owner, masters, weights, offsets)


def assert_close(new, ref):
    """Agreement to 1e-14 relative to the reference's largest entry."""
    new, ref = (m.toarray() if sp.issparse(m) else m for m in (new, ref))
    assert np.max(np.abs(new - ref), initial=0.0) <= 1e-14 * np.max(np.abs(ref), initial=0.0)


class TestHelpersAgainstOracles:
    """The public helpers on the solve path's primitives give the scipy formulas."""

    @given(constrained_systems())
    def test_condense_hanging_is_the_triple_product_with_unit_slave_rows(self, system):
        A, b, rows, inhom, (owner, masters, weights, offsets) = system
        A2, b2 = condense_hanging(A, b, rows, inhom)
        P, c, slaves = spgemm_closure(A.shape[0], owner, masters, weights, offsets)
        assert A2.format == "csr"
        assert_close(A2, pin_reference(condense_reference(P, A), slaves))
        assert_close(b2, P.T @ (b - A @ c))

    @given(constrained_systems(), st.data())
    def test_apply_dirichlet_is_the_scaled_copy_and_the_lift(self, system, data):
        A, b = system[:2]
        n = A.shape[0]
        dofs = np.array(data.draw(st.lists(st.integers(0, n - 1), unique=True)), dtype=int)
        values = np.linspace(-1.0, 2.0, dofs.size)
        A2, b2 = apply_dirichlet(A, b, dict(zip(dofs.tolist(), values.tolist())))
        g = np.zeros(n)
        g[dofs] = values
        b_ref = b - A @ g
        b_ref[dofs] = values
        assert A2.format == "csr"
        assert_close(A2, eliminate_reference(A, dofs))
        assert_close(b2, b_ref)


@given(st.lists(st.integers(0, 5)), st.lists(st.integers(0, 5)))
@example([], [])
@example([0, 2, 2], [])
@example([], [1, 3])
@example([0, 2, 2, 4], [1, 1, 2, 3])  # groups 0, 4 left only; 1, 3 right only
def test_pair_groups_is_the_nested_loop(left, right):
    right = sorted(right)
    expected = [(i, j) for i in range(len(left)) for j in range(len(right)) if left[i] == right[j]]
    i, j = sparse_la.pair_groups(np.array(left, dtype=int), np.array(right, dtype=int), 6)
    assert list(zip(i.tolist(), j.tolist())) == expected


@pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
def test_each_public_helper_builds_one_scipy_matrix_its_result(fmt, sheared_irregular_lshape,
                                                               monkeypatch):
    """The helpers run on the raw CSR primitives and wrap only what they return."""
    space = FeSpace(sheared_irregular_lshape, 2)
    A = tridiagonal(6).asformat(fmt)
    helpers = {
        "apply_dirichlet": lambda: apply_dirichlet(A, np.ones(6), {0: 1.0, 5: 2.0})[0],
        "condense_hanging": lambda: condense_hanging(A, np.ones(6), {2: [(1, 0.5), (3, 0.5)]})[0],
        "csr_from_triplets": lambda: csr_from_triplets(2, 2, [(0, 1, 1.0), (0, 1, 2.0)]),
        "assemble_mass": lambda: fem.assemble_mass(space),
    }
    built, init = [], _cs_matrix.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_cs_matrix, "__init__", counted)
    for name, helper in helpers.items():
        built.clear()
        result = helper()
        assert len(built) == 1 and built[0] is result, name
